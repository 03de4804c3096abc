"""Size caps guarding enumerations and dense tables.

All exact computations in this package are desk scale by design; the caps
exist so that a typo in a profile or a horizon fails fast with a structured
error instead of grinding through an astronomically large enumeration.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceeded


class Caps(NamedTuple):
    """Hard limits for the combinatorial and tensor layers.

    A NamedTuple, so immutable and hashable: build one by keyword
    (``Caps(forests=10)``) and derive a variant with ``caps._replace(...)``.

    forests:  largest combinatorial enumeration accepted (predicted count):
              the forest/orbit classes listed or counted.
    group:    largest permutation-group size accepted by brute-force orbit walks.
    tensor:   largest dense tensor table (number of entries), checked by
              each route before it builds one: each table of the moment
              product and its largest stage, every route's tables stacked,
              the block-law output domain, the oracle's table over the
              coordinates frozen before the last level, function files and
              simulate's constant F.  A table does not check it.  It also
              bounds simulate's draws, N (horizon + 1) replicas, before
              the first one.
    configs:  largest particle-configuration state space per level; the
              oracle's forward pass holds one level's configurations at a
              time.
    series:   largest number of retained terms in a truncated power series,
              and largest work of a class census, checked before it
              starts: sum_k p(b_(k-1)) (p(b_k) + w_k), each black cycle
              type of a level against those of the next level and the
              terms of its white series, p counting partitions.  It bounds
              the work of an oracle pass too, checked before the pass:
              N sum_k |C_(k-1)||C_k| v_k, the transitions into each level
              k (|C_(-1)| = 1) times the length v_k of the vectors they
              carry, times N, which stands for the size of the
              numerators: they grow with N.
    """

    forests: int = 100_000
    group: int = 1_000_000
    tensor: int = 1_000_000
    configs: int = 100_000
    series: int = 1_000_000

    def check_tensor(self, size: int) -> None:
        """Refuse a dense table of `size` entries over the tensor cap."""
        if size > self.tensor:
            raise CapExceeded("dense table too large",
                              predicted=size, cap=self.tensor)


DEFAULT_CAPS = Caps()
