"""Workload definitions and the benchmark's own input generator.

Every input is drawn from this module's seeded RNG, never from the
program's own model generator, so that a change to the program cannot
change what the benchmark feeds it.  Each workload has one request shape;
only the numbers inside the model and function files vary.  A seeded
workload owns a pool of POOL_SIZE inputs whose output digests are recorded
in reference.json; the run seed chooses the order in which the pool is
visited, so the same seed gives the same inputs and another seed gives
others.

The files always sit at the same relative paths, because the CLI copies
the --model argument verbatim into the manifest of its output.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from typing import Dict, List, Optional

WORK_DIR = ".perfbench_work"
MODEL_PATH = WORK_DIR + "/model.json"
FUNCTION_PATH = WORK_DIR + "/function.json"
OUT_PATH = WORK_DIR + "/out.json"

POOL_SIZE = 256
STATES = 3
HORIZON = 2

# argv of one request, without the trailing --out
WORKLOADS: Dict[str, List[str]] = {
    "expand-flat": ["expand", "--model", MODEL_PATH, "--n", "2", "--q", "3",
                    "--evaluate", "5"],
    "expand-path": ["expand", "--model", MODEL_PATH, "--q-seq", "2,1,1",
                    "--evaluate", "5"],
    "oracle": ["oracle", "--model", MODEL_PATH, "--N", "4", "--n", "2",
               "--q", "2", "--function", FUNCTION_PATH],
    "count": ["count", "--n", "3", "--q", "3"],
}

# levels of the oracle's tensor function: a 2-block at level n=2
FUNCTION_LEVELS = [2, 2]


def request_argv(workload: str) -> List[str]:
    return WORKLOADS[workload] + ["--out", OUT_PATH]


def uses_model(workload: str) -> bool:
    return MODEL_PATH in WORKLOADS[workload]


def uses_function(workload: str) -> bool:
    return FUNCTION_PATH in WORKLOADS[workload]


def pool_size(workload: str) -> int:
    """The count request has no inputs, so its pool holds one member."""
    return POOL_SIZE if uses_model(workload) else 1


def visit_order(workload: str, seed: int, length: int) -> List[int]:
    """Pool indices in the order a run with this seed requests them."""
    rng = random.Random("perfbench-order/%s/%d" % (workload, seed))
    size = pool_size(workload)
    out: List[int] = []
    while len(out) < length:
        block = list(range(size))
        rng.shuffle(block)
        out.extend(block)
    return out[:length]


def _ratio(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _simplex(rng: random.Random) -> List[str]:
    # strictly positive weights keep the nonzero pattern, and so the work,
    # the same for every pool member
    w = [rng.randint(1, 9) for _ in range(STATES)]
    s = sum(w)
    return [_ratio(Fraction(v, s)) for v in w]


def _rng(workload: str, index: int, part: str) -> random.Random:
    return random.Random("perfbench-input/%s/%d/%s" % (workload, index, part))


def _dump(doc: object) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


def model_bytes(workload: str, index: int) -> bytes:
    rng = _rng(workload, index, "model")
    names = [chr(ord("a") + i) for i in range(STATES)]
    doc = {
        "states": [names] * (HORIZON + 1),
        "eta0": _simplex(rng),
        "M": [[_simplex(rng) for _ in range(STATES)]
              for _ in range(HORIZON)],
        "G": [[_ratio(Fraction(rng.randint(1, 8), rng.randint(1, 4)))
               for _ in range(STATES)] for _ in range(HORIZON + 1)],
        "field": "rational",
    }
    return _dump(doc)


def function_bytes(workload: str, index: int) -> bytes:
    rng = _rng(workload, index, "function")
    values = [_ratio(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                              rng.randint(1, 4)))
              for _ in range(STATES ** len(FUNCTION_LEVELS))]
    return _dump({"levels": FUNCTION_LEVELS, "values": values})


def input_files(workload: str, index: int) -> Dict[str, bytes]:
    """Relative path -> bytes of every input file one request reads."""
    files: Dict[str, bytes] = {}
    if uses_model(workload):
        files[MODEL_PATH] = model_bytes(workload, index)
    if uses_function(workload):
        files[FUNCTION_PATH] = function_bytes(workload, index)
    return files


_VERSION_FIELD = re.compile(rb'\n *"version": "[^"\n]*",?')


def output_digest(data: Optional[bytes]) -> Optional[str]:
    """SHA-256 of an output file with the toolkit version blanked out.

    Everything else, rational strings and manifest included, must stay
    byte-identical; the version string is release metadata, not a result.
    """
    if data is None:
        return None
    return hashlib.sha256(_VERSION_FIELD.sub(b"", data)).hexdigest()
