"""Per-layer spans and counters for a traced request, and the cProfile share
of ``Fraction`` arithmetic for a profiled one.

A Tracer wraps each layer's public functions and methods at every name
their callers look them up by: the defining module, every ``fkforest``
module that imported the name, and the class for methods.  Each call
records a span (group, start, end, parent, request id) in memory; the
spans are summarised when the request ends.  A target that no longer
exists is listed as absent instead of failing the request, and the
calls of every group are counted, so that a layer that is absent or did
not run can be told from one that measured zero.

Group times are inclusive: a call nested inside another call of the same
group is not counted twice.  Layer self time is span time minus the time
of the span's direct child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# group -> (layer, targets); a target is "module:function" or
# "module:Class.method"
GROUPS: Dict[str, Tuple[str, List[str]]] = {
    "forest.enum": ("forest", [
        "fkforest.forest:enumerate_orbits",
        "fkforest.forest:enumerate_forests"]),
    "colored_forest.enum": ("colored_forest", [
        "fkforest.colored_forest:enumerate_colored_orbits",
        "fkforest.colored_forest:enumerate_colored_forests"]),
    "genfunc.count": ("genfunc", [
        "fkforest.genfunc:count_forests"]),
    "fk_core.delta": ("fk_core", [
        "fkforest.fk_core:delta_forest",
        "fkforest.fk_core:delta_colored"]),
    "fk_core.pushforward": ("fk_core", [
        "fkforest.fk_core:SignedMeasure.pushforward"]),
    "fk_core.transport": ("fk_core", [
        "fkforest.fk_core:SignedMeasure.transport_block"]),
    "fk_core.symmetrize": ("fk_core", [
        "fkforest.fk_core:SignedMeasure.symmetrize_blocks"]),
    "fk_core.scale_add": ("fk_core", [
        "fkforest.fk_core:SignedMeasure.scale",
        "fkforest.fk_core:SignedMeasure.__add__"]),
    "fk_core.pair": ("fk_core", [
        "fkforest.fk_core:SignedMeasure.pair"]),
    "particle.oracle": ("particle", [
        "fkforest.particle:exact_QN_oracle",
        "fkforest.particle:exact_QN_dot_oracle",
        "fkforest.particle:exact_PN_oracle",
        "fkforest.particle:exact_eta_tensor_oracle",
        "fkforest.particle:exact_EN_oracle"]),
    "expansion.api": ("expansion", [
        "fkforest.expansion:exact_QN",
        "fkforest.expansion:derivative_Q",
        "fkforest.expansion:path_exact_QN",
        "fkforest.expansion:path_derivative_Q",
        "fkforest.expansion:expansion_report_Q",
        "fkforest.expansion:expansion_report_path_Q",
        "fkforest.expansion:expansion_report_P",
        "fkforest.expansion:ExpansionReport.to_jsonable"]),
    "expansion.check": ("expansion", [
        "fkforest.expansion:ExpansionReport.check"]),
    "models.load": ("models", [
        "fkforest.models:load_model"]),
    "cli": ("cli", [
        "fkforest.cli:main"]),
}

# generator whose items are counted, not timed: one item per
# configuration path the oracle visits; its calls count as the calls of
# PATH_GROUP
PATH_GROUP = "particle.paths"
PATH_COUNTER = "fkforest.particle:config_paths"


def group_targets(group: str) -> List[str]:
    return [PATH_COUNTER] if group == PATH_GROUP else GROUPS[group][1]


def _resolve(target: str) -> Tuple[object, str, Optional[object]]:
    """(owner, attribute, current value or None when absent)."""
    mod_name, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None, qual, None
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, parts[-1], None
    return owner, parts[-1], owner.__dict__.get(parts[-1])


def _bindings(target: str) -> List[Tuple[object, str, object]]:
    """Every (owner, name, original) through which callers reach target."""
    owner, name, original = _resolve(target)
    if original is None:
        return []
    found = [(owner, name, original)]
    if isinstance(owner, type):
        return found
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not mod_name.startswith("fkforest"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr, original))
    return found


class Tracer:
    """Spans and counters of one request, kept in memory.

    install() patches the program for the rest of the process, which is
    one forked request child.
    """

    def __init__(self, request_id: int):
        self.request_id = request_id
        # (group, start, end, parent index, request id)
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.absent: List[str] = []
        self.paths = 0
        self.path_walks = 0
        self.classes: Dict[str, list] = {"forest.enum": [],
                                         "colored_forest.enum": []}
        self.entries = 0
        self.nonzero = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for group, (_, targets) in GROUPS.items():
            for target in targets:
                binds = _bindings(target)
                if not binds:
                    self.absent.append(target)
                wrapper = self._wrap(group, binds[0][2]) if binds else None
                for owner, name, _ in binds:
                    setattr(owner, name, wrapper)
        binds = _bindings(PATH_COUNTER)
        if not binds:
            self.absent.append(PATH_COUNTER)
        else:
            counted = self._count_items(binds[0][2])
            for owner, name, _ in binds:
                setattr(owner, name, counted)

    def _wrap(self, group: str, fn: Callable) -> Callable:
        spans, stack, rid = self.spans, self.stack, self.request_id
        clock = time.perf_counter
        on_result = self._result_hooks().get(group)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [group, clock(), 0.0, parent, rid]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None and not self._nested_in(group, parent):
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_items(self, gen_fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.path_walks += 1
            for item in gen_fn(*args, **kwargs):
                self.paths += 1
                yield item
        return counted

    def _nested_in(self, group: str, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == group:
                return True
            parent = self.spans[parent][3]
        return False

    def _result_hooks(self) -> Dict[str, Callable]:
        def classes(group):
            def hook(result):
                # enumerate_*_orbits returns (class, size) pairs
                self.classes[group].extend(
                    item[0] if isinstance(item, tuple) else item
                    for item in result)
            return hook

        def entries(measure):
            data = measure.data
            self.entries += len(data)
            self.nonzero += sum(1 for v in data if v)

        return {"forest.enum": classes("forest.enum"),
                "colored_forest.enum": classes("colored_forest.enum"),
                "fk_core.delta": entries}

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        groups = {g: {"time": 0.0, "calls": 0} for g in GROUPS}
        layer_self = {layer: 0.0 for layer, _ in GROUPS.values()}
        child_time = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (group, start, end, parent, _) in enumerate(self.spans):
            layer_self[GROUPS[group][0]] += end - start - child_time[i]
            if not self._nested_in(group, parent):
                groups[group]["time"] += end - start
                groups[group]["calls"] += 1
        return {
            "groups": groups,
            "layer_self": layer_self,
            "classes": {g: [len(v), len(set(v))]
                        for g, v in self.classes.items()},
            "entries": self.entries,
            "nonzero": self.nonzero,
            "paths": self.paths,
            "path_walks": self.path_walks,
            "spans": len(self.spans),
            "absent": self.absent,
        }


def fractions_share(profiler) -> float:
    """Share of profiled self time spent inside the fractions module."""
    import fractions
    import pstats

    stats = pstats.Stats(profiler).stats
    total = sum(row[2] for row in stats.values())
    inside = sum(row[2] for (path, _, _), row in stats.items()
                 if path == fractions.__file__)
    return inside / total if total else 0.0
