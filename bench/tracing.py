"""Per-layer tracing of bosonorder from outside the package.

:class:`Tracer` replaces the named functions and methods by wrappers at every
name they are bound to in the loaded ``bosonorder.*`` modules and classes,
and puts the originals back on :meth:`Tracer.uninstall`.  A span wrapper
records (name, op id, parent span, start, end) in memory; a counter wrapper
only counts calls, for the scalar operations that run millions of times.
A layer's self time is the total of its spans minus the spans directly
below them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: (layer metric prefix, module, qualified name) of every spanned callable.
SPANS = (
    ("series.revert", "bosonorder.series", "Series.revert"),
    ("series.compose", "bosonorder.series", "Series.compose"),
    ("series.mul", "bosonorder.series", "Series.__mul__"),
    ("series.reciprocal", "bosonorder.series", "Series.reciprocal"),
    ("series.pow_rational", "bosonorder.series", "Series.pow_rational"),
    ("series.exp", "bosonorder.series", "Series.exp"),
    ("series.log", "bosonorder.series", "Series.log"),
    ("riordan.group_inverse", "bosonorder.riordan", "group_inverse"),
    ("riordan.pair_to_egf", "bosonorder.riordan", "pair_to_egf"),
    ("two_point.two_point_pair", "bosonorder.two_point", "two_point_pair"),
    ("hsu_shiue.hs_triangle_rec", "bosonorder.hsu_shiue", "hs_triangle_rec"),
    ("hsu_shiue.hs_pair", "bosonorder.hsu_shiue", "hs_pair"),
    ("ordering.s_ordered_symbol", "bosonorder.ordering", "s_ordered_symbol"),
    ("ordering.power_symbol", "bosonorder.ordering", "power_symbol"),
    ("weyl.normal_order", "bosonorder.weyl", "normal_order"),
    ("weyl.anti_normal_order", "bosonorder.weyl", "anti_normal_order"),
    ("weyl.heat_propagate", "bosonorder.weyl", "ClassicalPoly.heat_propagate"),
    ("cli.main", "bosonorder.cli", "main"),
)

#: Counted (not spanned) callables.
COUNTERS = (
    ("scalars.spoly_mul", "bosonorder.scalars", "SPoly.__mul__"),
    ("scalars.spoly_add", "bosonorder.scalars", "SPoly.__add__"),
)


def _resolve(module: str, qualname: str):
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return obj


def _bindings(target):
    """Every (namespace owner, attribute) in bosonorder bound to ``target``:
    module globals and class attributes alike."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "bosonorder" and not name.startswith("bosonorder."):
            continue
        for attr, val in vars(mod).items():
            if val is target:
                found.append((mod, attr))
            elif isinstance(val, type) and val.__module__ == name:
                found.extend((val, a) for a, v in vars(val).items()
                             if v is target)
    return found


class Tracer:
    """Spans and counters for one traced run; ``op_id`` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._saved: list = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, self.op_id, parent, t0, t1)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        for make, table in ((self._span_wrapper, SPANS),
                            (self._count_wrapper, COUNTERS)):
            for name, module, qualname in table:
                original = _resolve(module, qualname)
                wrapper = make(name, original)
                for owner, attr in _bindings(original):
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self, scale: dict) -> dict:
        """{layer: {"calls", "total_s", "self_s"}} for every spanned layer
        (zero when never called), plus {"calls"} for every counter and the
        number of compose spans opened directly by a revert span.

        ``scale`` maps an op id to the factor applied to its spans' times.
        """
        child_time = defaultdict(float)
        for name, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name, _, _ in SPANS}
        recompose = 0
        for idx, (name, op_id, parent, t0, t1) in enumerate(self.spans):
            factor = scale[op_id]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += (t1 - t0) * factor
            rec["self_s"] += (t1 - t0 - child_time[idx]) * factor
            if (name == "series.compose" and parent >= 0
                    and self.spans[parent][0] == "series.revert"):
                recompose += 1
        for name, _, _ in COUNTERS:
            out[name] = {"calls": self.counts[name]}
        out["series.revert"]["compose_calls"] = recompose
        return out
