"""Per-layer trace of one benchmark case, recorded from outside the program.

`Tracer.install()` replaces the named public functions of each apcong module
with timing wrappers, in every apcong module that binds them (a
`from .matgrp import close_group` makes a second binding that must be
patched too).  It is meant for a forked process that runs one case and then
exits, so the untraced cases always run unmodified code.

Metric names follow `<module>.<function>.<stat>`: `.calls` counts calls and
`.self_s` is inclusive time minus the time spent in nested wrapped calls, so
the self times of one case add up to the time of its outermost call.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

TIMED = {
    "matgrp": ("close_group", "commutator_subgroup", "cosets", "projectivize",
               "group_from_json", "enumerate_subgroups"),
    "classify": ("classify_group",),
    "abelian": ("analyze_group", "theorem_crosscheck", "coset_traces", "density_c",
                "crosscheck_all_subgroups"),
    "ffield": ("make_field",),
    "eigendata": ("delta_coeffs", "ap_point_count", "build_dataset",
                  "quadform_represents"),
    "discover": ("discover_class", "best_modulus", "legendre_fit",
                 "delta_partition_check", "verify_fixture_tables", "synthetic_model",
                 "sample_dataset", "closed_loop_check"),
    "cli": ("main",),
}

# stats beyond .calls and .self_s: name -> unit
EXTRA = {
    "matgrp.close_group.elements": "count",
    "matgrp.mat_mul.calls": "count",
    "classify.reference_builds": "count",
    "eigendata.delta_coeffs.terms": "count",
    "eigendata.ap_point_count.distinct_ratio": "ratio",
    "eigendata.build_dataset.samples": "count",
    "discover.discover_class.insufficient": "count",
    "discover.sample_dataset.samples": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for mod, names in TIMED.items():
        for name in names:
            out[f"{mod}.{name}.calls"] = "count"
            out[f"{mod}.{name}.self_s"] = "s"
    out.update(EXTRA)
    return out


class Tracer:
    """Call counts, self times and size counters for one traced case."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: Counter = Counter()
        self._stack: list[float] = []
        self._ap_pairs: set = set()

    def _hooks(self):
        # stat updates run after the wrapped call returns or raises
        insufficient = sys.modules["apcong.discover"].InsufficientDataError
        extra, pairs = self.extra, self._ap_pairs

        def close_group(args, kwargs, result, exc):
            if result is not None:
                extra["matgrp.close_group.elements"] += result.order

        def delta_coeffs(args, kwargs, result, exc):
            extra["eigendata.delta_coeffs.terms"] += args[0] if args else kwargs["T"]

        def ap_point_count(args, kwargs, result, exc):
            pairs.add((args[0].label, args[1]))

        def build_dataset(args, kwargs, result, exc):
            if result is not None:
                extra["eigendata.build_dataset.samples"] += len(result)

        def discover_class(args, kwargs, result, exc):
            if isinstance(exc, insufficient):
                extra["discover.discover_class.insufficient"] += 1

        def sample_dataset(args, kwargs, result, exc):
            if result is not None:
                extra["discover.sample_dataset.samples"] += len(result)

        return {
            "matgrp.close_group": close_group,
            "eigendata.delta_coeffs": delta_coeffs,
            "eigendata.ap_point_count": ap_point_count,
            "eigendata.build_dataset": build_dataset,
            "discover.discover_class": discover_class,
            "discover.sample_dataset": sample_dataset,
        }

    def _timed(self, name, fn, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def leave(t0, args, kwargs, result, exc):
            dt = perf_counter() - t0
            calls[name] += 1
            self_s[name] += dt - stack.pop()
            if stack:
                stack[-1] += dt
            if hook is not None:
                hook(args, kwargs, result, exc)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(t0, args, kwargs, None, exc)
                raise
            leave(t0, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        extra = self.extra

        def wrapper(*args, **kwargs):
            extra[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every named function that exists; a missing one reports 0."""
        import apcong

        modules = [apcong] + [
            importlib.import_module(f"apcong.{info.name}")
            for info in pkgutil.iter_modules(apcong.__path__)
        ]
        hooks = self._hooks()
        replace = {}
        for mod, names in TIMED.items():
            m = sys.modules[f"apcong.{mod}"]
            for fname in names:
                fn = getattr(m, fname, None)
                if fn is None:
                    continue
                key = f"{mod}.{fname}"
                replace[id(fn)] = (fn, self._timed(key, fn, hooks.get(key)))
        for m in modules:
            for attr, val in list(vars(m).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(m, attr, hit[1])
        # reference GL2/SL2 builds are the calls made through classify's bindings
        classify = sys.modules["apcong.classify"]
        for attr in ("gl2", "sl2"):
            if hasattr(classify, attr):
                setattr(classify, attr, self._counted("classify.reference_builds",
                                                      getattr(classify, attr)))
        Mat2 = getattr(sys.modules["apcong.matgrp"], "Mat2", None)
        if Mat2 is not None:
            Mat2.__mul__ = self._counted("matgrp.mat_mul.calls", Mat2.__mul__)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, unit in metric_units().items():
            if name.endswith(".calls") and name not in EXTRA:
                out[name] = self.calls[name.removesuffix(".calls")]
            elif name.endswith(".self_s"):
                out[name] = self.self_s.get(name.removesuffix(".self_s"), 0.0)
            elif name == "eigendata.ap_point_count.distinct_ratio":
                out[name] = len(self._ap_pairs)  # divided by calls when merged
            else:
                out[name] = self.extra[name]
        return out


def merge(per_case: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-case metrics over the cases of a workload; ratios are recomputed."""
    total: dict[str, float] = defaultdict(float)
    for m in per_case:
        for k, v in m.items():
            total[k] += v
    key = "eigendata.ap_point_count.distinct_ratio"
    calls = total["eigendata.ap_point_count.calls"]
    total[key] = total[key] / calls if calls else 0.0
    return dict(total)
