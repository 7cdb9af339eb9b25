"""Per-layer spans and counters for the benchmark, added from outside the package.

The layers are the modules of ``strata_limits``.  ``Tracer.install`` replaces
each public function of a layer at every module attribute that holds it (the
package calls its own functions through those attributes, e.g.
``pyramids.canonical_form``), and the ``__init__`` of the classes whose
construction does validation work.  ``uninstall`` puts the originals back, so
nothing under ``src/`` changes and untraced passes run the plain code.

A span records its self time: its duration minus the time covered by the
spans it caused.  Spans are folded into per-name totals as they close; the
totals are all the benchmark reports.

With ``timed=False`` only the guard functions are wrapped, and only counted,
so an untraced pass still shows when a check the program must run was
skipped.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

from strata_limits.stable_graphs import BudgetExceededError

PACKAGE = "strata_limits"
LAYERS = (
    "files",
    "groups",
    "orbifolds",
    "multicurves",
    "pyramids",
    "limit_graphs",
    "stable_graphs",
    "oracle",
    "cli",
)

# Constructors that check their input.  Value types (GroupElement, Word,
# OrbifoldSignature, the spec records) are built hundreds of thousands of
# times for a few microseconds each; a span on them would cost more than the
# work it measures.
CONSTRUCTORS = {
    "groups": ("GroupTable", "Subgroup"),
    "stable_graphs": ("StableGraph",),
}

# Counted in every pass, traced or not; see README.md, "Correctness checks
# and guards".
GUARDS = (
    "orbifolds.validate_action",
    "oracle.audit_graph",
    "limit_graphs.build_stratum_graph",
    "pyramids.enumerate_parameters",
)

# metric name -> (unit, how it is read from the totals); BENCHMARK.json says
# which way each is better.
LAYER_METRICS = {
    "stable_graphs.canonical_form_s": ("s", ("self", "stable_graphs.canonical_form")),
    "stable_graphs.canonical_form_calls": ("count", ("calls", "stable_graphs.canonical_form")),
    "stable_graphs.vertices": ("count", ("extra", "stable_graphs.vertices")),
    "stable_graphs.budget_exceeded": ("count", ("extra", "stable_graphs.budget_exceeded")),
    "stable_graphs.new_class_ratio": ("ratio", ("ratio", "stable_graphs.classes", "stable_graphs.canonical_form")),
    "stable_graphs.graph_init_s": ("s", ("self", "stable_graphs.StableGraph")),
    "groups.table_s": ("s", ("self", "groups.GroupTable", "groups.dihedral")),
    "groups.table_calls": ("count", ("calls", "groups.GroupTable")),
    "groups.closure_s": ("s", ("self", "groups.closure")),
    "groups.closure_calls": ("count", ("calls", "groups.closure")),
    "groups.closure_elems": ("count", ("extra", "groups.closure_elems")),
    "groups.subgroup_s": ("s", ("self", "groups.Subgroup")),
    "groups.left_cosets_s": ("s", ("self", "groups.left_cosets")),
    "orbifolds.validate_action_s": ("s", ("self", "orbifolds.validate_action")),
    "orbifolds.validate_action_calls": ("count", ("calls", "orbifolds.validate_action")),
    "orbifolds.evaluate_word_calls": ("count", ("calls", "orbifolds.evaluate_word")),
    "multicurves.validate_multicurve_s": ("s", ("self", "multicurves.validate_multicurve")),
    "multicurves.validate_multicurve_calls": ("count", ("calls", "multicurves.validate_multicurve")),
    "multicurves.image_subgroup_calls": (
        "count",
        ("calls", "multicurves.piece_image_subgroup", "multicurves.curve_image_subgroup"),
    ),
    "files.load_s": ("s", ("layer_self", "files")),
    "files.load_calls": ("count", ("calls", "files.load_action", "files.load_multicurve")),
    "pyramids.make_multicurve_s": ("s", ("self", "pyramids.make_multicurve")),
    "pyramids.jobs": ("count", ("extra", "pyramids.jobs")),
    "limit_graphs.build_s": ("s", ("self", "limit_graphs.build_stratum_graph")),
    "limit_graphs.build_calls": ("count", ("calls", "limit_graphs.build_stratum_graph")),
    "oracle.audit_s": ("s", ("self", "oracle.audit_graph", "oracle.components_by_bfs")),
    "oracle.audit_calls": ("count", ("calls", "oracle.audit_graph")),
    "oracle.audit_failed": ("count", ("extra", "oracle.audit_failed")),
    "cli.main_s": ("s", ("self", "cli.main")),
    "cli.stdout_bytes": ("count", ("extra", "cli.stdout_bytes")),
}


def _closure_hook(tracer, args, kwargs, result):
    tracer.extra["groups.closure_elems"] += result.order


def _canonical_form_hook(tracer, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    tracer.extra["stable_graphs.vertices"] += graph.vertex_count


def _audit_hook(tracer, args, kwargs, result):
    if not result.ok:
        tracer.extra["oracle.audit_failed"] += 1


def _jobs_hook(tracer, args, kwargs, result):
    tracer.extra["pyramids.jobs"] += len(result)


HOOKS = {
    "groups.closure": _closure_hook,
    "stable_graphs.canonical_form": _canonical_form_hook,
    "oracle.audit_graph": _audit_hook,
    "pyramids.enumerate_parameters": _jobs_hook,
}


def _public_functions(module):
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        is_function = inspect.isfunction(value) or hasattr(value, "cache_clear")
        if is_function and getattr(value, "__module__", None) == module.__name__:
            yield name, value


class Tracer:
    """Call counts, self times and extra counters, keyed by ``layer.name``."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        holders = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                if not self.timed and key not in GUARDS:
                    continue
                wrapper = self._wrap(key, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
            if not self.timed:
                continue
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, "__init__", self._wrap(f"{layer}.{cls_name}", cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, key: str, fn):
        calls, hook = self.calls, HOOKS.get(key)
        if not self.timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[key] += 1
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            return counted

        stack, self_s, extra = self._stack, self.self_s, self.extra
        counts_budget = key == "stable_graphs.canonical_form"

        def spanned(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                if counts_budget:
                    extra["stable_graphs.budget_exceeded"] += 1
                raise
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[key] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return spanned

    # -- reading ----------------------------------------------------------

    def layer_metric(self, name: str, passes: int) -> float:
        """One per-layer metric, per traced pass."""
        kind, *keys = LAYER_METRICS[name][1]
        if kind == "self":
            total = sum(self.self_s[k] for k in keys)
        elif kind == "layer_self":
            total = sum(v for k, v in self.self_s.items() if k.split(".")[0] == keys[0])
        elif kind == "calls":
            total = sum(self.calls[k] for k in keys)
        elif kind == "extra":
            total = self.extra[keys[0]]
        else:  # ratio of an extra counter to a call count, a share, not per pass
            denominator = self.calls[keys[1]]
            return self.extra[keys[0]] / denominator if denominator else 0.0
        return total / passes
