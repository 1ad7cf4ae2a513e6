"""Span tracing of the library, done from the benchmark's own files.

`Tracer.install` wraps every public function and method of the modules in
MODULES (plus HardyOperators.__init__ and RationalTestFunction.__call__)
and patches each wrapper into every twoweight module that imported the
name, so `cli` and `verify` calling `build_system` by name are seen too.
Each wrapped call records one span: name, start, end, parent span and
operation id, with the grid size M, the dimension k and the weight kind
where the arguments or result carry them.  Spans stay in memory; the caller
writes them out when the run ends.

A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "weights", "herglotz", "debranges", "hardy", "model", "verify")
DUNDERS = {"HardyOperators": ("__init__",), "RationalTestFunction": ("__call__",)}

# per-layer metric stem -> span names; each stem yields <stem>_s (outermost
# inclusive time), <stem>_self_s and <stem>_calls
GROUPS = {
    "cli.main": ("cli.main",),
    "weights.load_weight_spec": ("weights.load_weight_spec",),
    "weights.samples_on": ("weights.MatrixWeight.samples_on",),
    "weights.value_at": ("weights.MatrixWeight.value_at",),
    "weights.normalize": ("weights.normalize",),
    "herglotz.ring_values": ("herglotz.HerglotzEvaluator.ring_values",),
    "herglotz.psi": ("herglotz.HerglotzEvaluator.psi",),
    "herglotz.quadrature": ("herglotz.psi_quadrature", "herglotz.pair_kernel_quadrature"),
    "debranges.companion_weight": ("debranges.DeBrangesSystem.companion_weight",),
    "debranges.boundary_profile": ("debranges.DeBrangesSystem.boundary_profile",),
    "debranges.build_system": ("debranges.build_system",),
    "debranges.psi1": ("debranges.DeBrangesSystem.psi1",),
    "hardy.build": ("hardy.HardyOperators.__init__",),
    "hardy.project": ("hardy.HardyOperators.project",),
    "hardy.apply_x": ("hardy.HardyOperators.apply_x",),
    "hardy.project_quadrature": ("hardy.HardyOperators.project_quadrature",),
    "hardy.hilbert_quadrature": ("hardy.HardyOperators.hilbert_quadrature",),
    "hardy.gram_identity": ("hardy.HardyOperators.gram_identity_residual",),
    "hardy.contraction_ratios": ("hardy.HardyOperators.contraction_ratios",),
    "hardy.test_function": ("hardy.RationalTestFunction.__call__",),
    "model.build_model": ("model.build_model",),
    "model.psi_direct": ("model.psi_direct",),
    "model.spectral_nu1": ("model.spectral_nu1",),
    "verify.run_suite": ("verify.run_suite",),
    "verify.run_weight_checks": ("verify.run_weight_checks",),
    "verify.nondegeneracy_report": ("verify.nondegeneracy_report",),
    "verify.koosis_pipeline": ("verify.koosis_pipeline",),
}
ALIASES = {"cli.self_s": "cli.main_self_s",
           "hardy.test_function_evals": "hardy.test_function_calls"}
CHECK_FAMILIES = ("circle", "weights", "herglotz", "debranges", "hardy", "model", "verify")
DENSE = ("model.build_model", "model.psi_direct", "model.spectral_nu1")

# span record fields
ID, PARENT, OP, NAME, START, END, SELF, M, K, KIND, EXTRA = range(11)


class Tracer:
    """Installs span-recording wrappers around the library and removes them."""

    def __init__(self):
        self.mods = {name: importlib.import_module(f"twoweight.{name}") for name in MODULES}
        self.spans = []
        self.operation = None
        self._stack = []
        self._patches = []
        self._children = {}
        circle = importlib.import_module("twoweight.circle")
        weights, herglotz = self.mods["weights"], self.mods["herglotz"]
        debranges, hardy, model = self.mods["debranges"], self.mods["hardy"], self.mods["model"]
        # type -> (M, k, kind) read from an argument or result of that type
        self._describers = {
            circle.CircleGrid: lambda a: (a.size, None, None),
            weights.MatrixWeight: lambda a: (None, a.dim, a.kind),
            herglotz.HerglotzEvaluator: lambda a: (None, a.dim, None),
            debranges.DeBrangesSystem: lambda a: (None, a.dim, a.weight.kind),
            debranges.CompanionWeightResult: lambda a: (a.grid.size, None, None),
            hardy.HardyOperators: lambda a: (getattr(a, "grid", None) and a.grid.size,
                                             None, None),
            model.TruncatedModel: lambda a: (a.size, a.dim, None),
        }
        self._observers = {
            "debranges.DeBrangesSystem.companion_weight":
                lambda args, res: int(res.singular_flags.sum()),
            "verify.run_suite": _report_summary,
            "verify.run_weight_checks": _report_summary,
            "model.build_model": lambda args, res: res.u1.shape[0],
            "model.psi_direct": lambda args, res: args[0].u1.shape[0],
            "model.spectral_nu1": lambda args, res: args[0].u1.shape[0],
        }

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for short, mod in self.mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    replacements[value] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    self._patch_class(short, value)
        for name, mod in list(sys.modules.items()):
            if name == "twoweight" or name.startswith("twoweight."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in replacements:
                        self._set(mod, attr, value, replacements[value])

    def _patch_class(self, short: str, cls) -> None:
        extra = DUNDERS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, raw, self._wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, raw, type(raw)(self._wrap(name, raw.__func__)))

    def _set(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, spans, children = self._stack, self.spans, self._children
        describers, observer = self._describers, self._observers.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans) + len(stack), stack[-1][ID] if stack else None,
                    self.operation, name, 0.0, 0.0, 0.0, None, None, None, None]
            stack.append(span)
            children[span[ID]] = 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                duration = end - span[START]
                span[SELF] = duration - children.pop(span[ID])
                if stack:
                    children[stack[-1][ID]] += duration
                spans.append(span)
            for value in (*args, *kwargs.values(), result):
                describe = describers.get(type(value))
                if describe is not None:
                    for field, got in zip((M, K, KIND), describe(value)):
                        if got is not None:
                            span[field] = got
            if observer is not None:
                span[EXTRA] = observer(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


def _report_summary(args, report):
    families = defaultdict(float)
    for entry in report.entries:
        families[entry.name.split(".", 1)[0]] += entry.runtime
    return {"total": len(report.entries), "failed": len(report.failures()),
            "families": dict(families)}


def _outermost(spans, names):
    """Spans of the given names that have no ancestor of those names."""
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] not in names:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out.append(s)
    return out


def layer_metrics(spans, ladder_rungs: int) -> dict:
    """Per-layer totals of one traced pass (times in s, counts as numbers)."""
    out = {}
    for stem, names in GROUPS.items():
        mine = [s for s in spans if s[NAME] in names]
        out[f"{stem}_s"] = sum(s[END] - s[START] for s in _outermost(spans, set(names)))
        out[f"{stem}_self_s"] = sum(s[SELF] for s in mine)
        out[f"{stem}_calls"] = len(mine)
    for alias, key in ALIASES.items():
        out[alias] = out[key]

    companions = [s for s in spans if s[NAME] == GROUPS["debranges.companion_weight"][0]]
    out["debranges.batched_inverses"] = sum(ladder_rungs * s[M] for s in companions)
    out["debranges.flagged_nodes"] = sum(s[EXTRA] for s in companions)

    dense = [s[EXTRA] for s in spans if s[NAME] in DENSE]
    out["model.dense_n_max"] = max(dense, default=0)
    out["model.dense_flops"] = float(sum(n ** 3 for n in dense))

    reports = [s[EXTRA] for s in spans
               if s[NAME] in ("verify.run_suite", "verify.run_weight_checks")]
    out["verify.checks_total"] = sum(r["total"] for r in reports)
    out["verify.checks_failed"] = sum(r["failed"] for r in reports)
    for family in CHECK_FAMILIES:
        out[f"verify.family.{family}_s"] = sum(r["families"].get(family, 0.0)
                                               for r in reports)
    return out


def span_durations(spans, name: str, **attrs) -> list:
    """Durations of the spans called `name` whose attributes match."""
    fields = {"M": M, "k": K, "kind": KIND}
    return [s[END] - s[START] for s in spans if s[NAME] == name
            and all(s[fields[key]] == value for key, value in attrs.items())]


def self_time_total(spans) -> float:
    return sum(s[SELF] for s in spans)


def root_time_total(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def span_rows(spans):
    """Spans as dicts, ready for JSON."""
    keys = ("id", "parent", "op", "name", "start", "end", "self", "M", "k", "kind")
    return [dict(zip(keys, s[:EXTRA])) for s in spans]
