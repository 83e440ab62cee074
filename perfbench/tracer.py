"""Span tracing of bentkit's public functions, installed from outside `src/`.

`Tracer.install()` replaces each traced function with a wrapper, in its
defining module and in every bentkit module that imported it by name, and
each traced method on its class.  A span records
[name, start, end, parent index, job id, aggregated scalar time, own index,
owns scalars].  Spans stay in memory until `dump()`.

The scalar field operations (GF2k.mul/pow/inv/div0/trace) run millions of
times per job, so they are not spans: their calls are counted, and only the
outermost call of a nested chain (inv -> pow -> mul) is timed.  That time is
charged to the enclosing span, so span self time excludes it, except inside
field spans (GF2k construction), whose scalar work is their own self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, JOB, SCALAR_S, INDEX, OWNS_SCALARS = range(8)


def _wht_amounts(acc, args, kwargs, result) -> None:
    n = args[0].n
    acc["spectral.wht.points"] += 1 << n
    acc["spectral.wht.ops_computed"] += n << n
    # each of the n butterfly stages reads and writes every int64 once
    acc["spectral.wht.bytes_computed"] += 16 * (n << n)


def _from_support_amounts(acc, args, kwargs, result) -> None:
    acc["boolfun.from_support.points"] += result.weight()


def _from_hex_amounts(acc, args, kwargs, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    acc["boolfun.codec.bytes"] += len(text)


def _to_hex_amounts(acc, args, kwargs, result) -> None:
    acc["boolfun.codec.bytes"] += len(result)


def _values_amounts(acc, args, kwargs, result) -> None:
    acc["boolfun.codec.bytes"] += result.nbytes


def _census_amounts(acc, args, kwargs, result) -> None:
    acc["analysis.census.selections"] += result.total_selections
    acc["analysis.census.spectral_checked"] += result.spectral_checked


# (module, attribute or Class.method, span name, group, amounts hook)
SPANS = [
    ("field", "GF2k.__init__", "field.GF2k", "field.GF2k", None),
    ("field", "GF2k.gram_map", "field.gram_map", "field.gram_map", None),
    ("boolfun", "TruthTable.from_support", "boolfun.from_support", "boolfun.from_support", _from_support_amounts),
    ("boolfun", "TruthTable.from_hex", "boolfun.from_hex", "boolfun.codec", _from_hex_amounts),
    ("boolfun", "TruthTable.to_hex", "boolfun.to_hex", "boolfun.codec", _to_hex_amounts),
    ("boolfun", "TruthTable.values", "boolfun.values", "boolfun.codec", _values_amounts),
    ("boolfun", "mm_bent", "boolfun.mm_bent", "boolfun.family", None),
    ("boolfun", "mm_dual", "boolfun.mm_dual", "boolfun.family", None),
    ("boolfun", "symmetric_bent", "boolfun.symmetric_bent", "boolfun.family", None),
    ("spreads", "selection", "spreads.selection", "spreads.selection", None),
    ("spreads", "line_points", "spreads.line_points", "spreads.line_points", None),
    ("spreads", "ps_minus", "spreads.ps_minus", "spreads.construct", None),
    ("spreads", "ps_plus", "spreads.ps_plus", "spreads.construct", None),
    ("spreads", "psap_from_g", "spreads.psap_from_g", "spreads.construct", None),
    ("spectral", "wht", "spectral.wht", "spectral.wht", _wht_amounts),
    ("spectral", "dual", "spectral.dual", "spectral.derived", None),
    ("spectral", "rayleigh", "spectral.rayleigh", "spectral.derived", None),
    ("spectral", "dist_to_dual", "spectral.dist_to_dual", "spectral.derived", None),
    ("spectral", "is_bent", "spectral.is_bent", "spectral.derived", None),
    ("spectral", "duality_class", "spectral.duality_class", "spectral.derived", None),
    ("cli", "main", "cli.main", "cli.main", None),
]

SCALARS = ["mul", "pow", "inv", "div0", "trace"]

# Every other public function of the analysis layer is traced too, so that
# analysis.self.s covers the whole layer; these get their own groups.
ANALYSIS_GROUPS = {
    "metric_identity_check": "analysis.metric_identity_check",
    "dist_formula_ps_minus": "analysis.dist_formula",
    "dist_formula_ps_plus": "analysis.dist_formula",
    "dist_formula_general": "analysis.dist_formula",
    "nf_formula": "analysis.nf_formula",
}
ANALYSIS_AMOUNTS = {"census": _census_amounts}


class Tracer:
    def __init__(self, bentkit):
        self.bentkit = bentkit
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.job = -1
        self.depth = 0
        self.scalar_calls: dict[str, list[int]] = {}
        self.scalar_s = 0.0
        self.amounts: dict[str, float] = defaultdict(float)
        self.groups: dict[str, str] = {}
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _span(self, name: str, amounts, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        owns = name.startswith("field.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][INDEX] if stack else -1,
                   self.job, 0.0, len(spans), owns]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if amounts is not None:
                try:
                    amounts(self.amounts, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    # A changed signature or result type must not fail the job.
                    self.missing.add(f"amounts of {name}")
            return result

        return wrapper

    def _scalar(self, name: str, fn):
        count = self.scalar_calls.setdefault(name, [0])
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            if self.depth or (stack and stack[-1][OWNS_SCALARS]):
                return fn(*args, **kwargs)
            self.depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.depth = 0
                self.scalar_s += dt
                if stack:
                    stack[-1][SCALAR_S] += dt

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if n == "bentkit" or n.startswith("bentkit.")]

    def _patch_function(self, module, attr: str, wrapper_for) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        wrapper = wrapper_for(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper_for) -> None:
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            self.missing.add(f"{getattr(cls, '__name__', '?')}.{attr}")
            return
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_for(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_for(raw))

    def install(self) -> None:
        bk = self.bentkit
        for modname, path, name, group, amounts in SPANS:
            module = getattr(bk, modname, None)
            if module is None:
                self.missing.add(f"bentkit.{modname}")
                continue
            self.groups[name] = group
            wrap = functools.partial(self._span, name, amounts)
            if "." in path:
                clsname, attr = path.split(".")
                self._patch_method(getattr(module, clsname, None), attr, wrap)
            else:
                self._patch_function(module, path, wrap)
        for attr in SCALARS:
            self._patch_method(bk.field.GF2k, attr, functools.partial(self._scalar, f"field.{attr}"))
        analysis = bk.analysis
        for attr, fn in list(vars(analysis).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != analysis.__name__):
                continue
            name = f"analysis.{attr}"
            self.groups[name] = ANALYSIS_GROUPS.get(attr, "analysis.other")
            wrap = functools.partial(self._span, name, ANALYSIS_AMOUNTS.get(attr))
            self._patch_function(analysis, attr, wrap)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def cache_bytes(self) -> int:
        """Bytes of numpy arrays held in module-level dict caches of bentkit."""
        total = 0
        for mod in self._modules():
            for value in vars(mod).values():
                if isinstance(value, dict):
                    total += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
        return total

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for rec, covered in zip(spans, child):
            group = self.groups[rec[NAME]]
            own = rec[END] - rec[START] - covered - rec[SCALAR_S]
            calls[group] += 1
            self_s[group] += own
            layer_self[group.split(".")[0]] += own
        scalar = {k: v[0] for k, v in self.scalar_calls.items()}
        selections = self.amounts["analysis.census.selections"]
        checked = self.amounts["analysis.census.spectral_checked"]
        return {
            "field.GF2k.calls": calls["field.GF2k"],
            "field.GF2k.s": self_s["field.GF2k"],
            "field.mul.calls": scalar.get("field.mul", 0),
            "field.inv.calls": scalar.get("field.inv", 0),
            "field.scalar.s": self.scalar_s,
            "field.gram_map.calls": calls["field.gram_map"],
            "boolfun.from_support.calls": calls["boolfun.from_support"],
            "boolfun.from_support.points": self.amounts["boolfun.from_support.points"],
            "boolfun.from_support.s": self_s["boolfun.from_support"],
            "boolfun.codec.s": self_s["boolfun.codec"],
            "boolfun.codec.bytes": self.amounts["boolfun.codec.bytes"],
            "boolfun.family.s": self_s["boolfun.family"],
            "spreads.selection.calls": calls["spreads.selection"],
            "spreads.selection.s": self_s["spreads.selection"],
            "spreads.line_points.calls": calls["spreads.line_points"],
            "spreads.line_points.s": self_s["spreads.line_points"],
            "spreads.construct.calls": calls["spreads.construct"],
            "spreads.construct.s": self_s["spreads.construct"],
            "spectral.wht.calls": calls["spectral.wht"],
            "spectral.wht.s": self_s["spectral.wht"],
            "spectral.wht.points": self.amounts["spectral.wht.points"],
            "spectral.wht.ops_computed": self.amounts["spectral.wht.ops_computed"],
            "spectral.wht.bytes_computed": self.amounts["spectral.wht.bytes_computed"],
            "spectral.wht.per_request": calls["spectral.wht"] / jobs,
            "spectral.derived.s": self_s["spectral.derived"],
            "spectral.cache.bytes": self.cache_bytes(),
            "analysis.metric_identity_check.calls": calls["analysis.metric_identity_check"],
            "analysis.metric_identity_check.s": self_s["analysis.metric_identity_check"],
            "analysis.dist_formula.calls": calls["analysis.dist_formula"],
            "analysis.dist_formula.s": self_s["analysis.dist_formula"],
            "analysis.nf_formula.calls": calls["analysis.nf_formula"],
            "analysis.nf_formula.s": self_s["analysis.nf_formula"],
            "analysis.census.selections": selections,
            "analysis.census.spectral_checked": checked,
            "analysis.census.spot_ratio": checked / selections if selections else 0.0,
            "analysis.self.s": layer_self["analysis"],
            "cli.main.calls": calls["cli.main"],
            "cli.self.s": self_s["cli.main"],
        }

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, job] row
        each, parent being a row index or -1; plus the scalar call counts."""
        rows = [rec[:JOB + 1] for rec in self.spans]
        path.write_text(json.dumps({"spans": rows, "scalar_calls": {
            k: v[0] for k, v in self.scalar_calls.items()}}))
