"""Spans and counters around hopfkit's layers, installed from outside the package.

Nothing under ``src/`` knows about tracing.  :func:`install` rebinds public
names where their callers look them up: a module-level function is replaced in
every ``hopfkit.*`` namespace that holds it (so ``factor_rational`` is caught
both in ``hopfkit.factor`` and in ``hopfkit.wedderburn``), methods are replaced
on their class, and the ``Pipeline`` stage properties are replaced by cached
properties that open a span, tagged ``pipeline.dual.*`` on the dual pipeline.

A span is ``[id, parent id, name, op id, start, end]``; spans are kept in
memory and summarised (or dumped) when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

Span = list  # [id, parent, name, op, start, end]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[Span] = []
        self._dual_pipelines: set[int] = set()
        # per-op distinctness trackers for the useful-work ratios; the objects
        # stay referenced until the op ends so their ids cannot be reused
        self._integral_algebras: dict[int, object] = {}
        self._characters: dict[tuple, object] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)

    # -- spans -----------------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, self.op, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def begin_op(self, op_id: str) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.counts["integrals.distinct_algebras"] += len(self._integral_algebras)
        self.counts["characters.distinct_characters"] += len(self._characters)
        self._dual_pipelines.clear()
        self._integral_algebras.clear()
        self._characters.clear()
        self.op = None

    def _saw_integrals(self, args, kwargs, result) -> None:
        H = args[0]
        self._integral_algebras.setdefault(id(H), H)

    def _saw_character(self, args, kwargs, result) -> None:
        chi, H = args[0], args[1]
        self._characters.setdefault((id(H), tuple((c.order, c.coords) for c in chi)), H)

    # -- installation -------------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap every traced boundary; returns a function that undoes it."""
        import hopfkit.builders
        import hopfkit.characters
        import hopfkit.factor
        import hopfkit.hopf
        import hopfkit.integrals
        import hopfkit.linalg
        import hopfkit.pipeline
        import hopfkit.polys
        import hopfkit.theorems
        import hopfkit.wedderburn

        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "hopfkit" or n.startswith("hopfkit.")]

        def rebind_function(name, owner, attr, after=None):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)

        def rebind_method(name, cls, attr, after=None):
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, after))

        tr = self
        for name, owner, attr, after in (
            ("factor.rational", hopfkit.factor, "factor_rational", _note_degree(tr, "factor.rational_max_degree")),
            ("factor.cyclotomic", hopfkit.factor, "factor_over_cyclotomic", None),
            ("wedderburn.primitive_idempotents", hopfkit.wedderburn, "primitive_idempotents", _count(tr, "wedderburn.split_accepted")),
            ("wedderburn.center", hopfkit.wedderburn, "center", _note_len(tr, "wedderburn.center_dim")),
            ("wedderburn.block_degrees", hopfkit.wedderburn, "block_degrees", None),
            # one call per splitting-element draw
            ("wedderburn.split_draw", hopfkit.wedderburn, "_min_poly_on_center", None),
            ("hopf.convolve", hopfkit.hopf, "convolve", None),
            ("hopf.check_axioms", hopfkit.hopf, "check_axioms", None),
            ("hopf.dualize", hopfkit.hopf, "dualize", None),
            ("hopf.parse", hopfkit.hopf, "parse_hopf", _add_len(tr, "hopf.parse_bytes", arg=True)),
            ("hopf.format", hopfkit.hopf, "format_hopf", _add_len(tr, "hopf.format_bytes", arg=False)),
            ("linalg.kernel_basis", hopfkit.linalg, "kernel_basis", _add_cells(tr)),
            ("integrals.compute", hopfkit.integrals, "compute_integrals", tr._saw_integrals),
            ("integrals.report", hopfkit.integrals, "integrals_report", None),
            ("characters.irreducible", hopfkit.characters, "irreducible_characters", None),
            ("characters.fusion_ring", hopfkit.characters, "fusion_ring", None),
            ("characters.is_central", hopfkit.characters, "is_central_character", tr._saw_character),
            ("theorems.lemma1", hopfkit.theorems, "verify_lemma1", None),
            ("theorems.corollary", hopfkit.theorems, "verify_corollary", None),
            ("theorems.proposition", hopfkit.theorems, "verify_proposition", None),
            ("theorems.section4", hopfkit.theorems, "verify_section4", None),
            ("theorems.kaplansky", hopfkit.theorems, "kaplansky_report", None),
            ("theorems.central-fusion", hopfkit.theorems, "explore_central_fusion", None),
            ("builders.group_algebra", hopfkit.builders, "group_algebra", None),
            ("builders.function_algebra", hopfkit.builders, "function_algebra", None),
            ("builders.drinfeld_double", hopfkit.builders, "drinfeld_double", None),
            ("builders.tensor_product", hopfkit.builders, "tensor_product", None),
        ):
            rebind_function(name, owner, attr, after)

        for name, cls, attr in (
            ("hopf.multiply", hopfkit.hopf.HopfData, "multiply"),
            ("linalg.dependency_add", hopfkit.linalg.IncrementalDependency, "add"),
            ("linalg.solver_prepare", hopfkit.linalg.PreparedSolver, "__init__"),
            ("linalg.solver_decompose", hopfkit.linalg.PreparedSolver, "decompose"),
            ("polys.is_squarefree", hopfkit.polys.Poly, "is_squarefree"),
        ):
            rebind_method(name, cls, attr)

        pipeline_cls = hopfkit.pipeline.Pipeline
        for stage in ("axioms", "integrals", "blocks", "table", "fusion", "dual"):
            undo.append((pipeline_cls, stage, pipeline_cls.__dict__[stage]))
            setattr(pipeline_cls, stage, self._stage(pipeline_cls, stage))

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def _wrap(self, name: str, fn: Callable, after) -> Callable:
        call = self.call

        if after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = call(name, fn, args, kwargs)
                after(args, kwargs, result)
                return result
        return traced

    def _stage(self, cls, stage: str) -> functools.cached_property:
        compute = cls.__dict__[stage].func
        dual_pipelines = self._dual_pipelines

        if stage == "dual":
            # the dual pipeline is tagged, not timed: its cost is hopf.dualize
            def cached(pipe):
                dual = compute(pipe)
                dual_pipelines.add(id(dual))
                return dual
        else:
            def cached(pipe):
                side = "pipeline.dual." if id(pipe) in dual_pipelines else "pipeline."
                return self.call(side + stage, compute, (pipe,), {})

        prop = functools.cached_property(cached)
        prop.__set_name__(cls, stage)
        return prop


def _count(tr: Tracer, key: str):
    def after(args, kwargs, result):
        tr.counts[key] += 1
    return after


def _note_degree(tr: Tracer, key: str):
    def after(args, kwargs, result):
        tr.maxima[key] = max(tr.maxima[key], args[0].degree)
    return after


def _note_len(tr: Tracer, key: str):
    def after(args, kwargs, result):
        tr.maxima[key] = max(tr.maxima[key], len(result))
    return after


def _add_len(tr: Tracer, key: str, arg: bool):
    def after(args, kwargs, result):
        tr.counts[key] += len((args[0] if arg else result).encode())
    return after


def _add_cells(tr: Tracer):
    def after(args, kwargs, result):
        tr.counts["linalg.kernel_cells"] += args[0].rows * args[0].cols
    return after


# -- summaries -------------------------------------------------------------------


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds of the outermost calls (a call
    nested in a call of the same name is not counted twice), and self seconds
    (duration minus the time covered by child spans)."""
    children_time = [0.0] * len(spans)
    names_above: list[frozenset] = [frozenset()] * len(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    for sid, parent, name, _op, start, end in spans:
        dur = end - start
        if parent >= 0:
            children_time[parent] += dur
            above = names_above[parent] | {spans[parent][2]}
            names_above[sid] = above
        else:
            above = frozenset()
        row = out[name]
        row["calls"] += 1
        if name not in above:
            row["inclusive_s"] += dur
    for sid, _parent, name, _op, start, end in spans:
        out[name]["self_s"] += (end - start) - children_time[sid]
    return dict(out)


# span name -> the per-layer metrics read from it: `<name>_calls` and/or `<name>_s`
_TIMED = {
    "factor.rational": ("calls", "s"),
    "factor.cyclotomic": ("calls", "s"),
    "polys.is_squarefree": ("calls", "s"),
    "wedderburn.primitive_idempotents": ("s",),
    "wedderburn.center": ("s",),
    "wedderburn.block_degrees": ("s",),
    "hopf.multiply": ("calls", "s"),
    "hopf.convolve": ("calls", "s"),
    "hopf.check_axioms": ("s",),
    "hopf.dualize": ("s",),
    "hopf.parse": ("s",),
    "hopf.format": ("s",),
    "linalg.kernel_basis": ("calls", "s"),
    "linalg.dependency_add": ("calls", "s"),
    "linalg.solver_decompose": ("calls", "s"),
    "integrals.compute": ("calls", "s"),
    "characters.irreducible": ("s",),
    "characters.fusion_ring": ("s",),
    "characters.is_central": ("calls", "s"),
    "theorems.lemma1": ("s",),
    "theorems.corollary": ("s",),
    "theorems.proposition": ("s",),
    "theorems.section4": ("s",),
    "theorems.kaplansky": ("s",),
    "theorems.central-fusion": ("s",),
    "pipeline.axioms": ("s",),
    "pipeline.integrals": ("s",),
    "pipeline.blocks": ("s",),
    "pipeline.table": ("s",),
    "pipeline.fusion": ("s",),
    "pipeline.dual.blocks": ("s",),
    "pipeline.dual.table": ("s",),
    "builders.tensor_product": ("s",),
}


def _ratio(useful: float, attempts: float) -> float:
    # 0 when the layer was not called in the pass
    return useful / attempts if attempts else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``<span>_s`` is the inclusive
    time of the outermost calls, ``<span>_calls`` counts every call, and
    ``cli.self_s`` is the self time of the CLI entry point."""
    summary = summarize(tracer.spans)
    empty = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name, fields in _TIMED.items():
        row = summary.get(name, empty)
        if "calls" in fields:
            out[f"{name}_calls"] = row["calls"]
        out[f"{name}_s"] = row["inclusive_s"]
    counts, maxima = tracer.counts, tracer.maxima
    draws = summary.get("wedderburn.split_draw", empty)["calls"]
    out["factor.rational_max_degree"] = maxima["factor.rational_max_degree"]
    out["wedderburn.center_dim"] = maxima["wedderburn.center_dim"]
    out["wedderburn.split_draws"] = draws
    out["wedderburn.split_accept_ratio"] = _ratio(counts["wedderburn.split_accepted"], draws)
    out["hopf.parse_bytes"] = int(counts["hopf.parse_bytes"])
    out["hopf.format_bytes"] = int(counts["hopf.format_bytes"])
    out["linalg.kernel_cells"] = int(counts["linalg.kernel_cells"])
    out["integrals.compute_useful_ratio"] = _ratio(
        counts["integrals.distinct_algebras"], out["integrals.compute_calls"]
    )
    out["characters.is_central_useful_ratio"] = _ratio(
        counts["characters.distinct_characters"], out["characters.is_central_calls"]
    )
    out["cli.self_s"] = summary.get("cli.main", empty)["self_s"]
    return out
