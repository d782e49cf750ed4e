"""Outside-in span recorder for the traced benchmark run.

The recorder never edits the package: it replaces public callables by
module or class attribute with timing wrappers for the duration of a
`with recorder.installed():` block and puts the originals back afterwards.
Each wrapped call becomes one span (name, start, end, parent, run id); spans
stay in memory and are written out only when the benchmark run ends.  A few
tiny, very hot helpers (shape tables, Gauss rules) are only counted, not
spanned, so their wrapper does not distort the spans around them.

`layer_metrics` turns the spans of one workload call into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

# Span name -> the attributes it wraps, as (module, "attr" or "Class.attr").
# A callable that other modules imported by name is wrapped in each of them,
# because their calls look the name up in their own namespace.
SPANNED = {
    "elemmat.element_matrices": (("hpheat.assembly", "element_matrices"),),
    "assembly.build_dofmap": (
        ("hpheat.assembly", "build_dofmap"),
        ("hpheat.study", "build_dofmap"),
    ),
    "assembly.assemble": (("hpheat.scenario", "assemble"),),
    "assembly.apply_initial_conditions": (("hpheat.scenario", "apply_initial_conditions"),),
    "assembly.probe_row": (("hpheat.timeint", "probe_row"),),
    "assembly.load_average": (("hpheat.assembly", "SemiDiscreteSystem.load_average"),),
    "assembly.probe_evaluate": (("hpheat.assembly", "ProbeRow.evaluate"),),
    "timefun.average": (("hpheat.timefun", "TimeFunction.average"),),
    "timeint.integrate": (("hpheat.scenario", "integrate"),),
    "timeint.build_factorization": (("hpheat.timeint", "build_factorization"),),
    "timeint.dgbtrs": (("hpheat.timeint", "dgbtrs"),),
    "scenario.solve_transient": (
        ("hpheat.scenario", "solve_transient"),
        ("hpheat.study", "solve_transient"),
        ("hpheat.cli", "solve_transient"),
    ),
    "study.compute_reference": (
        ("hpheat.study", "compute_reference"),
        ("hpheat.cli", "compute_reference"),
    ),
    "study.run_sweep": (("hpheat.study", "run_sweep"), ("hpheat.cli", "run_sweep")),
    "study.history_error": (("hpheat.study", "history_error"),),
    "fdoracle.fd_solve": (("hpheat.fdoracle", "fd_solve"), ("hpheat.study", "fd_solve")),
    "fdoracle.splu": (("hpheat.fdoracle", "splu"),),
    "cli.parse_config": (("hpheat.cli", "parse_config"),),
    "cli.write_table": (("hpheat.cli", "write_table"),),
}

COUNTED = {
    "basis.shape_tables": (
        ("hpheat.basis", "ShapeSet.values"),
        ("hpheat.basis", "ShapeSet.derivatives"),
    ),
    "basis.gauss_rules": (
        ("hpheat.basis", "gauss_rule"),
        ("hpheat.elemmat", "gauss_rule"),
        ("hpheat.assembly", "gauss_rule"),
    ),
}

# Spans whose result (or arguments) carry sizes the computed counts need.
# Each function runs right after the wrapped call and must be cheap; the
# heavier arithmetic happens later, in `derived_counts`.
_CAPTURE = {
    "assembly.assemble": lambda args, kwargs, result: {"system": result},
    "timeint.integrate": lambda args, kwargs, result: {"steps": args[1].n_steps},
    "timeint.build_factorization": lambda args, kwargs, result: {"factorization": result},
    "cli.write_table": lambda args, kwargs, result: {
        "rows": len(args[0].rows),
        "bytes": Path(args[1]).stat().st_size,
    },
}


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    run: int
    attrs: dict | None = None


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class _TracedSolver:
    """Stands in for the SuperLU object fd_solve gets from `splu`, whose
    `solve` is a C method that cannot be wrapped in place."""

    def __init__(self, recorder: "Recorder", solver):
        self.solve = recorder.wrap("fdoracle.splu_solve", solver.solve)


class Recorder:
    """Collects the spans and counts of one workload call (run id `run`)
    made inside `installed()`."""

    def __init__(self, run: int = 0):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = run
        self._stack = [-1]

    def wrap(self, name: str, fn, capture=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, perf_counter_ns(), 0, stack[-1], self.run)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if capture is not None:
                span.attrs = capture(args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrapper_for(self, name: str, original):
        if name == "fdoracle.splu":
            return lambda *a, **k: _TracedSolver(self, original(*a, **k))
        if name in COUNTED:
            return self._count(name, original)
        return self.wrap(name, original, _CAPTURE.get(name))

    def finish(self) -> dict[str, float]:
        """Counts of the call, computed sizes included.  Drops the captured
        systems and factorizations so that only plain numbers stay in memory."""
        counts = {**self.counts, **derived_counts(self.spans)}
        for s in self.spans:
            if s.attrs is not None and s.name != "cli.write_table":
                s.attrs = None
        return counts

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable; restore the originals on exit."""
        saved = []
        wrappers = {}
        try:
            for name, targets in (*SPANNED.items(), *COUNTED.items()):
                for module_name, attr in targets:
                    owner, leaf = _resolve(module_name, attr)
                    original = owner.__dict__[leaf]
                    key = (name, id(original))
                    if key not in wrappers:
                        wrappers[key] = self._wrapper_for(name, original)
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, wrappers[key])
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def _band_step_cost(fact) -> tuple[int, int]:
    """Bytes read/written and flops of one step, computed from array sizes.

    One step is the CSR product with the explicit matrix, the row scaling,
    the banded forward/back substitution and the column scaling.  Cache
    behaviour is ignored, so these are computed, not measured, figures.
    """
    m = fact.m_expl
    vec = fact.dim * 8
    bytes_step = (
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        + fact.lu.nbytes + fact.ipiv.nbytes
        + fact.row_scale.nbytes + fact.col_scale.nbytes
        + 4 * vec
    )
    flops_step = 2 * m.nnz + 2 * fact.dim * (2 * fact.kl + fact.ku + 1) + 2 * fact.dim
    return int(bytes_step), int(flops_step)


def derived_counts(spans: list[Span]) -> dict[str, float]:
    """Problem sizes and computed per-step costs of one workload call."""
    unknowns = half_bw = nnz = lu_bytes = steps = 0
    weighted_bytes = weighted_flops = 0
    for i, s in enumerate(spans):
        if s.name == "assembly.assemble" and s.attrs:
            system = s.attrs["system"]
            unknowns += system.dim
            half_bw = max(half_bw, system.half_bandwidth)
            nnz += (abs(system.A) + abs(system.B)).nnz
        elif s.name == "timeint.integrate" and s.attrs:
            n = s.attrs["steps"]
            steps += n
            for child in spans[i + 1:]:
                if child.parent == i and child.name == "timeint.build_factorization":
                    fact = child.attrs["factorization"]
                    lu_bytes += fact.lu.nbytes
                    b, f = _band_step_cost(fact)
                    weighted_bytes += b * n
                    weighted_flops += f * n
                    break
    return {
        "assembly.unknowns": unknowns,
        "assembly.half_bandwidth": half_bw,
        "assembly.nnz": nnz,
        "timeint.lu_bytes": lu_bytes,
        "timeint.steps": steps,
        "timeint.bytes_per_step": weighted_bytes / steps if steps else 0,
        "timeint.flops_per_step": weighted_flops / steps if steps else 0,
    }


def _step_percentiles(spans: list[Span]) -> tuple[float, float]:
    """p50/p99 in microseconds of the gaps between successive dgbtrs starts
    under one parent, i.e. one time step each."""
    starts: dict[int, list[int]] = {}
    for s in spans:
        if s.name == "timeint.dgbtrs":
            starts.setdefault(s.parent, []).append(s.start)
    gaps = []
    for stamps in starts.values():
        gaps.extend((b - a) / 1e3 for a, b in zip(stamps, stamps[1:]))
    if len(gaps) < 2:
        return 0.0, 0.0
    cuts = statistics.quantiles(gaps, n=100)
    return statistics.median(gaps), cuts[98]


# Per-layer metric -> (statistic, span name); statistics are "calls", "total"
# (summed durations) and "self" (summed self times).
SPAN_METRICS = {
    "elemmat.element_matrices_calls": ("calls", "elemmat.element_matrices"),
    "elemmat.element_matrices_s": ("total", "elemmat.element_matrices"),
    "assembly.build_dofmap_s": ("total", "assembly.build_dofmap"),
    "assembly.assemble_self_s": ("self", "assembly.assemble"),
    "assembly.initial_conditions_s": ("total", "assembly.apply_initial_conditions"),
    "assembly.probe_row_s": ("total", "assembly.probe_row"),
    "assembly.load_average_calls": ("calls", "assembly.load_average"),
    "assembly.load_average_s": ("total", "assembly.load_average"),
    "assembly.probe_evaluate_calls": ("calls", "assembly.probe_evaluate"),
    "assembly.probe_evaluate_s": ("total", "assembly.probe_evaluate"),
    "timefun.average_calls": ("calls", "timefun.average"),
    "timefun.average_s": ("total", "timefun.average"),
    "timeint.factorization_s": ("total", "timeint.build_factorization"),
    "timeint.dgbtrs_calls": ("calls", "timeint.dgbtrs"),
    "timeint.dgbtrs_s": ("total", "timeint.dgbtrs"),
    "timeint.loop_self_s": ("self", "timeint.integrate"),
    "scenario.transients": ("calls", "scenario.solve_transient"),
    "scenario.solve_transient_s": ("total", "scenario.solve_transient"),
    "study.reference_s": ("total", "study.compute_reference"),
    "study.run_sweep_self_s": ("self", "study.run_sweep"),
    "study.history_error_s": ("total", "study.history_error"),
    "cli.parse_config_s": ("total", "cli.parse_config"),
    "cli.write_table_calls": ("calls", "cli.write_table"),
    "cli.write_table_s": ("total", "cli.write_table"),
    "fdoracle.fd_solve_s": ("total", "fdoracle.fd_solve"),
    "fdoracle.splu_solve_calls": ("calls", "fdoracle.splu_solve"),
    "fdoracle.splu_solve_s": ("total", "fdoracle.splu_solve"),
}


DERIVED = tuple(derived_counts([]))


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one workload call from its spans and the counts
    `Recorder.finish` returned."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for s, own_ns in zip(spans, selfs):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += own_ns
    by_stat = {"calls": calls, "total": total, "self": own}
    out: dict[str, float] = {}
    for metric, (stat, name) in SPAN_METRICS.items():
        value = by_stat[stat][name]
        out[metric] = value if stat == "calls" else value / 1e9
    for name in (*COUNTED, *DERIVED):
        out[name] = counts.get(name, 0)
    writes = [s.attrs for s in spans if s.name == "cli.write_table" and s.attrs]
    out["cli.rows_written"] = sum(w["rows"] for w in writes)
    out["cli.bytes_written"] = sum(w["bytes"] for w in writes)
    out["timeint.step_us_p50"], out["timeint.step_us_p99"] = _step_percentiles(spans)
    return out


def self_time_total(spans: list[Span]) -> float:
    """Sum of all span self times, in seconds."""
    return sum(self_times(spans)) / 1e9


def columns(spans: list[Span]) -> dict:
    """One call's spans as columns, times in ns from the call's first span."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0].start if spans else 0
    return {
        "run": spans[0].run if spans else None,
        "names": names,
        "name": [index[s.name] for s in spans],
        "start_ns": [s.start - t0 for s in spans],
        "end_ns": [s.end - t0 for s in spans],
        "parent": [s.parent for s in spans],
    }


def dump_spans(path: Path, spans: list[Span], counts: dict[str, float]) -> None:
    rows = [[s.name, s.start, s.end, s.parent, s.run, s.attrs] for s in spans]
    path.write_text(json.dumps({"spans": rows, "counts": counts}))


def load_spans(path: Path) -> tuple[list[Span], dict[str, float]]:
    data = json.loads(path.read_text())
    return [Span(*row) for row in data["spans"]], data["counts"]
