"""Command line front end: config files in, plot-ready tables out.

The config format is a flat key = value document.  Keys carry their units as
suffixes (relaxation_time_s, kappa2_m2, ...) because unit confusion is the
dominant failure mode in thermal benchmarks.  Unknown keys are rejected, and
the physical coefficients of the conduction law must be stated explicitly:
there is no silent default for any of density, specific heat, conductivity,
relaxation time, or the nonlocal parameter.

Four modes: `transient` writes probe histories, `h_sweep` and `p_sweep`
write error-versus-DOF tables against an overkill reference, `oracle_check`
writes side-by-side element/finite-difference histories with their
discrepancy.  Output files are named <mode>_<probe>_<model>.dat and all
reals carry 17 significant digits, so the tables round-trip exactly.

Every real is written as Python's '%.16e' % x writes it, byte for byte: 17
significant digits rounded half to even, a sign only where the sign bit is
set (so -0.0 keeps it), an exponent of at least two digits, and nan, inf
and -inf as Python prints them.  write_table builds the text of a block of
rows in whole-array passes.  Its fast path takes the decimal exponent from
log10, scales |x| by a power of ten held as a double-double with Dekker's
exact product, and rounds to the 17-digit integer; a cell that it cannot
decide (within a stated margin of a rounding tie, off by one in its
exponent, rounding up to 10**17, outside its exponent window, zero or not
finite) goes through '%.16e' itself.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .assembly import Field
from .basis import MAX_DEGREE
from .materials import MaterialParams, ModelKind
from .scenario import (
    SUGGESTED_CONDUCTIVITY,
    PulseParams,
    benchmark_scenario,
    dimensionless_temperature,
    solve_transient,
    standard_probes,
)
from .study import (
    ORACLE_CELLS,
    REFERENCE_DEGREE,
    REFERENCE_ELEMENTS,
    ReferenceSolution,
    SweepSpec,
    benchmark_sweep_families,
    compute_reference,
    fd_oracle,
    history_error,
    run_sweep,
)

# The sweep modes and the kind of sweep each runs.
_SWEEPS = {"h_sweep": "h", "p_sweep": "p"}
MODES = ("transient", *_SWEEPS, "oracle_check")
MODELS = {"fourier": ModelKind.FOURIER, "mcv": ModelKind.MCV, "gk": ModelKind.GK}

# Unset keys fall back to the benchmark: its scenario, its pulse, and the
# study's reference resolution and sweep families.
_BENCHMARK = benchmark_scenario(ModelKind.FOURIER)
_PULSE = PulseParams()


class ConfigError(ValueError):
    """Invalid configuration document or value set."""


def _parse_text(key: str, text: str) -> str:
    return text


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got {text!r}")
    return value


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}") from None


def _list_of(parse):
    """A parser of whitespace-separated items, each read by parse."""
    return lambda key, text: tuple(parse(key, item) for item in text.split())


def _rule(holds, complaint: str):
    """A range rule: a value v for which holds(v) is false is reported as
    its key followed by complaint, with {v} in complaint standing for v."""
    return lambda v: None if holds(v) else complaint.format(v=v)


def _at_least(low: int):
    return _rule(lambda v: v >= low, f"must be >= {low}, got {{v}}")


_POSITIVE = _rule(lambda v: v > 0, "must be positive, got {v}")
_NONZERO = _rule(lambda v: v != 0.0, "must be nonzero")
_DEGREE = _rule(
    lambda v: 1 <= v <= MAX_DEGREE - 1,
    f"must be in 1..{MAX_DEGREE - 1} (temperature degree cap), got {{v}}",
)
_HALF_TO_ONE = _rule(lambda v: 0.5 <= v <= 1.0, "must be in [1/2, 1], got {v}")
_TWO_OR_MORE = _rule(lambda v: len(v) >= 2, "needs at least two entries")
# A sweep keeps one run per distinct (value, tau) point.
_DISTINCT = _rule(lambda v: len(set(v)) == len(v), "must not repeat an entry, got {v}")


def _error_column(tau: float) -> str:
    """The sweep tables' column of the errors at relaxation time tau."""
    return f"err_tau_{tau:g}"


def _distinct_columns(taus: tuple[float, ...]) -> str | None:
    """Each tau names an error column of the sweep tables."""
    columns = [_error_column(tau) for tau in taus]
    if len(set(columns)) < len(columns):
        return f"entries must differ in their error column names, got {columns}"


def _key(key: str, parse, default=None, *rules):
    """A RunConfig field read from config key `key` by parse, else `default`,
    and checked by each rule unless None.  The required-key, model and sweep
    rules settle None defaults, and a sweep's default fixed elements or degree."""
    return field(metadata={"key": key, "parse": parse, "default": default, "rules": rules})


@dataclass(frozen=True)
class RunConfig:
    """A validated run, one field per config key.  The fields are declared in
    the order the keys are parsed and their range rules checked, so that a
    document with several faults reports the first of them."""

    mode: str = _key("mode", _parse_text)
    model: str = _key("model", _parse_text)
    conductivity: float = _key("conductivity_w_per_m_k", _parse_float)
    density: float = _key("density_kg_per_m3", _parse_float)
    specific_heat: float = _key("specific_heat_j_per_kg_k", _parse_float)
    relaxation_time: float | None = _key("relaxation_time_s", _parse_float)
    kappa2: float = _key("kappa2_m2", _parse_float)
    length: float = _key("length_m", _parse_float, _BENCHMARK.length, _POSITIVE)
    initial_temperature: float = _key(
        "initial_temperature_k", _parse_float, _BENCHMARK.initial_temperature
    )
    dt: float = _key("dt_s", _parse_float, _BENCHMARK.dt, _POSITIVE)
    theta: float = _key("theta", _parse_float, 0.5, _HALF_TO_ONE)
    # A pulse that carries no energy leaves nothing to measure: the transient
    # has no rise to scale by, and the sweeps an identically zero reference.
    pulse_amplitude: float = _key(
        "pulse_amplitude_w_per_m2", _parse_float, _PULSE.amplitude, _NONZERO
    )
    # Negative rates are accepted on purpose: the closed form and its running
    # integral hold for any distinct nonzero rates.  A pulse that overflows
    # is reported at run time as exit 3 "numerical".
    pulse_c1: float = _key("pulse_c1", _parse_float, _PULSE.c1, _NONZERO)
    pulse_c2: float = _key("pulse_c2", _parse_float, _PULSE.c2, _NONZERO)
    pulse_t_p: float = _key("pulse_t_p_s", _parse_float, _PULSE.t_p, _POSITIVE)
    n_steps: int = _key("n_steps", _parse_int, _BENCHMARK.n_steps, _at_least(0))
    elements: int = _key("elements", _parse_int, REFERENCE_ELEMENTS, _at_least(1))
    degree: int = _key("degree", _parse_int, REFERENCE_DEGREE, _DEGREE)
    reference_elements: int = _key(
        "reference_elements", _parse_int, REFERENCE_ELEMENTS, _at_least(1)
    )
    reference_degree: int = _key("reference_degree", _parse_int, REFERENCE_DEGREE, _DEGREE)
    oracle_cells: int = _key("oracle_cells", _parse_int, ORACLE_CELLS, _at_least(3))
    sweep_taus: tuple[float, ...] | None = _key(
        "sweep_taus_s", _list_of(_parse_float), None, _DISTINCT, _distinct_columns
    )
    sweep_values: tuple[int, ...] | None = _key(
        "sweep_values", _list_of(_parse_int), None, _TWO_OR_MORE, _DISTINCT
    )


# Config key -> its RunConfig field, in declaration order.
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _benchmark_family(mode: str, model: str, kappa2: float) -> SweepSpec:
    """The study's benchmark sweep that a sweep config falls back to."""
    if model != "gk":
        family = "mcv"
    else:
        family = "gk_diffuse" if kappa2 >= 0.1 else "gk_wave"
    return next(
        spec for spec in benchmark_sweep_families()
        if spec.family == family and spec.kind == _SWEEPS[mode]
    )


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a flat key = value configuration document."""
    raw: dict[str, str] = {}
    lines_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: key '{key}' already set on line {lines_of[key]}"
            )
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}' has no value")
        raw[key] = value
        lines_of[key] = lineno

    for key, allowed in (("mode", MODES), ("model", tuple(MODELS))):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
        if raw[key] not in allowed:
            raise ConfigError(f"key '{key}': expected one of {allowed}, got {raw[key]!r}")
    mode, model = raw["mode"], raw["model"]

    values = {
        f.name: f.metadata["parse"](key, raw[key]) if key in raw else f.metadata["default"]
        for key, f in _FIELDS.items()
    }
    sweep_mode = mode in _SWEEPS

    if "conductivity_w_per_m_k" not in raw:
        raise ConfigError(
            "missing required key 'conductivity_w_per_m_k'; it has no default "
            f"(a rock-like benchmark value is {SUGGESTED_CONDUCTIVITY})"
        )
    for key in ("density_kg_per_m3", "specific_heat_j_per_kg_k"):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    relaxation_time, kappa2 = values["relaxation_time"], values["kappa2"]
    if sweep_mode:
        if relaxation_time is not None:
            raise ConfigError(
                "sweep modes take their relaxation times from 'sweep_taus_s'; "
                "remove 'relaxation_time_s'"
            )
    else:
        if values["sweep_taus"] is not None or values["sweep_values"] is not None:
            raise ConfigError("sweep keys are only valid in the sweep modes")
        if model in ("mcv", "gk") and relaxation_time is None:
            raise ConfigError(f"model '{model}' requires 'relaxation_time_s'")
        if model == "fourier":
            if relaxation_time not in (None, 0.0):
                raise ConfigError("the diffusive model requires relaxation_time_s = 0")
            values["relaxation_time"] = 0.0
    if model == "gk":
        if kappa2 is None:
            raise ConfigError("model 'gk' requires 'kappa2_m2'")
    else:
        if kappa2 not in (None, 0.0):
            raise ConfigError(f"model '{model}' requires kappa2_m2 = 0")
        values["kappa2"] = 0.0

    if sweep_mode:
        family = _benchmark_family(mode, model, values["kappa2"])
        fixed = "degree" if family.kind == "h" else "elements"
        if fixed not in raw:
            values[fixed] = family.fixed
        if values["sweep_taus"] is None:
            values["sweep_taus"] = (0.0,) if model == "fourier" else family.taus
        if values["sweep_values"] is None:
            values["sweep_values"] = family.values

    config = RunConfig(**values)
    for tau in config.sweep_taus if sweep_mode else [config.relaxation_time]:
        try:
            _material(config, tau)
        except ValueError as exc:
            raise ConfigError(f"invalid material parameters: {exc}") from None
    _validate_numbers(config)
    # Last, so that the other checks keep precedence; only Fourier sweeps fail it.
    for tau in config.sweep_taus or ():
        try:
            _material(config, tau).require_kind(MODELS[model])
        except ValueError as exc:
            raise ConfigError(f"invalid material parameters: {exc}") from None
    return config


def _validate_numbers(config: RunConfig) -> None:
    """Check each set value by its key's range rules, in declaration order,
    then the rules that read two keys: a sweep value by the rule of the key
    it replaces, elements in an h_sweep and degree in a p_sweep."""
    for key, f in _FIELDS.items():
        value = getattr(config, f.name)
        for rule in f.metadata["rules"] if value is not None else ():
            complaint = rule(value)
            if complaint:
                raise ConfigError(f"{key} {complaint}")
    if config.pulse_c1 == config.pulse_c2:
        raise ConfigError("pulse_c1 and pulse_c2 must differ")
    if config.mode in _SWEEPS:
        (rule,) = _FIELDS["elements" if config.mode == "h_sweep" else "degree"].metadata["rules"]
        for complaint in map(rule, config.sweep_values):
            if complaint:
                raise ConfigError(f"sweep_values {complaint}")


def _material(config: RunConfig, tau: float) -> MaterialParams:
    return MaterialParams(
        rho=config.density,
        c_v=config.specific_heat,
        conductivity=config.conductivity,
        tau=tau,
        kappa2=config.kappa2,
    )


def _scenario(config: RunConfig, tau: float):
    """The benchmark's flash slab with the configured material at relaxation
    time tau, pulse, geometry and time grid."""
    scenario = benchmark_scenario(
        MODELS[config.model],
        pulse=PulseParams(
            amplitude=config.pulse_amplitude,
            c1=config.pulse_c1,
            c2=config.pulse_c2,
            t_p=config.pulse_t_p,
        ),
        length=config.length,
        initial_temperature=config.initial_temperature,
        dt=config.dt,
        n_steps=config.n_steps,
    )
    return replace(scenario, material=_material(config, tau))


@dataclass(frozen=True)
class OutputTable:
    """One plot-ready table: a 2-D array of rows, or a sequence of row
    tuples.  Cells are reals except optional leading labels, which need an
    object array."""

    columns: tuple[str, ...]
    rows: np.ndarray | tuple[tuple, ...]


# Rows rendered at once by write_table, which bounds the memory the text of
# a long table takes.
_WRITE_ROWS = 1024

# The fast path renders a real whose decimal exponent estimate lies within
# +-_EXPONENT_WINDOW.  Then |x| < 1e282 and each power of ten it scales by
# lies in [1e-265, 1e297], so the products of Dekker's split cannot overflow
# and the power's tail stays a normal double; every other real falls back.
_EXPONENT_WINDOW = 280
# The bytes of one rendered real, before its separator: sign, digit, point,
# 16 digits, "e", exponent sign, 3 exponent digits.  The sign and an
# exponent's hundreds digit are dropped where not needed.
_SLOT = b"-0.0000000000000000e+000"
# The fast path gives y = |x| * 10**(16 - e) as h + s, h an even integer
# (h >= 2**53) and s the rest.  Where 10**(16 - e) is a double (the power's
# tail pl is 0), Dekker's product is exact and so is y = h + s.  Otherwise
# ph + pl misses the power by at most 2**-106 ph, x * pl rounds by at most
# 2**-53 |x pl| <= 2**-106 x ph, and the sum s rounds by at most 2**-53 |s|.
# With y < 2**60 and |s| < 2**8 for any estimate e, that is |y - (h + s)| <
# 2**-46 + 2**-46 + 2**-45 = 2**-44.  A cell whose y lies within the margin
# of a rounding tie or of 10**16 or 10**17 is not decided here.
_MARGIN = 2.0**-40

# Built at first use: the 4-digit groups 0000-9999 as ASCII bytes, one
# uint32 per group, and e -> 10**(16 - e) as a double-double (ph, pl) for
# each decimal exponent e met so far.
_QUADS: np.ndarray | None = None
_POWERS: dict[int, tuple[float, float]] = {}


def _split(a):
    """Dekker's split: a == hi + lo exactly, each half of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _quads() -> np.ndarray:
    """The table of 4-digit groups, built at first use."""
    global _QUADS
    if _QUADS is None:
        n = np.arange(10000)
        digits = np.stack((n // 1000, n // 100 % 10, n // 10 % 10, n % 10), axis=1)
        _QUADS = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return _QUADS


def _powers(lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """For e = lo..hi: 10**(16 - e) as a double-double ph + pl, each pair
    correctly rounded from Python integers at the first use of e; ph's
    split; and the margin of the cells it scales (0 where the power is a
    double, whose product is exact)."""
    for e in range(lo, hi + 1):
        if e not in _POWERS:
            num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
            head = num / den
            a, b = head.as_integer_ratio()
            _POWERS[e] = head, (num * b - a * den) / (den * b)
    ph, pl = np.array([_POWERS[e] for e in range(lo, hi + 1)]).T
    return ph, *_split(ph), pl, np.where(pl == 0.0, 0.0, _MARGIN)


def _exact(x: float) -> str:
    """The reference rendering, for the cells the fast path cannot decide."""
    return "%.16e" % x


def _text_rows(texts: list[str], width: int):
    """texts encoded as the rows of a byte grid width wide, left-aligned, and
    the mask of their bytes."""
    data = [text.encode() for text in texts]
    grid = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    lengths = np.array([len(b) for b in data], dtype=np.int64)
    return grid, np.arange(width) < lengths[:, None]


def _render(reals: np.ndarray, prefixes: list[str] | None, sep: str) -> str:
    """The lines of a 2-D float64 array, cells joined by sep, each line led
    by its prefix if any: every real as '%.16e' renders it."""
    x = reals.ravel()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    # False for 0, inf, nan and the reals outside the window.
    fast = np.abs(e) <= _EXPONENT_WINDOW
    ax = np.where(fast, ax, 1.0)
    e = np.where(fast, e, 0.0).astype(np.int64)
    # y = ax * 10**(16 - e) as h + s, and its 17 digits rounded half to
    # even.  A cell goes to '%.16e' unless y is decided and its digits lie
    # in [10**16, 10**17): so do the reals next to a power of ten, whose e
    # log10 may misplace by one, and those that round up to 10**17.
    lo = int(e.min())
    ph, p1, p2, pl, margin = (table[e - lo] for table in _powers(lo, int(e.max())))
    h = ax * ph
    a1, a2 = _split(ax)
    s = ((((a1 * p1 - h) + a1 * p2) + a2 * p1) + a2 * p2) + ax * pl
    near = np.rint(s)
    digits = h.astype(np.int64) + near.astype(np.int64)
    fast &= (
        ((h - 1e16) + s >= margin)
        & ((h - 1e17) + s <= -margin)
        & (np.abs(0.5 - np.abs(s - near)) >= margin)
        & (digits < 10**17)
    )

    # The 17 digits as a leading digit and four groups of four, each group
    # read from the table of 0000-9999.
    top = digits // 10**8
    low = digits - top * 10**8
    lead = top // 10**8
    halves = np.stack((top - lead * 10**8, low), axis=1)
    upper = halves // 10**4
    groups = np.stack((upper, halves - upper * 10**4), axis=2).reshape(-1, 4)
    ae = np.abs(e)
    quads = _quads()
    n, c = reals.shape
    line = (_SLOT + sep.encode()) * c
    lines = np.frombuffer(bytearray((line[:-1] + b"\n") * n), np.uint8)
    cells = lines.reshape(n * c, len(_SLOT) + 1)
    cells[:, 1] = lead + ord("0")
    cells[:, 3:19] = quads[groups].view(np.uint8)
    cells[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    cells[:, 21:24] = quads[ae, None].view(np.uint8)[:, 1:]
    keep = np.ones(cells.shape, bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 21] = ae >= 100
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow, :-1], keep[slow, :-1] = _text_rows(
            [_exact(v) for v in x[slow].tolist()], len(_SLOT)
        )

    lines, keep = cells.reshape(n, -1), keep.reshape(n, -1)
    if prefixes is not None:
        head, head_keep = _text_rows(prefixes, max(len(p.encode()) for p in prefixes))
        lines = np.concatenate((head, lines), axis=1)
        keep = np.concatenate((head_keep, keep), axis=1)
    return lines[keep].tobytes().decode()


def write_table(table: OutputTable, path: Path, fmt: str) -> None:
    """Write the header, then the rows in blocks of _WRITE_ROWS, each
    block's text built in whole-array passes and written at once: leading
    labels as they are, then every real as '%.16e' % cell renders it, byte
    for byte (see the module docstring)."""
    sep = "," if fmt == "csv" else " "
    rows = table.rows
    cells = rows[0] if len(rows) else ()
    labels = next((i for i, cell in enumerate(cells) if not isinstance(cell, str)), 0)
    with path.open("w") as out:
        out.write(sep.join(table.columns) + "\n")
        for first in range(0, len(rows), _WRITE_ROWS):
            block = rows[first:first + _WRITE_ROWS]
            prefixes = None
            if labels:
                block = np.asarray(block, dtype=object)
                prefixes = [sep.join(row) + sep for row in block[:, :labels].tolist()]
                block = block[:, labels:]
            out.write(_render(np.asarray(block, dtype=np.float64), prefixes, sep))


def _run_transient(config: RunConfig, out: Path, fmt: str) -> None:
    scenario = _scenario(config, config.relaxation_time)
    run = solve_transient(scenario, config.elements, config.degree, theta=config.theta)
    for probe in scenario.probes:
        series = run.series[probe.label]
        if probe.quantity is Field.TEMPERATURE:
            dim = dimensionless_temperature(series, scenario)
            columns = ("t_s", "temperature_k", "dimensionless")
            rows = np.column_stack((series.times, series.values, dim.values))
        else:
            columns = ("t_s", "heat_flux_w_per_m2")
            rows = np.column_stack((series.times, series.values))
        name = f"{config.mode}_{probe.label}_{config.model}.{fmt}"
        write_table(OutputTable(columns, rows), out / name, fmt)


def _run_sweep_mode(config: RunConfig, out: Path, fmt: str) -> None:
    kind = _SWEEPS[config.mode]
    spec = SweepSpec(
        family=config.model,
        kind=kind,
        values=config.sweep_values,
        fixed=config.degree if kind == "h" else config.elements,
        taus=config.sweep_taus,
        scenario_factory=lambda tau: _scenario(config, tau),
    )
    references: dict[float, ReferenceSolution] = {
        tau: compute_reference(
            spec.scenario_factory(tau),
            n_elements=config.reference_elements,
            degree=config.reference_degree,
            theta=config.theta,
        )
        for tau in config.sweep_taus
    }
    report = run_sweep(spec, references, theta=config.theta)
    for value, tau, message in report.failures:
        print(
            json.dumps(
                {"warning": "sweep_point_failed", "value": value, "tau": tau, "message": message}
            ),
            file=_sys.stderr,
        )
    columns = ("dof",) + tuple(_error_column(tau) for tau in config.sweep_taus)
    for probe in standard_probes(config.length):
        errors = [report.errors[(tau, probe.label)] for tau in config.sweep_taus]
        rows = np.column_stack((report.dofs, *errors))
        name = f"{config.mode}_{probe.label}_{config.model}.{fmt}"
        write_table(OutputTable(columns, rows), out / name, fmt)


def _run_oracle_check(config: RunConfig, out: Path, fmt: str) -> None:
    scenario = _scenario(config, config.relaxation_time)
    run = solve_transient(scenario, config.elements, config.degree, theta=config.theta)
    oracle = fd_oracle(scenario, cells=config.oracle_cells, theta=config.theta)
    # Every table and discrepancy is computed before any is written, so that
    # a failing one leaves no partial output.
    tables, summary_rows = [], []
    for probe in scenario.probes:
        fem, fd = run.series[probe.label], oracle.series[probe.label]
        rows = np.column_stack((fem.times, fem.values, fd.values))
        name = f"{config.mode}_{probe.label}_{config.model}.{fmt}"
        tables.append((OutputTable(("t_s", "fem", "fd"), rows), name))
        summary_rows.append((probe.label, history_error(fem, fd, scenario)))
    for (table, name), (label, discrepancy) in zip(tables, summary_rows):
        write_table(table, out / name, fmt)
        print(f"{label}: relative max-norm discrepancy {discrepancy:.3e}")
    summary = OutputTable(
        ("probe", "relative_max_discrepancy"), np.array(summary_rows, dtype=object)
    )
    write_table(summary, out / f"oracle_check_summary_{config.model}.{fmt}", fmt)


def run(config: RunConfig, out_dir: str = ".", fmt: str = "dat") -> None:
    """Execute one configured mode, writing tables into out_dir."""
    if fmt not in ("dat", "csv"):
        raise ConfigError(f"format must be 'dat' or 'csv', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.mode == "transient":
        _run_transient(config, out, fmt)
    elif config.mode in _SWEEPS:
        _run_sweep_mode(config, out, fmt)
    else:
        _run_oracle_check(config, out, fmt)


def _error_record(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpheat",
        description="Mixed hp finite element solver for transient heat conduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a configuration file")
    run_parser.add_argument("config", help="path to the key = value config document")
    run_parser.add_argument("--out", default=".", help="output directory")
    run_parser.add_argument("--format", default="dat", choices=("dat", "csv"))
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(_error_record("io", str(exc)), file=_sys.stderr)
        return 4
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(_error_record("config", str(exc)), file=_sys.stderr)
        return 2
    try:
        run(config, out_dir=args.out, fmt=args.format)
    except OSError as exc:
        print(_error_record("io", str(exc)), file=_sys.stderr)
        return 4
    # The solver's FactorizationError and NonFiniteStateError are
    # RuntimeErrors, and numpy's LinAlgError is a ValueError.  Python raises
    # OverflowError when it converts a huge integer key to float, as the
    # oracle's length / cells does with a 400-digit oracle_cells.
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(_error_record("numerical", str(exc)), file=_sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
