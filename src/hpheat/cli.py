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
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class RunConfig:
    mode: str
    model: str
    conductivity: float
    density: float
    specific_heat: float
    relaxation_time: float | None
    kappa2: float
    length: float
    initial_temperature: float
    dt: float
    n_steps: int
    elements: int
    degree: int
    theta: float
    pulse_amplitude: float
    pulse_c1: float
    pulse_c2: float
    pulse_t_p: float
    sweep_taus: tuple[float, ...] | None
    sweep_values: tuple[int, ...] | None
    reference_elements: int
    reference_degree: int
    oracle_cells: int


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


# key -> (RunConfig attribute, parser, default), in the order the values are
# parsed, so that a document with several faults reports the first of them.
# None marks a value that the required-key, model and sweep rules settle; the
# sweep modes also replace the default of the sweep's fixed elements or degree.
_KEYS = {
    "mode": ("mode", _parse_text, None),
    "model": ("model", _parse_text, None),
    "conductivity_w_per_m_k": ("conductivity", _parse_float, None),
    "density_kg_per_m3": ("density", _parse_float, None),
    "specific_heat_j_per_kg_k": ("specific_heat", _parse_float, None),
    "relaxation_time_s": ("relaxation_time", _parse_float, None),
    "kappa2_m2": ("kappa2", _parse_float, None),
    "length_m": ("length", _parse_float, _BENCHMARK.length),
    "initial_temperature_k": ("initial_temperature", _parse_float, _BENCHMARK.initial_temperature),
    "dt_s": ("dt", _parse_float, _BENCHMARK.dt),
    "theta": ("theta", _parse_float, 0.5),
    "pulse_amplitude_w_per_m2": ("pulse_amplitude", _parse_float, _PULSE.amplitude),
    "pulse_c1": ("pulse_c1", _parse_float, _PULSE.c1),
    "pulse_c2": ("pulse_c2", _parse_float, _PULSE.c2),
    "pulse_t_p_s": ("pulse_t_p", _parse_float, _PULSE.t_p),
    "n_steps": ("n_steps", _parse_int, _BENCHMARK.n_steps),
    "elements": ("elements", _parse_int, REFERENCE_ELEMENTS),
    "degree": ("degree", _parse_int, REFERENCE_DEGREE),
    "reference_elements": ("reference_elements", _parse_int, REFERENCE_ELEMENTS),
    "reference_degree": ("reference_degree", _parse_int, REFERENCE_DEGREE),
    "oracle_cells": ("oracle_cells", _parse_int, ORACLE_CELLS),
    "sweep_taus_s": ("sweep_taus", _list_of(_parse_float), None),
    "sweep_values": ("sweep_values", _list_of(_parse_int), None),
}


def _benchmark_family(mode: str, model: str, kappa2: float) -> SweepSpec:
    """The study's benchmark sweep that a sweep config falls back to."""
    if model in ("fourier", "mcv"):
        family = "mcv"
    elif kappa2 >= 0.1:
        family = "gk_diffuse"
    else:
        family = "gk_wave"
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: key '{key}' already set on line {lines_of[key]}"
            )
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}' has no value")
        raw[key] = value
        lines_of[key] = lineno

    mode = raw.get("mode")
    if mode is None:
        raise ConfigError("missing required key 'mode'")
    if mode not in MODES:
        raise ConfigError(f"key 'mode': expected one of {MODES}, got {mode!r}")
    model = raw.get("model")
    if model is None:
        raise ConfigError("missing required key 'model'")
    if model not in MODELS:
        raise ConfigError(f"key 'model': expected one of {tuple(MODELS)}, got {model!r}")

    values = {
        attr: parse(key, raw[key]) if key in raw else default
        for key, (attr, parse, default) in _KEYS.items()
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
            values["sweep_taus"] = family.taus
        if values["sweep_values"] is None:
            values["sweep_values"] = family.values

    config = RunConfig(**values)
    for tau in config.sweep_taus if sweep_mode else [config.relaxation_time]:
        try:
            _material(config, tau)
        except ValueError as exc:
            raise ConfigError(f"invalid material parameters: {exc}") from None
    _validate_numbers(config)
    return config


def _validate_numbers(config: RunConfig) -> None:
    if config.length <= 0:
        raise ConfigError(f"length_m must be positive, got {config.length}")
    if config.dt <= 0:
        raise ConfigError(f"dt_s must be positive, got {config.dt}")
    if config.n_steps < 0:
        raise ConfigError(f"n_steps must be >= 0, got {config.n_steps}")
    if not 0.5 <= config.theta <= 1.0:
        raise ConfigError(f"theta must be in [1/2, 1], got {config.theta}")
    for name, value in (
        ("elements", config.elements),
        ("reference_elements", config.reference_elements),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    for name, value in (
        ("degree", config.degree),
        ("reference_degree", config.reference_degree),
    ):
        if not 1 <= value <= MAX_DEGREE - 1:
            raise ConfigError(
                f"{name} must be in 1..{MAX_DEGREE - 1} (temperature degree cap), got {value}"
            )
    # Negative rates are accepted on purpose: the closed form and its running
    # integral hold for any distinct nonzero rates.  A pulse that overflows
    # is reported at run time as exit 3 "numerical".
    for name, value in (("pulse_c1", config.pulse_c1), ("pulse_c2", config.pulse_c2)):
        if value == 0.0:
            raise ConfigError(f"{name} must be nonzero")
    if config.pulse_c1 == config.pulse_c2:
        raise ConfigError("pulse_c1 and pulse_c2 must differ")
    if config.pulse_t_p <= 0:
        raise ConfigError(f"pulse_t_p_s must be positive, got {config.pulse_t_p}")
    if config.oracle_cells < 3:
        raise ConfigError(f"oracle_cells must be >= 3, got {config.oracle_cells}")
    if config.sweep_values is not None and len(config.sweep_values) < 2:
        raise ConfigError("sweep_values needs at least two entries")
    # A sweep keeps one run per distinct (value, tau) point.
    for name, entries in (
        ("sweep_values", config.sweep_values), ("sweep_taus_s", config.sweep_taus)
    ):
        if entries is not None and len(set(entries)) < len(entries):
            raise ConfigError(f"{name} must not repeat an entry, got {entries}")
    # Each tau names an error column of the sweep tables.
    if config.sweep_taus is not None:
        columns = [_error_column(tau) for tau in config.sweep_taus]
        if len(set(columns)) < len(columns):
            raise ConfigError(
                f"sweep_taus_s entries must differ in their error column names, got {columns}"
            )
    # A pulse that carries no energy leaves nothing to measure: the transient
    # has no rise to scale by, and the sweeps an identically zero reference.
    if config.pulse_amplitude == 0.0:
        raise ConfigError("pulse_amplitude_w_per_m2 must be nonzero")


def _error_column(tau: float) -> str:
    """The sweep tables' column of the errors at relaxation time tau."""
    return f"err_tau_{tau:g}"


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


def write_table(table: OutputTable, path: Path, fmt: str) -> None:
    """Write the header, then the rows in one %-format pass per block of
    rows, each block read as an object array: labels as they are, reals as
    f"{float(cell):.16e}" renders them."""
    sep = "," if fmt == "csv" else " "
    rows = table.rows
    cells = rows[0] if len(rows) else ()
    line = sep.join("%s" if isinstance(cell, str) else "%.16e" for cell in cells) + "\n"
    with path.open("w") as out:
        out.write(sep.join(table.columns) + "\n")
        for first in range(0, len(rows), _WRITE_ROWS):
            block = np.asarray(rows[first:first + _WRITE_ROWS], dtype=object)
            out.write((line * len(block)) % tuple(block.ravel().tolist()))


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
    # RuntimeErrors, and numpy's LinAlgError is a ValueError.
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(_error_record("numerical", str(exc)), file=_sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
