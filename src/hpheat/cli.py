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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import BoundarySpec, Field, PrescribedFlux
from .basis import MAX_DEGREE
from .materials import MaterialParams, ModelKind
from .scenario import (
    SUGGESTED_CONDUCTIVITY,
    Probe,
    PulseParams,
    Scenario,
    benchmark_scenario,
    dimensionless_temperature,
    flash_pulse,
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
from .timefun import constant
from .timeint import FactorizationError

MODES = ("transient", "h_sweep", "p_sweep", "oracle_check")
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
    kappa2: float | None
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


# key -> (config attribute, parser)
_FLOAT_KEYS = {
    "conductivity_w_per_m_k": "conductivity",
    "density_kg_per_m3": "density",
    "specific_heat_j_per_kg_k": "specific_heat",
    "relaxation_time_s": "relaxation_time",
    "kappa2_m2": "kappa2",
    "length_m": "length",
    "initial_temperature_k": "initial_temperature",
    "dt_s": "dt",
    "theta": "theta",
    "pulse_amplitude_w_per_m2": "pulse_amplitude",
    "pulse_c1": "pulse_c1",
    "pulse_c2": "pulse_c2",
    "pulse_t_p_s": "pulse_t_p",
}
_INT_KEYS = {
    "n_steps": "n_steps",
    "elements": "elements",
    "degree": "degree",
    "reference_elements": "reference_elements",
    "reference_degree": "reference_degree",
    "oracle_cells": "oracle_cells",
}
_STR_KEYS = {"mode": "mode", "model": "model"}
_LIST_FLOAT_KEYS = {"sweep_taus_s": "sweep_taus"}
_LIST_INT_KEYS = {"sweep_values": "sweep_values"}

_ALL_KEYS = (
    set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)
    | set(_LIST_FLOAT_KEYS) | set(_LIST_INT_KEYS)
)


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


def _benchmark_family(mode: str, model: str, kappa2: float) -> SweepSpec:
    """The study's benchmark sweep that a sweep config falls back to."""
    if model in ("fourier", "mcv"):
        family = "mcv"
    elif kappa2 >= 0.1:
        family = "gk_diffuse"
    else:
        family = "gk_wave"
    kind = "h" if mode == "h_sweep" else "p"
    return next(
        spec for spec in benchmark_sweep_families()
        if spec.family == family and spec.kind == kind
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
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: key '{key}' already set on line {lines_of[key]}"
            )
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}' has no value")
        raw[key] = value
        lines_of[key] = lineno

    def take_str(key: str) -> str | None:
        return raw.pop(key, None)

    mode = take_str("mode")
    if mode is None:
        raise ConfigError("missing required key 'mode'")
    if mode not in MODES:
        raise ConfigError(f"key 'mode': expected one of {MODES}, got {mode!r}")
    model = take_str("model")
    if model is None:
        raise ConfigError("missing required key 'model'")
    if model not in MODELS:
        raise ConfigError(f"key 'model': expected one of {tuple(MODELS)}, got {model!r}")

    floats: dict[str, float] = {}
    for key, attr in _FLOAT_KEYS.items():
        if key in raw:
            floats[attr] = _parse_float(key, raw.pop(key))
    ints: dict[str, int] = {}
    for key, attr in _INT_KEYS.items():
        if key in raw:
            ints[attr] = _parse_int(key, raw.pop(key))
    sweep_taus = None
    if "sweep_taus_s" in raw:
        sweep_taus = tuple(
            _parse_float("sweep_taus_s", item) for item in raw.pop("sweep_taus_s").split()
        )
    sweep_values = None
    if "sweep_values" in raw:
        sweep_values = tuple(
            _parse_int("sweep_values", item) for item in raw.pop("sweep_values").split()
        )
    assert not raw

    sweep_mode = mode in ("h_sweep", "p_sweep")

    if "conductivity" not in floats:
        raise ConfigError(
            "missing required key 'conductivity_w_per_m_k'; it has no default "
            f"(a rock-like benchmark value is {SUGGESTED_CONDUCTIVITY})"
        )
    if "density" not in floats:
        raise ConfigError("missing required key 'density_kg_per_m3'")
    if "specific_heat" not in floats:
        raise ConfigError("missing required key 'specific_heat_j_per_kg_k'")

    relaxation_time = floats.get("relaxation_time")
    kappa2 = floats.get("kappa2")
    if sweep_mode:
        if relaxation_time is not None:
            raise ConfigError(
                "sweep modes take their relaxation times from 'sweep_taus_s'; "
                "remove 'relaxation_time_s'"
            )
    else:
        if sweep_taus is not None or sweep_values is not None:
            raise ConfigError("sweep keys are only valid in the sweep modes")
        if model in ("mcv", "gk") and relaxation_time is None:
            raise ConfigError(f"model '{model}' requires 'relaxation_time_s'")
        if model == "fourier":
            if relaxation_time not in (None, 0.0):
                raise ConfigError(
                    "the diffusive model requires relaxation_time_s = 0"
                )
            relaxation_time = 0.0
    if model == "gk":
        if kappa2 is None:
            raise ConfigError("model 'gk' requires 'kappa2_m2'")
    else:
        if kappa2 not in (None, 0.0):
            raise ConfigError(f"model '{model}' requires kappa2_m2 = 0")
        kappa2 = 0.0

    elements = ints.get("elements", REFERENCE_ELEMENTS)
    degree = ints.get("degree", REFERENCE_DEGREE)
    if sweep_mode:
        family = _benchmark_family(mode, model, kappa2)
        if family.kind == "h":
            degree = ints.get("degree", family.fixed)
        else:
            elements = ints.get("elements", family.fixed)
        if sweep_taus is None:
            sweep_taus = family.taus
        if sweep_values is None:
            sweep_values = family.values

    config = RunConfig(
        mode=mode,
        model=model,
        conductivity=floats["conductivity"],
        density=floats["density"],
        specific_heat=floats["specific_heat"],
        relaxation_time=relaxation_time,
        kappa2=kappa2,
        length=floats.get("length", _BENCHMARK.length),
        initial_temperature=floats.get("initial_temperature", _BENCHMARK.initial_temperature),
        dt=floats.get("dt", _BENCHMARK.dt),
        n_steps=ints.get("n_steps", _BENCHMARK.n_steps),
        elements=elements,
        degree=degree,
        theta=floats.get("theta", 0.5),
        pulse_amplitude=floats.get("pulse_amplitude", _PULSE.amplitude),
        pulse_c1=floats.get("pulse_c1", _PULSE.c1),
        pulse_c2=floats.get("pulse_c2", _PULSE.c2),
        pulse_t_p=floats.get("pulse_t_p", _PULSE.t_p),
        sweep_taus=sweep_taus,
        sweep_values=sweep_values,
        reference_elements=ints.get("reference_elements", REFERENCE_ELEMENTS),
        reference_degree=ints.get("reference_degree", REFERENCE_DEGREE),
        oracle_cells=ints.get("oracle_cells", ORACLE_CELLS),
    )
    for tau in sweep_taus if sweep_mode else [relaxation_time or 0.0]:
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
    if config.sweep_taus is not None and len(config.sweep_taus) < 1:
        raise ConfigError("sweep_taus_s needs at least one entry")


def _material(config: RunConfig, tau: float) -> MaterialParams:
    return MaterialParams(
        rho=config.density,
        c_v=config.specific_heat,
        conductivity=config.conductivity,
        tau=tau,
        kappa2=config.kappa2 or 0.0,
    )


def _scenario(config: RunConfig, tau: float) -> Scenario:
    pulse = PulseParams(
        amplitude=config.pulse_amplitude,
        c1=config.pulse_c1,
        c2=config.pulse_c2,
        t_p=config.pulse_t_p,
    )
    return Scenario(
        material=_material(config, tau),
        model=MODELS[config.model],
        length=config.length,
        bcs=BoundarySpec(
            left=PrescribedFlux(flash_pulse(pulse)),
            right=PrescribedFlux(constant(0.0)),
        ),
        initial_temperature=config.initial_temperature,
        dt=config.dt,
        n_steps=config.n_steps,
        probes=standard_probes(config.length),
    )


@dataclass(frozen=True)
class OutputTable:
    """One plot-ready table; cells are floats except optional leading labels."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _render_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    return f"{float(cell):.16e}"


def write_table(table: OutputTable, path: Path, fmt: str) -> None:
    sep = "," if fmt == "csv" else " "
    with path.open("w") as out:
        out.write(sep.join(table.columns) + "\n")
        for row in table.rows:
            out.write(sep.join(_render_cell(cell) for cell in row) + "\n")


def _probe_value_column(probe: Probe) -> str:
    return "temperature_k" if probe.quantity is Field.TEMPERATURE else "heat_flux_w_per_m2"


def _run_transient(config: RunConfig, out: Path, fmt: str) -> None:
    scenario = _scenario(config, config.relaxation_time or 0.0)
    run = solve_transient(scenario, config.elements, config.degree, theta=config.theta)
    for probe in scenario.probes:
        series = run.series[probe.label]
        if probe.quantity is Field.TEMPERATURE:
            dim = dimensionless_temperature(series, scenario)
            columns = ("t_s", _probe_value_column(probe), "dimensionless")
            rows = tuple(
                zip(series.times.tolist(), series.values.tolist(), dim.values.tolist())
            )
        else:
            columns = ("t_s", _probe_value_column(probe))
            rows = tuple(zip(series.times.tolist(), series.values.tolist()))
        name = f"{config.mode}_{probe.label}_{config.model}.{fmt}"
        write_table(OutputTable(columns, rows), out / name, fmt)


def _run_sweep_mode(config: RunConfig, out: Path, fmt: str) -> None:
    kind = "h" if config.mode == "h_sweep" else "p"
    fixed = config.degree if kind == "h" else config.elements
    spec = SweepSpec(
        family=config.model,
        kind=kind,
        values=config.sweep_values,
        fixed=fixed,
        taus=config.sweep_taus,
        scenario_factory=lambda tau: _scenario(config, tau),
    )
    references: dict[float, ReferenceSolution] = {
        tau: compute_reference(
            _scenario(config, tau),
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
    probes = _scenario(config, config.sweep_taus[0]).probes
    for probe in probes:
        columns = ("dof",) + tuple(f"err_tau_{tau:g}" for tau in config.sweep_taus)
        rows = []
        for i, dof in enumerate(report.dofs):
            row = [float(dof)]
            for tau in config.sweep_taus:
                row.append(report.errors[(tau, probe.label)][i])
            rows.append(tuple(row))
        name = f"{config.mode}_{probe.label}_{config.model}.{fmt}"
        write_table(OutputTable(columns, tuple(rows)), out / name, fmt)


def _run_oracle_check(config: RunConfig, out: Path, fmt: str) -> None:
    scenario = _scenario(config, config.relaxation_time or 0.0)
    run = solve_transient(scenario, config.elements, config.degree, theta=config.theta)
    oracle = fd_oracle(scenario, cells=config.oracle_cells, theta=config.theta)
    summary_rows = []
    for probe in scenario.probes:
        fem = run.series[probe.label]
        fd = oracle.series[probe.label]
        columns = ("t_s", "fem", "fd")
        rows = tuple(zip(fem.times.tolist(), fem.values.tolist(), fd.values.tolist()))
        name = f"{config.mode}_{probe.label}_{config.model}.{fmt}"
        write_table(OutputTable(columns, rows), out / name, fmt)
        discrepancy = history_error(fem, fd, scenario)
        summary_rows.append((probe.label, discrepancy))
        print(f"{probe.label}: relative max-norm discrepancy {discrepancy:.3e}")
    summary = OutputTable(("probe", "relative_max_discrepancy"), tuple(summary_rows))
    write_table(summary, out / f"oracle_check_summary_{config.model}.{fmt}", fmt)


def run(config: RunConfig, out_dir: str = ".", fmt: str = "dat") -> None:
    """Execute one configured mode, writing tables into out_dir."""
    if fmt not in ("dat", "csv"):
        raise ConfigError(f"format must be 'dat' or 'csv', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.mode == "transient":
        _run_transient(config, out, fmt)
    elif config.mode in ("h_sweep", "p_sweep"):
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
    except ConfigError as exc:
        print(_error_record("config", str(exc)), file=_sys.stderr)
        return 2
    except OSError as exc:
        print(_error_record("io", str(exc)), file=_sys.stderr)
        return 4
    except (
        FactorizationError, np.linalg.LinAlgError, ValueError, RuntimeError, OverflowError
    ) as exc:
        print(_error_record("numerical", str(exc)), file=_sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
