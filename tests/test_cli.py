"""End-to-end tests of the command line front end and its config dialect."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

import hpheat.cli
import hpheat.scenario
from hpheat.cli import (
    ConfigError,
    OutputTable,
    RunConfig,
    main,
    parse_config,
    run,
    write_table,
)
from hpheat.assembly import PrescribedFlux
from hpheat.scenario import flash_pulse
from hpheat.study import benchmark_sweep_families

MINIMAL_FOURIER = """
mode = transient
model = fourier
conductivity_w_per_m_k = 3.0
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
"""

FAST_TRANSIENT = MINIMAL_FOURIER + """
n_steps = 5
elements = 4
degree = 2
"""


# ------------------------------------------------------------- parsing


def test_minimal_config_defaults():
    config = parse_config(MINIMAL_FOURIER)
    assert config.mode == "transient"
    assert config.model == "fourier"
    assert config.relaxation_time == 0.0
    assert config.kappa2 == 0.0
    assert config.length == 0.005
    assert config.initial_temperature == 293.0
    assert config.dt == 1e-3
    assert config.n_steps == 10000
    assert config.theta == 0.5
    assert config.pulse_amplitude == 10000.0
    assert config.pulse_t_p == 0.008
    assert config.oracle_cells == 2000
    assert config.sweep_taus is None and config.sweep_values is None


def test_sweep_lists_parse():
    sweep_text = """
mode = p_sweep
model = gk
conductivity_w_per_m_k = 3000
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
kappa2_m2 = 8e-6
sweep_taus_s = 0.05 0.3
sweep_values = 2 3 4
"""
    sweep_config = parse_config(sweep_text)
    assert sweep_config.sweep_taus == (0.05, 0.3)
    assert sweep_config.sweep_values == (2, 3, 4)


TRANSIENT_GK = MINIMAL_FOURIER.replace("model = fourier", "model = gk") + """
relaxation_time_s = 0.3
kappa2_m2 = 8e-6
"""

SWEEP_FOURIER = MINIMAL_FOURIER.replace("mode = transient", "mode = p_sweep")


# (base document, key, value text, RunConfig field, parsed value), one per key.
FIELD_CASES = [
    (TRANSIENT_GK, "mode", "oracle_check", "mode", "oracle_check"),
    (SWEEP_FOURIER, "model", "mcv", "model", "mcv"),
    (TRANSIENT_GK, "conductivity_w_per_m_k", "4.5", "conductivity", 4.5),
    (TRANSIENT_GK, "density_kg_per_m3", "2700", "density", 2700.0),
    (TRANSIENT_GK, "specific_heat_j_per_kg_k", "850", "specific_heat", 850.0),
    (TRANSIENT_GK, "relaxation_time_s", "0.25", "relaxation_time", 0.25),
    (TRANSIENT_GK, "kappa2_m2", "2e-6", "kappa2", 2e-6),
    (TRANSIENT_GK, "length_m", "0.004", "length", 0.004),
    (TRANSIENT_GK, "initial_temperature_k", "300", "initial_temperature", 300.0),
    (TRANSIENT_GK, "dt_s", "5e-4", "dt", 5e-4),
    (TRANSIENT_GK, "theta", "0.75", "theta", 0.75),
    (TRANSIENT_GK, "pulse_amplitude_w_per_m2", "2e4", "pulse_amplitude", 2e4),
    (TRANSIENT_GK, "pulse_c1", "2.5", "pulse_c1", 2.5),
    (TRANSIENT_GK, "pulse_c2", "7.5", "pulse_c2", 7.5),
    (TRANSIENT_GK, "pulse_t_p_s", "0.004", "pulse_t_p", 0.004),
    (TRANSIENT_GK, "n_steps", "7", "n_steps", 7),
    (TRANSIENT_GK, "elements", "9", "elements", 9),
    (TRANSIENT_GK, "degree", "3", "degree", 3),
    (TRANSIENT_GK, "reference_elements", "30", "reference_elements", 30),
    (TRANSIENT_GK, "reference_degree", "5", "reference_degree", 5),
    (TRANSIENT_GK, "oracle_cells", "50", "oracle_cells", 50),
    (SWEEP_FOURIER, "sweep_taus_s", "0.1 0.2", "sweep_taus", (0.1, 0.2)),
    (SWEEP_FOURIER, "sweep_values", "2 3 4", "sweep_values", (2, 3, 4)),
]


def test_field_cases_cover_every_config_field():
    assert sorted(case[3] for case in FIELD_CASES) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize(
    "base,key,text,field,value", FIELD_CASES, ids=[case[1] for case in FIELD_CASES]
)
def test_every_key_reaches_its_own_field(base, key, text, field, value):
    # A key read into the wrong field would leave this one at its base value.
    assert getattr(parse_config(base), field) != value
    kept = [line for line in base.splitlines() if line.split("=")[0].strip() != key]
    config = parse_config("\n".join(kept) + f"\n{key} = {text}\n")
    assert getattr(config, field) == value
    assert type(getattr(config, field)) is type(value)


def test_comments_and_blank_lines_ignored():
    text = MINIMAL_FOURIER + "\n# a comment\n   \nn_steps = 3 # trailing note\n"
    assert parse_config(text).n_steps == 3


def test_sweep_defaults_filled_per_model():
    base = """
mode = h_sweep
model = {model}
conductivity_w_per_m_k = 3000
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
{extra}
"""
    mcv = parse_config(base.format(model="mcv", extra=""))
    assert mcv.sweep_taus == (0.05, 0.15, 0.3)
    assert mcv.sweep_values == (20, 24, 28, 32, 36, 40, 44)
    wave = parse_config(base.format(model="gk", extra="kappa2_m2 = 8e-6"))
    assert wave.sweep_values == (52, 58, 64, 70, 76, 82, 88)
    diffuse = parse_config(base.format(model="gk", extra="kappa2_m2 = 0.8"))
    assert diffuse.sweep_values == (8, 10, 12, 14, 16, 18, 20)


@pytest.mark.parametrize("mode", ["h_sweep", "p_sweep"])
@pytest.mark.parametrize(
    "model,extra,family",
    [
        ("fourier", "", "mcv"),
        ("mcv", "", "mcv"),
        ("gk", "kappa2_m2 = 8e-6", "gk_wave"),
        ("gk", "kappa2_m2 = 0.8", "gk_diffuse"),
    ],
)
def test_sweep_defaults_follow_the_study_families(mode, model, extra, family):
    config = parse_config(f"""
mode = {mode}
model = {model}
conductivity_w_per_m_k = 3000
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
{extra}
""")
    kind = mode[0]
    (spec,) = [
        s for s in benchmark_sweep_families() if s.family == family and s.kind == kind
    ]
    assert config.sweep_taus == spec.taus
    assert config.sweep_values == spec.values
    fixed = config.degree if kind == "h" else config.elements
    assert fixed == spec.fixed


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("mode = orbit", "mode"),
        ("model = cattaneo", "model"),
        ("theta = 0.2", "theta"),
        ("theta = 1.2", "theta"),
        ("degree = 12", "degree"),
        ("dt_s = 0", "dt_s"),
        ("length_m = -1", "length_m"),
        ("oracle_cells = 2", "oracle_cells"),
        ("relaxation_time_s = 0.3", "relaxation_time_s = 0"),
        ("pulse_amplitude_w_per_m2 = 0", "pulse_amplitude_w_per_m2 must be nonzero"),
        ("n_steps = -1", "n_steps must be >= 0"),
        ("elements = 0", "elements must be >= 1"),
        # The default pulse_c2.
        ("pulse_c1 = 6.0", "pulse_c1 and pulse_c2 must differ"),
        ("pulse_t_p_s = 0", "pulse_t_p_s must be positive"),
    ],
)
def test_invalid_values_rejected(mutation, needle):
    lines = [l for l in MINIMAL_FOURIER.splitlines() if l.strip()]
    key = mutation.split("=")[0].strip()
    lines = [l for l in lines if not l.startswith(key)]
    text = "\n".join(lines) + "\n" + mutation + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


def test_negative_relaxation_time_hits_material_validation():
    text = MINIMAL_FOURIER.replace("model = fourier", "model = mcv")
    with pytest.raises(ConfigError, match="invalid material parameters"):
        parse_config(text + "relaxation_time_s = -0.1\n")


def test_unknown_and_duplicate_keys_report_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_FOURIER + "viscosity = 3\n")
    assert "unknown key 'viscosity'" in str(err.value)
    assert "line 7" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_FOURIER + "mode = transient\n")
    assert "already set on line 2" in str(err.value)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required key 'density_kg_per_m3'"):
        parse_config(MINIMAL_FOURIER.replace("density_kg_per_m3 = 2600\n", ""))
    with pytest.raises(ConfigError) as err:
        parse_config("mode = transient\nmodel = fourier\n"
                      "density_kg_per_m3 = 2600\nspecific_heat_j_per_kg_k = 800\n")
    # The error teaches the benchmark value instead of defaulting to it.
    assert "conductivity_w_per_m_k" in str(err.value)
    assert "3.0" in str(err.value)

    with pytest.raises(ConfigError, match="relaxation_time_s"):
        parse_config(MINIMAL_FOURIER.replace("model = fourier", "model = mcv"))
    with pytest.raises(ConfigError, match="kappa2_m2"):
        parse_config(MINIMAL_FOURIER.replace("model = fourier", "model = gk")
                     + "relaxation_time_s = 0.3\n")
    with pytest.raises(ConfigError, match="kappa2_m2 = 0"):
        parse_config(MINIMAL_FOURIER.replace("model = fourier", "model = mcv")
                     + "relaxation_time_s = 0.3\nkappa2_m2 = 8e-6\n")


def test_sweep_key_scoping():
    with pytest.raises(ConfigError, match="sweep_taus_s"):
        parse_config(
            MINIMAL_FOURIER.replace("mode = transient", "mode = h_sweep")
            + "relaxation_time_s = 0.3\n"
        )
    with pytest.raises(ConfigError, match="only valid in the sweep modes"):
        parse_config(MINIMAL_FOURIER + "sweep_values = 4 6\n")
    with pytest.raises(ConfigError, match="sweep_values needs at least two entries"):
        parse_config(
            MINIMAL_FOURIER.replace("mode = transient", "mode = h_sweep") + "sweep_values = 4\n"
        )


def test_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="no value"):
        parse_config("mode =\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(MINIMAL_FOURIER.replace("= 3.0", "= fast"))
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(MINIMAL_FOURIER + "n_steps = 2.5\n")


# ------------------------------------------------------------- tables


def test_table_rendering_round_trips_reals(tmp_path):
    table = OutputTable(
        columns=("t_s", "value"),
        rows=((0.1, 1.0 / 3.0), (0.2, np.pi)),
    )
    path = tmp_path / "t.dat"
    write_table(table, path, "dat")
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s value"
    parsed = [float(cell) for cell in lines[2].split()]
    assert parsed[1] == np.pi  # 17 significant digits reproduce the double

    csv_path = tmp_path / "t.csv"
    write_table(table, csv_path, "csv")
    assert "," in csv_path.read_text().splitlines()[0]


def render_by_cells(table, path, fmt):
    """The per-cell table writer that write_table replaced: labels as they
    are, reals through f"{float(cell):.16e}"."""
    sep = "," if fmt == "csv" else " "
    with path.open("w") as out:
        out.write(sep.join(table.columns) + "\n")
        for row in table.rows:
            cells = (cell if isinstance(cell, str) else f"{float(cell):.16e}" for cell in row)
            out.write(sep.join(cells) + "\n")


@pytest.mark.parametrize("fmt", ["dat", "csv"])
def test_table_text_is_the_per_cell_rendering(tmp_path, fmt, monkeypatch):
    # Blocks of 7 rows, so that 40 rows end in a short block.
    monkeypatch.setattr(hpheat.cli, "_WRITE_ROWS", 7)
    rng = np.random.default_rng(3)
    reals = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
    reals[0] = (-0.0, 0.0, 1.0)
    reals[1] = (5e-324, -1.7976931348623157e308, 1e100)
    reals[2] = (1e-100, -2.5e-101, 9.999999999999999e99)
    rows = [tuple(r) for r in reals.tolist()]
    rows[3] = (np.float64(-0.0), np.float64(1e-123), 2)  # numpy scalars and an int
    labelled = tuple((f"p{i}", x) for i, x in enumerate(reals[:, 0].tolist()))
    for name, table in (
        ("reals", OutputTable(("t_s", "a", "b"), tuple(rows))),
        ("summary", OutputTable(("probe", "relative_max_discrepancy"), labelled)),
        ("one_row", OutputTable(("t_s", "a", "b"), tuple(rows[:1]))),
        ("empty", OutputTable(("t_s",), ())),
    ):
        write_table(table, tmp_path / f"{name}.{fmt}", fmt)
        render_by_cells(table, tmp_path / f"{name}_ref.{fmt}", fmt)
        got = (tmp_path / f"{name}.{fmt}").read_bytes()
        assert got == (tmp_path / f"{name}_ref.{fmt}").read_bytes(), name
    text = (tmp_path / f"reals.{fmt}").read_text()
    assert "-0.0000000000000000e+00" in text and "e-101" in text and "e+308" in text


# ------------------------------------------------------------- modes


def test_transient_mode_writes_deterministic_tables(tmp_path):
    config = parse_config(FAST_TRANSIENT)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(config, out_dir=str(out_a), fmt="dat")
    run(config, out_dir=str(out_b), fmt="dat")

    names = sorted(p.name for p in out_a.iterdir())
    assert names == [
        "transient_T_front_fourier.dat",
        "transient_T_rear_fourier.dat",
        "transient_q_mid_fourier.dat",
    ]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    front = (out_a / "transient_T_front_fourier.dat").read_text().splitlines()
    assert front[0] == "t_s temperature_k dimensionless"
    assert len(front) == 1 + 6  # header + initial instant + 5 steps
    flux = (out_a / "transient_q_mid_fourier.dat").read_text().splitlines()
    assert flux[0] == "t_s heat_flux_w_per_m2"


def test_oracle_check_mode(tmp_path, capsys):
    text = FAST_TRANSIENT.replace("mode = transient", "mode = oracle_check")
    config = parse_config(text + "oracle_cells = 50\n")
    run(config, out_dir=str(tmp_path), fmt="dat")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "oracle_check_summary_fourier.dat" in names
    assert "oracle_check_T_front_fourier.dat" in names
    summary = (tmp_path / "oracle_check_summary_fourier.dat").read_text().splitlines()
    assert summary[0] == "probe relative_max_discrepancy"
    assert len(summary) == 4
    out = capsys.readouterr().out
    assert "T_front" in out and "discrepancy" in out


def test_sweep_mode_writes_error_tables(tmp_path):
    text = """
mode = h_sweep
model = mcv
conductivity_w_per_m_k = 3000
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
n_steps = 5
sweep_taus_s = 0.3
sweep_values = 4 6
degree = 2
reference_elements = 8
reference_degree = 3
"""
    config = parse_config(text)
    run(config, out_dir=str(tmp_path), fmt="dat")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "h_sweep_T_front_mcv.dat",
        "h_sweep_T_rear_mcv.dat",
        "h_sweep_q_mid_mcv.dat",
    ]
    lines = (tmp_path / "h_sweep_T_front_mcv.dat").read_text().splitlines()
    assert lines[0] == "dof err_tau_0.3"
    assert len(lines) == 3
    dofs = [float(line.split()[0]) for line in lines[1:]]
    assert dofs == [2 * 4 * 3 + 1, 2 * 6 * 3 + 1]
    # Five steps cannot show convergence ordering; just demand real errors.
    errors = [float(line.split()[1]) for line in lines[1:]]
    assert all(np.isfinite(e) and e > 0.0 for e in errors)


def test_sweep_point_failures_are_reported_and_kept_as_rows(tmp_path, capsys):
    # Degree 12 lifts the temperature above the shape set cap; the sweep
    # reports it and goes on.
    config = tmp_path / "p_sweep.conf"
    config.write_text(
        MINIMAL_FOURIER.replace("mode = transient", "mode = p_sweep").replace("fourier", "mcv")
        + "n_steps = 5\nelements = 4\nsweep_taus_s = 0.3\nsweep_values = 2 12\n"
        + "reference_elements = 8\nreference_degree = 3\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["warning"] == "sweep_point_failed"
    assert (record["value"], record["tau"]) == (12, 0.3)
    lines = (out / "p_sweep_T_front_mcv.dat").read_text().splitlines()
    assert lines[0] == "dof err_tau_0.3"
    dof, error = map(float, lines[2].split())
    assert dof == -1 and np.isnan(error)


def test_run_rejects_unknown_format(tmp_path):
    config = parse_config(FAST_TRANSIENT)
    with pytest.raises(ConfigError):
        run(config, out_dir=str(tmp_path), fmt="xml")


# ------------------------------------------------------------- main


def test_main_success_and_error_paths(tmp_path, capsys):
    good = tmp_path / "good.conf"
    good.write_text(FAST_TRANSIENT)
    out = tmp_path / "out"
    assert main(["run", str(good), "--out", str(out)]) == 0
    assert (out / "transient_T_rear_fourier.dat").exists()
    capsys.readouterr()

    bad = tmp_path / "bad.conf"
    bad.write_text("mode = transient\n")
    assert main(["run", str(bad)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert "model" in record["message"]

    assert main(["run", str(tmp_path / "missing.conf")]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "io"

    # An output directory that is a file.
    assert main(["run", str(good), "--out", str(good)]) == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "io"


@pytest.mark.parametrize(
    "key,value",
    [
        ("initial_temperature_k", "nan"),
        ("density_kg_per_m3", "nan"),
        ("length_m", "inf"),
        ("dt_s", "-inf"),
        ("sweep_taus_s", "0.1 nan"),
        # A sweep keeps one run per distinct point, so a repeat is refused.
        ("sweep_taus_s", "0.3 0.3"),
        # Distinct taus that would share the error column err_tau_0.3.
        ("sweep_taus_s", "0.3 0.3000001"),
        ("sweep_values", "2 2 3"),
    ],
)
def test_main_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    kept = [line for line in FAST_TRANSIENT.splitlines() if not line.startswith(key)]
    text = "\n".join(kept) + f"\n{key} = {value}\n"
    if key.startswith("sweep_"):
        text = text.replace("mode = transient", "mode = p_sweep")
    config = tmp_path / "non_finite.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert key in record["message"]
    assert not out.exists() or list(out.glob("*")) == []


def test_main_reports_non_finite_boundary_data(tmp_path, capsys, monkeypatch, nan_from):
    # The pulse turns NaN from the third of five 1 ms steps on.
    def broken_pulse(params):
        return nan_from(flash_pulse(params), 2.5e-3)

    monkeypatch.setattr(hpheat.scenario, "flash_pulse", broken_pulse)
    config = tmp_path / "nan.conf"
    config.write_text(FAST_TRANSIENT)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert "step 3" in record["message"]
    assert list(out.glob("*")) == []


def test_oracle_check_reports_non_finite_oracle_data(tmp_path, capsys, monkeypatch, nan_from):
    # Only the oracle sees the pulse turn NaN, from the third of five 1 ms
    # steps on; the element solution is fine.
    real_oracle = hpheat.cli.fd_oracle

    def oracle_with_broken_pulse(scenario, **kwargs):
        broken = nan_from(scenario.bcs.left.value, 2.5e-3)
        bcs = replace(scenario.bcs, left=PrescribedFlux(broken))
        return real_oracle(replace(scenario, bcs=bcs), **kwargs)

    monkeypatch.setattr(hpheat.cli, "fd_oracle", oracle_with_broken_pulse)
    config = tmp_path / "nan.conf"
    config.write_text(
        FAST_TRANSIENT.replace("mode = transient", "mode = oracle_check") + "oracle_cells = 50\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert "step 3" in record["message"]
    assert list(out.glob("*")) == []


# The README transient config with negative pulse rates: they pass config
# validation, and the pulse's running integral overflows math.exp.
OVERFLOWING_PULSE = """
mode = transient
model = gk
conductivity_w_per_m_k = 3.0
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
relaxation_time_s = 0.3
kappa2_m2 = 8e-6
length_m = 0.005
dt_s = 1e-3
n_steps = 20
elements = 20
degree = 4
theta = 0.5
pulse_c1 = -1.0
pulse_c2 = -2.0
pulse_t_p_s = 0.00001
"""


def test_main_reports_overflow_as_numerical_failure(tmp_path, capsys):
    config = tmp_path / "overflow.conf"
    config.write_text(OVERFLOWING_PULSE)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("key", ["pulse_c1", "pulse_c2"])
def test_main_rejects_a_zero_pulse_rate(tmp_path, capsys, key):
    # The pulse's running integral divides by each rate.
    kept = [line for line in OVERFLOWING_PULSE.splitlines() if not line.startswith(key)]
    config = tmp_path / "zero_rate.conf"
    config.write_text("\n".join(kept) + f"\n{key} = 0.0\n")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert f"{key} must be nonzero" in record["message"]
    assert not out.exists() or list(out.glob("*")) == []


@pytest.mark.parametrize("mode", ["transient", "p_sweep", "oracle_check"])
def test_main_rejects_a_zero_pulse_amplitude(tmp_path, capsys, mode):
    # Such a pulse carries no energy, so no mode has a rise or a reference
    # to measure against; it fails before any assembly or output.
    kept = [line for line in OVERFLOWING_PULSE.splitlines() if not line.startswith("pulse_")]
    text = "\n".join(kept) + "\npulse_amplitude_w_per_m2 = 0\n"
    if mode == "p_sweep":
        text = text.replace("relaxation_time_s = 0.3", "")
    config = tmp_path / "zero_amplitude.conf"
    config.write_text(text.replace("mode = transient", f"mode = {mode}"))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert "pulse_amplitude_w_per_m2 must be nonzero" in record["message"]
    assert not out.exists() or list(out.glob("*")) == []


def test_oracle_check_failure_leaves_no_table(tmp_path, capsys):
    # The README config at zero steps: the element and oracle runs succeed,
    # and history_error then fails on a reference that is identically zero.
    kept = [line for line in OVERFLOWING_PULSE.splitlines() if not line.startswith("pulse_")]
    text = "\n".join(kept).replace("n_steps = 20", "n_steps = 0") + "\noracle_cells = 200\n"
    config = tmp_path / "zero_steps.conf"
    config.write_text(text.replace("mode = transient", "mode = oracle_check"))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert "identically zero" in record["message"]
    assert list(out.glob("*")) == []


def test_main_csv_format(tmp_path):
    good = tmp_path / "good.conf"
    good.write_text(FAST_TRANSIENT)
    out = tmp_path / "out"
    assert main(["run", str(good), "--out", str(out), "--format", "csv"]) == 0
    text = (out / "transient_T_front_fourier.csv").read_text()
    assert text.splitlines()[0] == "t_s,temperature_k,dimensionless"
