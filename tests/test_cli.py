"""End-to-end tests of the command line front end and its config dialect."""

import json
import math
import runpy
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpheat.assembly
import hpheat.cli
import hpheat.scenario
import hpheat.study
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
SWEEP_MCV = SWEEP_FOURIER.replace("model = fourier", "model = mcv")


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
    # A Fourier sweep's only tau is 0.
    (SWEEP_MCV, "sweep_taus_s", "0.1 0.2", "sweep_taus", (0.1, 0.2)),
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
    # The diffusive model has one relaxation time, 0.
    assert config.sweep_taus == ((0.0,) if model == "fourier" else spec.taus)
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
        ("reference_elements = 0", "reference_elements must be >= 1"),
        ("reference_degree = 12", "reference_degree must be in 1..11"),
        ("pulse_c2 = 0", "pulse_c2 must be nonzero"),
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


# (key, faulty value) for every key with a range rule, in the order of
# RunConfig's fields.
RANGE_FAULTS = [
    ("length_m", "-1"),
    ("dt_s", "0"),
    ("theta", "2"),
    ("pulse_amplitude_w_per_m2", "0"),
    ("pulse_c1", "0"),
    ("pulse_c2", "0"),
    ("pulse_t_p_s", "0"),
    ("n_steps", "-1"),
    ("elements", "0"),
    ("degree", "0"),
    ("reference_elements", "0"),
    ("reference_degree", "0"),
    ("oracle_cells", "2"),
    ("sweep_taus_s", "0.3 0.3"),
    ("sweep_values", "4"),
]


def test_several_faults_report_the_first_declared_key():
    field_of = {case[1]: case[3] for case in FIELD_CASES}
    ranged = [field_of[key] for key, _ in RANGE_FAULTS]
    assert ranged == [f.name for f in fields(RunConfig) if f.name in ranged]
    # Equal rates, a rule that reads two keys, come after every key's own rules.
    base = SWEEP_MCV + "pulse_c1 = 6.0\npulse_c2 = 6.0\n"
    for first in range(len(RANGE_FAULTS) + 1):
        faults = dict(RANGE_FAULTS[first:])
        kept = [line for line in base.splitlines() if line.split("=")[0].strip() not in faults]
        text = "\n".join(kept + [f"{key} = {value}" for key, value in faults.items()])
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\n")
        if faults:
            assert str(err.value).startswith(f"{RANGE_FAULTS[first][0]} ")
        else:
            assert str(err.value) == "pulse_c1 and pulse_c2 must differ"


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
    with pytest.raises(ConfigError, match="missing required key 'mode'"):
        parse_config(MINIMAL_FOURIER.replace("mode = transient\n", ""))
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


def _renders_like_the_cells(table, directory, fmt):
    """write_table's text is render_by_cells' text, byte for byte."""
    write_table(table, directory / f"got.{fmt}", fmt)
    render_by_cells(table, directory / f"want.{fmt}", fmt)
    got = (directory / f"got.{fmt}").read_bytes()
    assert got == (directory / f"want.{fmt}").read_bytes()
    return got.decode()


# Raw 64-bit patterns: any at all, and ones built from a sign, an exponent
# field leaning to its ends (zeros and subnormals at 0, inf and NaN payloads
# at 2047) and a mantissa leaning to its ends.
_BITS = st.integers(0, 2**64 - 1) | st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.sampled_from([0, 1, 2046, 2047]) | st.integers(0, 2047),
    st.sampled_from([0, 1, 2**51, 2**52 - 1]) | st.integers(0, 2**52 - 1),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_BITS, _BITS), min_size=1, max_size=8))
def test_any_float64_renders_as_the_per_cell_writer(tmp_path_factory, bits):
    reals = np.array(bits, dtype=np.uint64).view(np.float64)
    directory = tmp_path_factory.mktemp("bits")
    for fmt in ("dat", "csv"):
        _renders_like_the_cells(OutputTable(("a", "b"), reals), directory, fmt)


def _awkward_reals():
    """Every power of ten a double comes near and both its neighbours, where
    the decimal exponent taken from log10 is off by one; every power of two
    and both its neighbours, among them exact 17th-digit ties; the extreme
    normals and subnormals."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = 2.0 ** np.arange(-1074, 1024)
    return np.concatenate((
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        twos,
        np.nextafter(twos, 0.0),
        np.nextafter(twos, np.inf),
        [1e23, 2.2250738585072014e-308, 2.225073858507201e-308, 5e-324],
        [1.7976931348623157e308, -1.7976931348623157e308, -1e-200, 1.5e-100],
    ))


@pytest.mark.parametrize("fmt", ["dat", "csv"])
def test_awkward_reals_render_as_the_per_cell_writer(tmp_path, fmt, monkeypatch):
    # Blocks of 450 cells, so that the fallback cells land in several.
    monkeypatch.setattr(hpheat.cli, "_WRITE_ROWS", 150)
    reals = _awkward_reals()
    reals = np.concatenate((reals, -reals[::-1], [0.0, 0.0]))
    table = OutputTable(("a", "b", "c"), reals.reshape(-1, 3))
    text = _renders_like_the_cells(table, tmp_path, fmt)
    # Ties to even, one where the power of ten is a double (2**50 + 0.25).
    for cell in (
        "2.9802322387695312e-08", "1.1258999068426242e+15", "9.9999999999999992e+22",
        "1.0000000000000000e+23", "1.7976931348623157e+308", "4.9406564584124654e-324",
        "-9.9999999999999998e-201", "1.0000000000000000e+100", "1.5000000000000000e-100",
    ):
        assert cell in text


@pytest.mark.parametrize("block_rows", [1, 2, 3, 10, 11])
def test_block_boundaries_keep_every_byte(tmp_path, block_rows, monkeypatch):
    monkeypatch.setattr(hpheat.cli, "_WRITE_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    reals = rng.standard_normal((10, 3)) * 10.0 ** rng.integers(-120, 120, (10, 3))
    reals[4] = (np.nan, 2.0**-25, -np.inf)
    labelled = tuple(
        (f"probe_{i}" * (i % 3), "x", r) for i, r in enumerate(reals[:, 0].tolist())
    )
    for table in (
        OutputTable(("t_s", "a", "b"), reals),
        OutputTable(("probe", "quantity", "value"), labelled),
    ):
        for fmt in ("dat", "csv"):
            _renders_like_the_cells(table, tmp_path, fmt)


def test_the_fast_path_renders_ordinary_histories(tmp_path, monkeypatch):
    fallbacks = []
    exact = hpheat.cli._exact
    monkeypatch.setattr(hpheat.cli, "_exact", lambda x: fallbacks.append(x) or exact(x))
    run(parse_config(FAST_TRANSIENT), out_dir=str(tmp_path / "transient"), fmt="dat")
    assert len(list((tmp_path / "transient").iterdir())) == 3
    # Only the zeros at t = 0, two per table, go to '%.16e'.
    assert fallbacks == [0.0] * 6
    fallbacks.clear()
    for odd in (2.0**-25, np.nan, 0.0, -0.0):
        table = OutputTable(("a", "b"), np.array([[1.0, -3.0], [odd, 1e-3]]))
        _renders_like_the_cells(table, tmp_path, "dat")
        assert np.array_equal(fallbacks, [odd], equal_nan=True)
        fallbacks.clear()


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


@pytest.mark.parametrize(
    "mode,values,complaint",
    [
        # Degree 12 lifts the temperature above the shape set cap.
        ("p_sweep", "2 12", "sweep_values must be in 1..11 (temperature degree cap), got 12"),
        ("p_sweep", "0 2", "sweep_values must be in 1..11 (temperature degree cap), got 0"),
        ("h_sweep", "0 4", "sweep_values must be >= 1, got 0"),
    ],
)
def test_sweep_values_take_the_rule_of_the_key_they_replace(tmp_path, capsys, mode, values, complaint):
    config = tmp_path / "sweep.conf"
    config.write_text(
        MINIMAL_FOURIER.replace("mode = transient", f"mode = {mode}").replace("fourier", "mcv")
        + f"n_steps = 5\nsweep_taus_s = 0.3\nsweep_values = {values}\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "config", "message": complaint}
    assert not out.exists()


def test_a_sweep_point_that_fails_is_reported_and_kept_as_a_row(tmp_path, capsys, monkeypatch):
    # A mesh of 6 elements cannot be built, for the sweep's members and for
    # its own DOF count alike; the sweep reports it and goes on.
    def build_dofmap(mesh, *args):
        if mesh.n_elements == 6:
            raise ValueError("no dofmap on 6 elements")
        return real(mesh, *args)

    real = hpheat.assembly.build_dofmap
    monkeypatch.setattr(hpheat.assembly, "build_dofmap", build_dofmap)
    monkeypatch.setattr(hpheat.study, "build_dofmap", build_dofmap)
    config = tmp_path / "h_sweep.conf"
    config.write_text(
        MINIMAL_FOURIER.replace("mode = transient", "mode = h_sweep").replace("fourier", "mcv")
        + "n_steps = 5\nsweep_taus_s = 0.3\nsweep_values = 6 4\n"
        + "reference_elements = 8\nreference_degree = 3\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {
        "warning": "sweep_point_failed",
        "value": 6,
        "tau": 0.3,
        "message": "no dofmap on 6 elements",
    }
    lines = (out / "h_sweep_T_front_mcv.dat").read_text().splitlines()
    assert lines[0] == "dof err_tau_0.3"
    dof, error = map(float, lines[1].split())
    assert dof == -1 and np.isnan(error)
    dof, error = map(float, lines[2].split())
    assert dof > 0 and np.isfinite(error)


FOURIER_P_SWEEP = MINIMAL_FOURIER.replace("mode = transient", "mode = p_sweep") + """
n_steps = 5
elements = 4
sweep_values = 1 2
reference_elements = 8
reference_degree = 3
"""


def test_a_fourier_sweep_defaults_to_tau_zero(tmp_path, capsys):
    config = tmp_path / "fourier.conf"
    config.write_text(FOURIER_P_SWEEP)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    lines = (out / "p_sweep_T_rear_fourier.dat").read_text().splitlines()
    assert lines[0] == "dof err_tau_0"
    assert len(lines) == 3


def test_a_fourier_sweep_with_a_nonzero_tau_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "fourier.conf"
    config.write_text(FOURIER_P_SWEEP + "sweep_taus_s = 0 0.3\n")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert "Fourier model requires tau = 0" in record["message"]
    assert not out.exists()


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


def test_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    # `python -m hpheat.cli` exits with main's status.  The module runs
    # afresh as __main__; left in sys.modules, runpy would warn about it.
    bad = tmp_path / "bad.conf"
    bad.write_text("mode = transient\n")
    good = tmp_path / "good.conf"
    good.write_text(FAST_TRANSIENT)
    monkeypatch.delitem(sys.modules, "hpheat.cli")
    for path, status in ((bad, 2), (good, 0)):
        monkeypatch.setattr(sys, "argv", ["hpheat", "run", str(path), "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("hpheat.cli", run_name="__main__")
        assert exit_.value.code == status
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert (tmp_path / "transient_T_rear_fourier.dat").exists()


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
# validation, and the pulse's exponentials overflow to inf within a few steps.
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
    # exp(-c t / t_p) overflows first for the most negative rate, once
    # -c t / t_p passes log(DBL_MAX), and the step ending at the first grid
    # time past that is the first whose mean is not finite.  The steps before
    # it stay finite: their exponents lie ~110 below the limit, far more than
    # the log of the pulse's prefactors and the 1 / dt of a step mean.
    pulse = parse_config(OVERFLOWING_PULSE)
    fastest = -min(pulse.pulse_c1, pulse.pulse_c2)
    limit = np.log(np.finfo(float).max) * pulse.pulse_t_p / fastest
    first = math.floor(limit / pulse.dt) + 1
    assert record["message"] == f"non-finite boundary data at step {first}"
    assert list(out.glob("*")) == []


def test_main_reports_a_float_overflow_as_numerical_failure(tmp_path, capsys):
    # The oracle's cell width on an absurdly long slab has no finite square,
    # which its kappa2 / dx**2 needs; the oracle says so before marching.
    kept = [line for line in OVERFLOWING_PULSE.splitlines() if not line.startswith("pulse_")]
    text = "\n".join(kept).replace("length_m = 0.005", "length_m = 1e200") + "\noracle_cells = 3\n"
    config = tmp_path / "long.conf"
    config.write_text(text.replace("mode = transient", "mode = oracle_check"))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert record["message"] == "cell width length / cells = 1e+200 / 3 squares to inf"
    assert not out.exists() or list(out.glob("*")) == []


def test_main_reports_a_huge_integer_key_as_numerical_failure(tmp_path, capsys):
    # Python raises OverflowError when it converts an integer beyond the
    # double range to float, here in the oracle's length / cells.
    text = OVERFLOWING_PULSE.replace("mode = transient", "mode = oracle_check")
    kept = [line for line in text.splitlines() if not line.startswith("pulse_")]
    config = tmp_path / "huge.conf"
    config.write_text("\n".join(kept) + "\noracle_cells = 1" + "0" * 400 + "\n")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "numerical", "message": "int too large to convert to float"}
    assert not out.exists() or list(out.glob("*")) == []


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
