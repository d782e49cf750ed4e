"""Tests of the benchmark itself: workloads, checks, spans and the result line.

Run with `python3 -m pytest -q perfbench/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import spans as spanlib
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny(name, tmp_path, seed=1):
    """A workload with 20 long steps, so that the slab still equilibrates and
    every check applies: 2 s at the study conductivity, 20 s for the CLI's
    k = 3 W/(m K)."""
    wl = workloads.build(name, seed, tmp_path, ROOT / "src")
    wl.dt = 1.0 if name == "cli_transient_gk" else 0.1
    wl.n_steps = 20
    return wl


def test_benchmark_json_matches_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_passes_checks_and_traces_every_layer_metric(name, tmp_path):
    wl = tiny(name, tmp_path)
    tally = run.Tally()
    wall, _, _ = run.full_call(wl, tally)
    assert (tally.attempted, tally.failed) == (wl.operations, 0), tally.problems
    assert run.replay(wl, tally, 0) > 0.0
    assert tally.failed == 0, tally.problems

    wall, spans, counts = run.full_call(wl, tally, run_id=7)
    assert tally.failed == 0, tally.problems
    assert spans and all(s.run == 7 for s in spans)
    assert spanlib.self_time_total(spans) <= wall
    metrics = spanlib.layer_metrics(spans, counts)
    assert set(metrics) | {"trace.overhead_s"} == PER_LAYER


def test_counts_repeat_exactly(tmp_path):
    wl = tiny("gk_overkill", tmp_path)
    calls = [wl.traced_run(wl.n_steps, run_id) for run_id in range(2)]
    counts = [spanlib.layer_metrics(spans, c) for _, _, spans, c in calls]
    exact = [*spanlib.COUNTED, *spanlib.DERIVED, "timeint.dgbtrs_calls"]
    assert {k: counts[0][k] for k in exact} == {k: counts[1][k] for k in exact}
    assert counts[0]["timeint.steps"] == 20
    assert counts[0]["assembly.unknowns"] == 2200
    assert counts[0]["assembly.half_bandwidth"] == 23


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    S = spanlib.Span
    spans = [
        S("root", 0, 100, -1, 0),
        S("a", 10, 30, 0, 0),
        S("b", 20, 50, 0, 0),    # overlaps a: the union [10, 50] counts once
        S("c", 90, 120, 0, 0),   # runs past the parent: only [90, 100] counts
        S("a.child", 12, 18, 1, 0),
    ]
    assert spanlib.self_times(spans) == [50, 14, 30, 30, 6]
    assert spanlib.self_time_total(spans) == 130 / 1e9


def test_layer_metrics_from_hand_built_spans():
    S = spanlib.Span
    spans = [
        S("timeint.integrate", 0, 1000, -1, 0),
        S("timeint.dgbtrs", 100, 200, 0, 0),
        S("timeint.dgbtrs", 400, 450, 0, 0),
        S("timeint.dgbtrs", 700, 800, 0, 0),
    ]
    m = spanlib.layer_metrics(spans, {"basis.gauss_rules": 4})
    assert m["timeint.dgbtrs_calls"] == 3
    assert m["timeint.dgbtrs_s"] == pytest.approx(250e-9)
    assert m["timeint.loop_self_s"] == pytest.approx(750e-9)
    assert m["timeint.step_us_p50"] == pytest.approx(0.3)
    assert m["basis.gauss_rules"] == 4
    assert m["fdoracle.splu_solve_calls"] == 0


class FakeReference:
    """Reference passes of given lengths, on a fake clock."""

    def __init__(self, passes, now):
        self.passes, self.now = list(passes), now

    def time(self):
        seconds = self.passes.pop(0)
        self.now[0] += seconds
        return seconds


def test_clock_divides_each_segment_by_the_passes_at_its_ends(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: now[0])
    clock = hostspeed.Clock(FakeReference([0.02, 0.06, 0.02, 0.04], now))
    clock.begin()
    now[0] += 2.0          # 2 s between passes of 0.02 and 0.06: 50 passes
    clock.lap()
    now[0] += 1.0          # 1 s between 0.06 and 0.02: 25 passes
    assert clock.end() == pytest.approx((3.0, 75.0))
    clock.begin()          # starts from the pass that ended the last call
    now[0] += 0.3          # between 0.02 and 0.04: 10 passes
    assert clock.end() == pytest.approx((0.3, 10.0))
    assert clock.passes == [0.02, 0.06, 0.02, 0.04]
    assert hostspeed.normalized([75.0, 10.0, 20.0]) == pytest.approx(
        20.0 * hostspeed.REFERENCE_SECONDS)


def test_reference_pass_is_timed():
    reference = hostspeed.Reference()
    assert 0.0 < reference.time() < 10.0


class Corrupting:
    """Delegates to a workload but damages its output before the check."""

    def __init__(self, inner, damage):
        self.inner, self.damage = inner, damage

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, n_steps):
        out = self.inner.run(n_steps)
        self.damage(out)
        return out


def _nan_state(run_out):
    run_out.solution.final_state[0] = np.nan


def _truncate_rear_table(out):
    path = out.out_dir / "transient_T_rear_gk.dat"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _break_ledger(sol):
    sol.final.T[:] += 1e-3


def _worsen_a_curve(output):
    refs, report = output
    curve = report.errors[(report.spec.taus[0], "q_mid")]
    curve[1] = 2.0 * curve[0]  # no longer falls before its floor


@pytest.mark.parametrize(
    "name, damage",
    [
        ("gk_overkill", _nan_state),
        ("cli_transient_gk", _truncate_rear_table),
        ("fd_oracle_gk", _break_ledger),
        ("sweep_mcv_p", _worsen_a_curve),
    ],
)
def test_corrupted_output_counts_as_failed(name, damage, tmp_path):
    wl = Corrupting(tiny(name, tmp_path), damage)
    tally = run.Tally()
    run.full_call(wl, tally)
    assert tally.failed >= 1 and tally.problems
    assert tally.failed <= tally.attempted == wl.operations


def test_raising_call_fails_all_its_operations(tmp_path):
    wl = tiny("sweep_mcv_p", tmp_path)
    wl.taus = (-1.0,) * 3  # a negative relaxation time is rejected
    tally = run.Tally()
    run.full_call(wl, tally)
    assert tally.failed == tally.attempted == wl.operations


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_carries_every_end_to_end_metric():
    proc = _bench(ROOT, "--workload", "fd_oracle_gk", "--seed", "2", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CALLS
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fd_oracle_gk failed_frac = 0" in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "gk_overkill", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
