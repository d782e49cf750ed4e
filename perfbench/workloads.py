"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload calls hpheat through its public entry point and looks names
up on the module at call time (`scenario.solve_transient`, not a from-import),
so that the span recorder's wrappers see the calls.  `run(n_steps)` performs
one workload call and returns its raw output; `n_steps = 0` replays
everything before the first time step, which is what `setup_s` times.
`check(output)` maps each failed operation to a reason.  An operation is one
transient, FD solve or CLI invocation.

Seed 0 gives the nominal relaxation times; any other seed draws each of them
uniformly within +-10% of nominal, which keeps the regime and the work size.

The element and FD workloads step 2000 times (2 s of simulated time) rather
than the 10^4 steps of acceptance criterion 9: a 10^4-step call takes 3-7 s
on a 2-core host, too long to repeat enough times within one benchmark run
for a steady median.  At 2 s every study case has equilibrated, so
the rear-temperature check still applies.  The CLI workload keeps the
README's 10^4 steps; it runs at k = 3 W/(m K) and needs the full 10 s to
equilibrate.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hpheat import fdoracle, scenario, study
from hpheat.materials import ModelKind

import spans as spanlib

N_STEPS = 2000
CLI_N_STEPS = 10000

# Relative energy-ledger defect above which a run is wrong.  Measured defects
# are ~1e-8 (the absolute temperature carries 293 K under a ~8 mK signal);
# a wrong mass matrix or load treatment moves the ledger by 1e-3 or more.
LEDGER_TOL = 1e-5
# Final dimensionless rear temperature of an equilibrated slab.
REAR_RANGE = (0.9, 1.02)
# Error floor every p-sweep curve must reach.
FLOOR_MAX = 1e-6

PERFBENCH = Path(__file__).resolve().parent
CLI_CHILD = PERFBENCH / "cli_child.py"


def draw_taus(seed: int, nominal: tuple[float, ...]) -> tuple[float, ...]:
    if seed == 0:
        return nominal
    rng = random.Random(seed)
    return tuple(t * rng.uniform(0.9, 1.1) for t in nominal)


def rear_problem(values: np.ndarray, rise: float, t0: float) -> str | None:
    """None when the final rear temperature sits in REAR_RANGE, else a reason."""
    if not np.all(np.isfinite(values)):
        return "non-finite rear temperature history"
    final = (values[-1] - t0) / rise
    if not REAR_RANGE[0] <= final <= REAR_RANGE[1]:
        return f"final dimensionless rear temperature {final:.4f} outside {REAR_RANGE}"
    return None


def ledger_problem(stored: float, injected: float) -> str | None:
    defect = abs(stored - injected) / abs(injected)
    if not defect <= LEDGER_TOL:
        return f"energy ledger defect {defect:.2e} > {LEDGER_TOL:.0e}"
    return None


def element_run_problems(run) -> list[str]:
    """Finite output, equilibrated rear face and a closed energy ledger."""
    sc = run.scenario
    problems = [
        f"{label} history not finite"
        for label, s in run.series.items()
        if not np.all(np.isfinite(s.values))
    ]
    if not np.all(np.isfinite(run.solution.final_state)):
        return problems + ["final state not finite"]
    rise = scenario.steady_temperature_rise(sc)
    rear = rear_problem(run.series["T_rear"].values, rise, sc.initial_temperature)
    if rear:
        problems.append(rear)
    t_end = sc.final_time
    stored = sc.material.volumetric_heat_capacity * (
        scenario.temperature_integral(run.system, run.solution.final_state, t_end)
        - sc.initial_temperature * sc.length
    )
    ledger = ledger_problem(stored, scenario.net_boundary_energy(sc, t_end))
    if ledger:
        problems.append(ledger)
    return problems


def curve_problem(errors: np.ndarray) -> str | None:
    """A p-sweep error curve must be finite, fall monotonically until it
    reaches its floor, and reach a floor of at most FLOOR_MAX."""
    if not np.all(np.isfinite(errors)):
        return "non-finite error curve"
    count = study.pre_floor_count(errors)
    if np.any(np.diff(errors[:count]) >= 0.0):
        return "error curve does not fall monotonically to its floor"
    if errors.min() > FLOOR_MAX:
        return f"error floor {errors.min():.1e} > {FLOOR_MAX:.0e}"
    return None


class Workload:
    """One seeded workload; subclasses define run() and check()."""

    name: str
    operations: int
    n_steps = N_STEPS
    # The benchmark's time step; the tests raise it so that a few steps
    # still reach the equilibrated state the checks expect.
    dt = 1e-3
    spawns_processes = False

    def run(self, n_steps: int):
        raise NotImplementedError

    def lap(self) -> None:
        """Marks a phase boundary inside a long call; the end-to-end run
        replaces it with its clock's lap, which re-reads the host's speed."""

    def check(self, output) -> dict[str, str]:
        raise NotImplementedError

    def traced_run(self, n_steps: int, run_id: int):
        """(output, wall seconds, spans, counts) of one call under the span
        recorder; the wall time excludes the recorder's post-processing."""
        recorder = spanlib.Recorder(run_id)
        with recorder.installed():
            start = time.perf_counter()
            output = self.run(n_steps)
            wall = time.perf_counter() - start
        return output, wall, recorder.spans, recorder.finish()

    def cleanup(self, output) -> None:
        """Release what one call left behind (files, for the CLI)."""


class GkOverkill(Workload):
    """Criterion-9 case: GK wave-like, 100x10 at theta = 1, 2200 unknowns."""

    name = "gk_overkill"
    operations = 1

    def __init__(self, seed: int):
        (self.tau,) = draw_taus(seed, (0.3,))

    def run(self, n_steps: int):
        sc = scenario.benchmark_scenario(
            ModelKind.GK,
            tau=self.tau,
            kappa2=8e-6,
            conductivity=study.STUDY_CONDUCTIVITY,
            dt=self.dt,
            n_steps=n_steps,
        )
        return scenario.solve_transient(sc, 100, 10, theta=1.0)

    def check(self, run) -> dict[str, str]:
        problems = element_run_problems(run)
        return {"transient": "; ".join(problems)} if problems else {}


class SweepMcvP(Workload):
    """Overkill reference plus the serial MCV degree sweep for one tau.

    Successive calls cycle through the three taus.  One call for all three
    takes 4-6 s on a 2-core host, too long for enough calls per run to give
    a steady median; every tau costs the same work, so a call per tau
    measures the same thing at a third of the length.  The call laps
    between its references and its sweep, so that the end-to-end clock
    re-reads the host's speed halfway.
    """

    name = "sweep_mcv_p"

    def __init__(self, seed: int):
        self.taus = draw_taus(seed, (0.05, 0.15, 0.3))
        self.calls = 0
        self.operations = 1 + len(self._spec(N_STEPS, self.taus[0]).values)

    def _spec(self, n_steps: int, tau: float) -> study.SweepSpec:
        families = study.benchmark_sweep_families(taus=(tau,), dt=self.dt, n_steps=n_steps)
        for spec in families:
            if spec.family == "mcv" and spec.kind == "p":
                return spec
        raise LookupError("no MCV degree sweep among the benchmark families")

    def run(self, n_steps: int):
        tau = self.taus[self.calls % len(self.taus)]
        self.calls += 1
        spec = self._spec(n_steps, tau)
        refs = {
            tau: study.compute_reference(spec.scenario_factory(tau), theta=1.0)
            for tau in spec.taus
        }
        self.lap()
        if n_steps == 0:
            # The sweep's error measure needs a history; replay each point's
            # set-up through the same entry point the sweep uses.
            for value in spec.values:
                n, p = spec.discretization(value)
                for tau in spec.taus:
                    scenario.solve_transient(spec.scenario_factory(tau), n, p, theta=1.0)
            return refs, None
        return refs, study.run_sweep(spec, refs, theta=1.0)

    def check(self, output) -> dict[str, str]:
        refs, report = output
        failed = {}
        for tau, ref in refs.items():
            sc = ref.scenario
            rear = rear_problem(
                ref.series["T_rear"].values,
                scenario.steady_temperature_rise(sc),
                sc.initial_temperature,
            )
            if rear:
                failed[f"reference tau={tau:g}"] = rear
        values = report.spec.values
        for value, tau, message in report.failures:
            failed[f"p={value} tau={tau:g}"] = message
        for (tau, label), errors in report.errors.items():
            problem = curve_problem(errors)
            if problem:
                for value in values:
                    failed.setdefault(f"p={value} tau={tau:g}", f"{label}: {problem}")
        return failed


CLI_CONFIG = """\
# pulse enters at x = 0, rear face insulated
mode = transient
model = gk
conductivity_w_per_m_k = 3.0
density_kg_per_m3 = 2600
specific_heat_j_per_kg_k = 800
relaxation_time_s = {tau!r}
kappa2_m2 = 8e-6
length_m = 0.005
dt_s = {dt!r}
n_steps = {n_steps}
elements = 20
degree = 4
theta = 0.5
"""
CLI_TABLES = ("T_front", "T_rear", "q_mid")


@dataclass
class CliOutput:
    returncode: int
    stderr: str
    out_dir: Path
    n_steps: int


class CliTransientGk(Workload):
    """A fresh `python -m hpheat.cli run` process on the README transient config."""

    name = "cli_transient_gk"
    operations = 1
    n_steps = CLI_N_STEPS
    spawns_processes = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        (self.tau,) = draw_taus(seed, (0.3,))
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.calls = 0

    def _prepare(self, n_steps: int) -> tuple[Path, Path]:
        self.calls += 1
        config = self.workdir / f"config-{self.calls}.txt"
        config.write_text(CLI_CONFIG.format(tau=self.tau, dt=self.dt, n_steps=n_steps))
        return config, self.workdir / f"out-{self.calls}"

    def _invoke(self, argv: list[str], out_dir: Path, n_steps: int) -> CliOutput:
        proc = subprocess.run(
            argv, env=self.env, capture_output=True, text=True, timeout=120
        )
        return CliOutput(proc.returncode, proc.stderr, out_dir, n_steps)

    def run(self, n_steps: int) -> CliOutput:
        config, out_dir = self._prepare(n_steps)
        argv = [sys.executable, "-m", "hpheat.cli", "run", str(config), "--out", str(out_dir)]
        return self._invoke(argv, out_dir, n_steps)

    def traced_run(self, n_steps: int, run_id: int):
        config, out_dir = self._prepare(n_steps)
        spans_file = self.workdir / f"spans-{self.calls}.json"
        argv = [
            sys.executable, str(CLI_CHILD), str(spans_file), str(run_id),
            "run", str(config), "--out", str(out_dir),
        ]
        start = time.perf_counter()
        output = self._invoke(argv, out_dir, n_steps)
        wall = time.perf_counter() - start
        spans, counts = spanlib.load_spans(spans_file) if spans_file.exists() else ([], {})
        return output, wall, spans, counts

    def check(self, out: CliOutput) -> dict[str, str]:
        if out.returncode != 0:
            return {"cli": f"exit code {out.returncode}: {out.stderr.strip()[-300:]}"}
        problems = []
        times = np.arange(out.n_steps + 1) * self.dt
        for label in CLI_TABLES:
            path = out.out_dir / f"transient_{label}_gk.dat"
            try:
                table = np.loadtxt(path, skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name} does not parse back: {exc}")
                continue
            if table.shape[0] != out.n_steps + 1:
                problems.append(f"{path.name} has {table.shape[0]} rows, expected {out.n_steps + 1}")
                continue
            if not np.all(np.isfinite(table)):
                problems.append(f"{path.name} holds non-finite values")
                continue
            if not np.allclose(table[:, 0], times, rtol=0.0, atol=1e-12):
                problems.append(f"{path.name} time column is off the step grid")
            if label == "T_rear":
                rear = rear_problem(table[:, 2], 1.0, 0.0)
                if rear:
                    problems.append(rear)
        return {"cli": "; ".join(problems)} if problems else {}

    def cleanup(self, out: CliOutput) -> None:
        shutil.rmtree(out.out_dir, ignore_errors=True)


class FdOracleGk(Workload):
    """The criterion-7 gk_wave finite difference solve, 2000 cells."""

    name = "fd_oracle_gk"
    operations = 1
    cells = 2000

    def __init__(self, seed: int):
        (self.tau,) = draw_taus(seed, (0.3,))

    def problem(self) -> scenario.Scenario:
        return scenario.benchmark_scenario(
            ModelKind.GK,
            tau=self.tau,
            kappa2=8e-6,
            conductivity=study.STUDY_CONDUCTIVITY,
            dt=self.dt,
        )

    def run(self, n_steps: int):
        sc = self.problem()
        return fdoracle.fd_solve(
            sc.material,
            sc.length,
            sc.initial_temperature,
            sc.bcs.left.value,
            sc.bcs.right.value,
            cells=self.cells,
            dt=sc.dt,
            n_steps=n_steps,
            theta=1.0,
            probe_temperatures=(0.0, sc.length),
            probe_fluxes=(0.5 * sc.length,),
        )

    def check(self, sol) -> dict[str, str]:
        sc = self.problem()
        problems = []
        if not all(np.all(np.isfinite(v)) for v in (sol.final.T, sol.final.q)):
            return {"fd_solve": "final state not finite"}
        t_end = sol.times[-1]
        injected = sc.bcs.left.value.integral(t_end) - sc.bcs.right.value.integral(t_end)
        stored = (
            sc.material.volumetric_heat_capacity
            * sol.final.dx
            * float(np.sum(sol.final.T - sc.initial_temperature))
        )
        rise = injected / (sc.material.volumetric_heat_capacity * sc.length)
        rear = rear_problem(sol.temperature_probes[sc.length], rise, sc.initial_temperature)
        ledger = ledger_problem(stored, injected)
        problems = [p for p in (rear, ledger) if p]
        return {"fd_solve": "; ".join(problems)} if problems else {}


NAMES = ("gk_overkill", "sweep_mcv_p", "cli_transient_gk", "fd_oracle_gk")


def build(name: str, seed: int, workdir: Path, src: Path) -> Workload:
    if name == "gk_overkill":
        return GkOverkill(seed)
    if name == "sweep_mcv_p":
        return SweepMcvP(seed)
    if name == "cli_transient_gk":
        return CliTransientGk(seed, workdir, src)
    if name == "fd_oracle_gk":
        return FdOracleGk(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
