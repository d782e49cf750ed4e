"""Check the theta step against its public formulation, bit for bit.

Marches the four benchmark systems through `hpheat.timeint.march` twice:
once with the step as it is (`step_arrays` and `advance`), and once with
every step written as `m_expl @ w`, then `rhs[load_rows] += load`, then
LAPACK's dgbtrs on the vertex rows with the factors as dgbtrf left them.
The systems are

- gk_overkill: GK, 100x10, theta 1, 2000 steps;
- mcv_reference: the MCV 100x10 overkill reference at tau 0.05, whose
  factorization interchanges one row;
- mcv_p_sweep: the MCV degree sweep at tau 0.05, one stacked march;
- cli_gk_20x4: the README's CLI transient config, 10^4 steps.

Each OpenBLAS kernel path (the default, then OPENBLAS_CORETYPE Haswell,
SandyBridge and Prescott) runs in a child process of its own.  The tool
prints, per path and system, the float64 values compared, how many of them
differ in any bit, and a hash of the step's output, which differs between
kernel paths that round differently.  It exits 1 on any differing bit.
Run it from anywhere as

    python tools/step_check.py

It takes about 2 s per kernel path on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hpheat import scenario, study, timeint  # noqa: E402
from hpheat.materials import ModelKind  # noqa: E402

CORETYPES = ("default", "Haswell", "SandyBridge", "Prescott")


def public_advance(fact, x, y):
    """advance's step in the public formulation, with the factorization
    itself in place of its step arrays."""
    dim, nv = fact.dim, fact.n_vertex
    rhs = fact.m_expl @ x[:dim]
    rhs[fact.load_rows] += x[dim:]
    if nv:
        rhs[:nv] = timeint.dgbtrs(fact.lu, fact.kl, fact.ku, rhs[:nv], fact.ipiv)[0]
    y[:dim] = rhs


def mcv_sweep_spec(tau: float) -> study.SweepSpec:
    families = study.benchmark_sweep_families(taus=(tau,), dt=1e-3, n_steps=2000)
    return next(s for s in families if s.family == "mcv" and s.kind == "p")


def outputs(run) -> list[np.ndarray]:
    return [run.solution.probe_values, run.solution.final_state]


def systems():
    """Name and a callable that marches it and returns its output arrays."""
    gk = scenario.benchmark_scenario(
        ModelKind.GK, tau=0.3, kappa2=8e-6, conductivity=study.STUDY_CONDUCTIVITY,
        dt=1e-3, n_steps=2000,
    )
    cli = scenario.benchmark_scenario(
        ModelKind.GK, tau=0.3, kappa2=8e-6, conductivity=3.0, dt=1e-3, n_steps=10000
    )
    spec = mcv_sweep_spec(0.05)

    def sweep():
        runs = study.solve_sweep(spec, theta=1.0).runs
        return [a for key in sorted(runs) for a in outputs(runs[key])]

    return [
        ("gk_overkill", lambda: outputs(scenario.solve_transient(gk, 100, 10, theta=1.0))),
        ("mcv_reference", lambda: [
            s.values
            for s in study.compute_reference(spec.scenario_factory(0.05), theta=1.0).series.values()
        ]),
        ("mcv_p_sweep", sweep),
        ("cli_gk_20x4", lambda: outputs(scenario.solve_transient(cli, 20, 4, theta=0.5))),
    ]


def child() -> None:
    """Marches every system both ways and prints one JSON line per system."""
    step_arrays, advance = timeint.step_arrays, timeint.advance
    for name, march in systems():
        got = march()
        timeint.step_arrays, timeint.advance = (lambda fact: fact), public_advance
        try:
            want = march()
        finally:
            timeint.step_arrays, timeint.advance = step_arrays, advance
        bits = [np.ascontiguousarray(a).view(np.uint64).ravel() for a in got]
        digest = hashlib.sha256(b"".join(b.tobytes() for b in bits)).hexdigest()[:12]
        differ = -1
        if [a.shape for a in got] == [w.shape for w in want]:
            differ = sum(
                int(np.count_nonzero(b != np.ascontiguousarray(w).view(np.uint64).ravel()))
                for b, w in zip(bits, want)
            )
        print(json.dumps({
            "system": name, "values": int(sum(b.size for b in bits)), "differ": differ,
            "hash": digest,
        }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    failed = False
    for coretype in CORETYPES:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if coretype != "default":
            env["OPENBLAS_CORETYPE"] = coretype
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        proc = subprocess.run(
            [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            print(f"{coretype}: child failed with exit code {proc.returncode}\n{proc.stderr}")
            failed = True
            continue
        for line in proc.stdout.splitlines():
            r = json.loads(line)
            verdict = (
                "shapes differ" if r["differ"] < 0
                else f"{r['differ']} of {r['values']} values differ"
            )
            failed |= r["differ"] != 0
            print(f"{coretype:<12} {r['system']:<14} {verdict:<32} hash {r['hash']}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
