"""Check the theta step against its public formulation, bit for bit.

Marches the four benchmark systems through `hpheat.timeint` twice: once
with `march` as it is (the step's three kernel calls on its buffer of
rows), and once with `march` replaced by a loop that writes every step as
`m_expl @ w`, then `rhs[load_rows] += load` with the load folded by
`load_fold @`, then LAPACK's dgbtrs on the vertex rows with the factors as
dgbtrf left them, and every probe value as `ProbeRow.evaluate` on the
coefficients of the state (`CondensedFactorization.coefficients`) in place
of the probes' rows that `condense` builds and `stack` joins.  The systems
are

- gk_overkill: GK, 100x10, theta 1, 2000 steps;
- mcv_reference: the MCV 100x10 overkill reference at tau 0.05, whose
  factorization interchanges one row;
- mcv_p_sweep: the MCV degree sweep at tau 0.05, one stacked march;
- cli_gk_20x4: the README's CLI transient config, 10^4 steps.

Each OpenBLAS kernel path (the default, then OPENBLAS_CORETYPE Haswell,
SandyBridge and Prescott) runs in a child process of its own.  The tool
prints, per path and system, the marched final-state values compared, how
many of them differ in any bit, the largest gap between the two
formulations' probe histories relative to the history's range, and a hash
of the march's output, which differs between kernel paths that round
differently.  It exits 1 on any differing bit of a state.  The probe
values are not held to bits: the march reads them off the state through
linear functionals, which round apart from the recovered coefficients.
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

from dataclasses import replace

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hpheat import scenario, study, timeint  # noqa: E402
from hpheat.condense import condense, stack  # noqa: E402
from hpheat.materials import ModelKind  # noqa: E402

CORETYPES = ("default", "Haswell", "SandyBridge", "Prescott")


class PublicProbes:
    """The probe rows, on the free numbering of a factorization, in place of
    its `functionals`, with unit `scales`: the product with a state is
    ProbeRow.evaluate on the state's coefficients, without the prescribed
    part that march leaves to its caller."""

    def __init__(self, fact, probes):
        self.fact = fact
        self.probes = [replace(r, cons_idx=r.cons_idx[:0], cons_w=r.cons_w[:0]) for r in probes]

    def __matmul__(self, w):
        alpha = self.fact.coefficients(w)
        return np.array([r.evaluate(None, alpha, 0.0) for r in self.probes])


def public(fact, probes):
    """fact with PublicProbes of the probe rows in place of its own."""
    fact = replace(fact, scales=np.ones(len(probes)))
    fact.functionals = PublicProbes(fact, probes)
    return fact


def public_condense(sys, dt, theta, probes=()):
    """condense with PublicProbes in place of the probes' rows."""
    return public(condense(sys, dt, theta), probes)


def public_stack(facts):
    """The stack of the members' factorizations, with their probe rows moved
    to the stack's free numbering, member after member."""
    bare = [replace(f, functionals=None, scales=np.zeros(0)) for f in facts]
    starts = np.cumsum([0] + [f.dim for f in facts])
    rows = [
        replace(r, free_idx=r.free_idx + s)
        for f, s in zip(facts, starts)
        for r in f.functionals.probes
    ]
    return public(stack(bare), rows)


def public_march(fact, loads, alpha0):
    """march in the public formulation, one step after the other: the probe
    values after every step and the final state."""
    nv = fact.n_vertex
    w = fact.state(np.array(alpha0, dtype=float))
    table = fact.load_fold @ loads.T
    history = np.empty((len(loads), fact.scales.size))
    for n in range(len(loads)):
        rhs = fact.m_expl @ w
        rhs[fact.load_rows] += table[:, n]
        if nv:
            rhs[:nv] = timeint.dgbtrs(fact.lu, fact.kl, fact.ku, rhs[:nv], fact.ipiv)[0]
        w = rhs
        history[n] = fact.functionals @ w
    return (fact.scales * history).T, fact.coefficients(w)


def mcv_sweep_spec(tau: float) -> study.SweepSpec:
    families = study.benchmark_sweep_families(taus=(tau,), dt=1e-3, n_steps=2000)
    return next(s for s in families if s.family == "mcv" and s.kind == "p")


def outputs(runs) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The probe histories and the final states of the runs."""
    return [r.solution.probe_values for r in runs], [r.solution.final_state for r in runs]


def systems():
    """Name and a callable that marches it and returns its probe histories
    and final states."""
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
        return outputs([runs[key] for key in sorted(runs)])

    def solve(sc, n, p, theta):
        return lambda: outputs([scenario.solve_transient(sc, n, p, theta=theta)])

    reference = spec.scenario_factory(0.05)
    return [
        ("gk_overkill", solve(gk, 100, 10, 1.0)),
        ("mcv_reference", solve(reference, study.REFERENCE_ELEMENTS, study.REFERENCE_DEGREE, 1.0)),
        ("mcv_p_sweep", sweep),
        ("cli_gk_20x4", solve(cli, 20, 4, 0.5)),
    ]


def child() -> None:
    """Marches every system both ways and prints one JSON line per system."""
    names = ("condense", "stack", "march")
    real = [getattr(timeint, name) for name in names]
    formulation = (public_condense, public_stack, public_march)
    for name, march in systems():
        got_values, got_states = march()
        for attr, value in zip(names, formulation):
            setattr(timeint, attr, value)
        try:
            want_values, want_states = march()
        finally:
            for attr, value in zip(names, real):
                setattr(timeint, attr, value)
        bits = [a.view(np.uint64) for a in got_states]
        digest = hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in got_values + got_states)
        ).hexdigest()[:12]
        differ = gap = -1
        if [a.shape for a in got_states + got_values] == [a.shape for a in want_states + want_values]:
            differ = sum(
                int(np.count_nonzero(b != w.view(np.uint64))) for b, w in zip(bits, want_states)
            )
            gap = max(
                float(np.max(np.abs(g - w) / np.ptp(w, axis=1)[:, None]))
                for g, w in zip(got_values, want_values)
            )
        print(json.dumps({
            "system": name, "values": int(sum(b.size for b in bits)), "differ": differ,
            "gap": gap, "hash": digest,
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
                else f"{r['differ']} of {r['values']} state values differ"
            )
            failed |= r["differ"] != 0
            print(
                f"{coretype:<12} {r['system']:<14} {verdict:<38} "
                f"probe gap {r['gap']:.1e} of range  hash {r['hash']}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
