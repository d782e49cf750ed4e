"""The traced benchmark wraps hpheat callables by module attribute name.

perfbench/spans.py lists those names, and computes sizes and per-step
counts from fields of the system and the factorization; a refactor that
renames or moves one would otherwise only surface when a traced benchmark
run fails.  These tests resolve every listed name the way the recorder does,
compute the counts from a real system and factorization, and read the
sizes of a real table write.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

from hpheat.assembly import BoundarySpec, Mesh, PrescribedFlux, assemble, global_matrices
from hpheat.cli import OutputTable, write_table
from hpheat.materials import MaterialParams, ModelKind
from hpheat.timefun import ZERO, constant
from hpheat.timeint import ThetaScheme, build_factorization

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is created.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = _spans_module()
    missing = []
    for table in (spans.SPANNED, spans.COUNTED):
        for name, targets in table.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                leaf = attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = owner.__dict__.get(cls_name)
                if owner is None or not callable(vars(owner).get(leaf)):
                    missing.append(f"{name}: {module_name}.{attr}")
    assert not missing, missing


def _gk_system_and_factorization():
    mat = MaterialParams(2600.0, 800.0, 3.0, tau=0.3, kappa2=8e-6)
    bcs = BoundarySpec(left=PrescribedFlux(constant(1e4)), right=PrescribedFlux(ZERO))
    sys_ = assemble(Mesh.uniform(4, 0.005), mat, ModelKind.GK, 3, bcs)
    return sys_, build_factorization(sys_, ThetaScheme(1.0, 1e-3, 1))


def test_step_cost_reads_a_real_factorization():
    # The computed per-step counts read fields of the factorization object
    # (lu, ipiv, kl, ku, dim, m_expl, row_scale, col_scale) by name.
    _, fact = _gk_system_and_factorization()
    bytes_step, flops_step = _spans_module()._band_step_cost(fact)
    assert bytes_step > fact.m_expl.data.nbytes
    assert flops_step > 2 * fact.m_expl.nnz


def test_derived_counts_read_a_real_system():
    # The computed sizes read the system's dim, A, B and half_bandwidth,
    # which are built from its element blocks on request.
    spans = _spans_module()
    sys_, fact = _gk_system_and_factorization()
    recorded = [
        spans.Span("assembly.assemble", 0, 1, -1, 0, {"system": sys_}),
        spans.Span("timeint.integrate", 2, 5, -1, 0, {"steps": 7}),
        spans.Span("timeint.build_factorization", 3, 4, 1, 0, {"factorization": fact}),
    ]
    counts = spans.derived_counts(recorded)
    a_full, b_full = global_matrices(sys_)
    free = sys_.dofmap.free_to_full
    pattern = (abs(a_full[free][:, free]) + abs(b_full[free][:, free])).tocoo()
    assert counts["assembly.unknowns"] == free.size
    assert counts["assembly.half_bandwidth"] == int(np.max(np.abs(pattern.row - pattern.col)))
    assert counts["assembly.half_bandwidth"] > fact.kl
    assert counts["assembly.nnz"] == pattern.nnz
    assert counts["timeint.steps"] == 7
    assert counts["timeint.lu_bytes"] == fact.lu.nbytes


def test_write_table_capture_reads_an_array_table(tmp_path):
    # The traced CLI run sums the rows and bytes of every table written, and
    # the CLI hands write_table its rows as a 2-D array.
    path = tmp_path / "table.dat"
    args = (OutputTable(("t_s", "a", "b"), np.arange(15.0).reshape(5, 3)), path, "dat")
    captured = _spans_module()._CAPTURE["cli.write_table"](args, {}, write_table(*args))
    assert captured == {"rows": 5, "bytes": path.stat().st_size}
    assert len(path.read_text().splitlines()) == 1 + 5
