"""Mixed hp finite element solver for 1D transient heat conduction.

Supports the Fourier, Maxwell-Cattaneo-Vernotte (MCV) and Guyer-Krumhansl
(GK) constitutive models in a two-field (temperature / heat flux) weak form,
with hierarchic shape functions of arbitrary degree, implicit theta-method
time stepping on a banded LU factorization, flash-heating benchmark
scenarios, hp convergence studies and an independent finite difference
cross-check.
"""

from .materials import MaterialParams, ModelKind
from .timefun import TimeFunction
from .basis import ShapeSet, QuadratureRule, gauss_rule
from .assembly import (
    Mesh,
    Field,
    Continuity,
    SpaceSpec,
    BoundarySpec,
    DirichletTemperature,
    PrescribedFlux,
    DofMap,
    SemiDiscreteSystem,
    approximation_spaces,
    build_dofmap,
    assemble,
    apply_initial_conditions,
)
from .timeint import ThetaScheme, BandedFactorization, TransientSolution, build_factorization, integrate
from .scenario import (
    PulseParams,
    Scenario,
    ProbeSeries,
    flash_pulse,
    benchmark_material,
    benchmark_scenario,
    solve_transient,
    dimensionless_temperature,
    steady_temperature_rise,
    wavefront_arrival_estimate,
)
from .study import (
    SweepSpec,
    ReferenceSolution,
    ErrorReport,
    relative_max_error,
    compute_reference,
    run_sweep,
    benchmark_sweep_families,
    fd_oracle,
)
from .fdoracle import StaggeredGrid, fd_step, fd_solve

__version__ = "0.1.0"
