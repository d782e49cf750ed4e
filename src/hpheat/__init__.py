"""Mixed hp finite element solver for 1D transient heat conduction.

Supports the Fourier, Maxwell-Cattaneo-Vernotte (MCV) and Guyer-Krumhansl
(GK) constitutive models in a two-field (temperature / heat flux) weak form,
with hierarchic shape functions of arbitrary degree, implicit theta-method
time stepping on a statically condensed factorization, flash-heating benchmark
scenarios, hp convergence studies and an independent finite difference
cross-check.
"""

__version__ = "0.1.0"
