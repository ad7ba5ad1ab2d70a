"""Sparse acoustic source reconstruction from boundary scattering data.

Forward model: Helmholtz volume potentials on a box grid with an
FFT-accelerated Lippmann-Schwinger solve.  Inverse solvers: a dual
augmented Lagrangian method with measurement-space semismooth Newton
steps, a primal semismooth Newton method with Moreau-Yosida path
following, and a first-order primal-dual baseline.
"""

from .alm import AlmOptions, AlmResult, solve_alm
from .forward import assemble_vb, ls_solve, source_to_measurement
from .grid import Grid, Medium, ReceiverSet, boundary_receivers
from .harness import ExperimentConfig, ExperimentResult, add_noise, n_error, run_experiment, run_suite
from .pda import PdaOptions, solve_pda
from .phantoms import PhantomSpec, make_medium, make_phantom
from .prox import RegParams, SolveResult, prox_p, soft_threshold
from .realfield import MeasurementOperator, derealify, realify, realify_matrix
from .ssn import SsnOptions, solve_ssn

__version__ = "0.1.0"

__all__ = [
    "AlmOptions", "AlmResult", "solve_alm",
    "assemble_vb", "ls_solve", "source_to_measurement",
    "Grid", "Medium", "ReceiverSet", "boundary_receivers",
    "ExperimentConfig", "ExperimentResult", "add_noise", "n_error", "run_experiment", "run_suite",
    "PdaOptions", "solve_pda",
    "PhantomSpec", "make_medium", "make_phantom",
    "RegParams", "SolveResult", "prox_p", "soft_threshold",
    "MeasurementOperator", "derealify", "realify", "realify_matrix",
    "SsnOptions", "solve_ssn",
    "__version__",
]
