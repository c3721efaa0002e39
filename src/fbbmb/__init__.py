"""Spectral solver for the time-fractional Benjamin-Bona-Mahony-Burgers equation
on the unit square, built on shifted Gegenbauer-Gauss collocation."""

from .assembly import (
    DiscreteSystem,
    ProblemSpec,
    assemble,
    compute_aae,
    evaluate_on_mesh,
    jacobian,
    jvp,
    reconstruct,
    residual,
    vjp,
)
from .basis import BasisParams, NodeSet, build_node_set
from .opmatrices import OperatorBundle, build_operator_bundle
from .problems import get_problem, register_problems
from .solver import SolverConfig, SolveReport, solve

__all__ = [
    "BasisParams",
    "NodeSet",
    "build_node_set",
    "OperatorBundle",
    "build_operator_bundle",
    "ProblemSpec",
    "DiscreteSystem",
    "assemble",
    "residual",
    "jacobian",
    "jvp",
    "vjp",
    "reconstruct",
    "evaluate_on_mesh",
    "compute_aae",
    "SolverConfig",
    "SolveReport",
    "solve",
    "get_problem",
    "register_problems",
]

__version__ = "0.1.0"
