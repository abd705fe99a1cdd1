"""Joint Stinespring dilations for families of completely positive maps
on finite-dimensional Hilbert C*-modules: construction, verification,
and unitary equivalence of minimal representations."""

from .algebra import AlgebraDescriptor, ModuleDescriptor
from .cpmaps import CPBlockMap, Instance, ModuleCPTuple, identity_instance, random_instance
from .dilation import (
    DilationData,
    GramFactorization,
    VerificationReport,
    build_gram,
    dilate,
    verify_dilation,
)
from .equivalence import EquivalenceWitness, build_unitaries, rotate_dilation, verify_diagram
from .linalg import DEFAULT_CUTOFF, DEFAULT_TOL
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AlgebraDescriptor",
    "ModuleDescriptor",
    "CPBlockMap",
    "ModuleCPTuple",
    "Instance",
    "random_instance",
    "identity_instance",
    "GramFactorization",
    "DilationData",
    "VerificationReport",
    "build_gram",
    "dilate",
    "verify_dilation",
    "EquivalenceWitness",
    "rotate_dilation",
    "build_unitaries",
    "verify_diagram",
    "DEFAULT_CUTOFF",
    "DEFAULT_TOL",
    "errors",
    "__version__",
]
