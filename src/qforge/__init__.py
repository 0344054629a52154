"""qforge: exact and numeric engine for 2phi1 three-term relations,
telescoping pipelines, shift-vector symmetry, and basic hypergeometric
identity verification."""

__version__ = "0.1.0"

from .approx import ApproxScalar
from .closedform import closed_form_eval
from .exact import ExactScalar, format_scalar, parse_scalar
from .families import ParamFamily, solution_families
from .forge import (
    IdentityRecord,
    PipelineRun,
    check_family,
    conjecture_check,
    default_registry,
    load_registry,
    product_R,
    sv5_cauchy_check,
    telescoped_check,
    verify_identity,
)
from .poly import MultiPoly, RationalFunction
from .qseries import (
    Phi21Params,
    SeriesValue,
    phi21_exact,
    phi21_numeric,
    qpoch_finite,
    qpoch_infinite,
)
from .relations import (
    ShiftVector,
    ThreeTermRelation,
    qr_derive,
    qr_lookup,
    relation_residual,
)
from .symmetry import (
    FullPoint,
    apply_generator,
    canonical_representative,
    from_lambda,
    orbit_enumerate,
    to_lambda,
)

__all__ = [
    "ApproxScalar", "ExactScalar", "FullPoint", "IdentityRecord",
    "MultiPoly", "ParamFamily", "Phi21Params", "PipelineRun", "RationalFunction",
    "SeriesValue", "ShiftVector", "ThreeTermRelation",
    "apply_generator", "canonical_representative", "check_family", "closed_form_eval",
    "conjecture_check", "default_registry", "format_scalar", "from_lambda",
    "load_registry", "orbit_enumerate", "parse_scalar", "phi21_exact", "phi21_numeric",
    "product_R", "qpoch_finite", "qpoch_infinite", "qr_derive", "qr_lookup",
    "relation_residual", "solution_families",
    "sv5_cauchy_check", "telescoped_check", "to_lambda", "verify_identity",
]
