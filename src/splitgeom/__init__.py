"""Numerical engine for divergence and integral identities of Riemannian
manifolds equipped with k mutually orthogonal distributions.

Submodules:

* ``hyperdual``    -- exact second-order forward-mode scalar and tensor jets
* ``expr``         -- small closed-form expression language (metrics, warps)
* ``chart``        -- coordinate charts, connection, curvature, quadrature
* ``splitting``    -- adapted frames, fundamental tensors of sub-distributions
* ``identities``   -- the divergence identities as pointwise/integral checks
* ``scenarios``    -- built-in twisted-torus and warped-product scenarios
* ``hypersurface`` -- hypersurfaces in space forms, principal curvature checks
* ``cli``          -- configuration ingestion, run orchestration, reports
"""

from .chart import Axis, ChartManifold, integrate
from .expr import DomainError, ExprError, ParseError, evaluate, parse_expr
from .hyperdual import HyperDual, seed_jets, value_of
from .identities import (
    CheckReport,
    Tolerances,
    integral_checks_batch,
    pointwise_fields,
    run_checks,
    select_checks,
)
from .splitting import (
    SplitContext,
    SplitStructure,
    coordinate_split,
    pair_predicates,
    subsets,
)

__all__ = [
    "Axis",
    "ChartManifold",
    "integrate",
    "DomainError",
    "ExprError",
    "ParseError",
    "evaluate",
    "parse_expr",
    "HyperDual",
    "seed_jets",
    "value_of",
    "CheckReport",
    "Tolerances",
    "integral_checks_batch",
    "pointwise_fields",
    "run_checks",
    "select_checks",
    "SplitContext",
    "SplitStructure",
    "coordinate_split",
    "pair_predicates",
    "subsets",
]
