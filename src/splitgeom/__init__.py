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

from .chart import (
    Axis,
    ChartManifold,
    connection_at,
    div_grad,
    divergence,
    integrate,
    laplacian_geom,
)
from .expr import DomainError, ExprError, ParseError, eval_jet, evaluate, parse_expr, to_source
from .hyperdual import HyperDual, seed_jets, value_of
from .identities import (
    CheckReport,
    Tolerances,
    integral_checks_batch,
    pointwise_checks,
    pointwise_fields,
)
from .splitting import (
    SplitContext,
    SplitStructure,
    SubsetIndex,
    coordinate_split,
    pair_predicates,
    subsets,
)

__all__ = [
    "Axis",
    "ChartManifold",
    "connection_at",
    "div_grad",
    "divergence",
    "integrate",
    "laplacian_geom",
    "DomainError",
    "ExprError",
    "ParseError",
    "eval_jet",
    "evaluate",
    "parse_expr",
    "to_source",
    "HyperDual",
    "seed_jets",
    "value_of",
    "CheckReport",
    "Tolerances",
    "integral_checks_batch",
    "pointwise_checks",
    "pointwise_fields",
    "SplitContext",
    "SplitStructure",
    "SubsetIndex",
    "coordinate_split",
    "pair_predicates",
    "subsets",
]
