"""Public/private communication over quantum channels with a secret key.

Subpackages:

- qcore:     density operators, entropies, trace-norm distance
- channels:  Kraus channels, Stinespring extensions, channel zoo
- entropics: classical-quantum states and their mutual informations
- region:    one-shot rate region, membership tests, ensemble optimizer
- resources: exact-rational resource expressions and protocol derivations
- wiretap:   finite-blocklength classical wiretap-code simulation
- cli:       command-line front end with reproducible manifests
"""

__version__ = "0.2.1"

from .qcore import (
    DensityOperator,
    maximally_correlated_state,
    partial_trace,
    tensor,
    trace_norm_distance,
    von_neumann_entropy,
)
from .channels import (
    IsometricExtension,
    QuantumChannel,
    cq_embedding_channel,
    dephasing_channel,
    depolarizing_channel,
    erasure_channel,
    identity_channel,
    isometric_extension,
    zoo,
)
from .entropics import (
    CqState,
    InputEnsemble,
    build_cq_state,
    cond_mutual_info_YB_given_X,
    cond_mutual_info_YE_given_X,
    mutual_info_XB,
    mutual_info_XE,
    mutual_info_XYB,
    mutual_info_XYE,
)
from .region import (
    OptimizerConfig,
    RateTriple,
    RegionConstraints,
    is_in_one_shot_region,
    one_shot_constraints,
    optimize_region,
    pareto_surface,
    skp_constraints,
)

__all__ = [
    "__version__",
    "DensityOperator", "tensor", "partial_trace",
    "von_neumann_entropy", "trace_norm_distance", "maximally_correlated_state",
    "QuantumChannel", "IsometricExtension", "isometric_extension", "zoo",
    "identity_channel", "dephasing_channel", "depolarizing_channel",
    "erasure_channel", "cq_embedding_channel",
    "InputEnsemble", "CqState", "build_cq_state",
    "mutual_info_XB", "mutual_info_XE", "cond_mutual_info_YB_given_X",
    "cond_mutual_info_YE_given_X", "mutual_info_XYB", "mutual_info_XYE",
    "RateTriple", "RegionConstraints", "OptimizerConfig",
    "one_shot_constraints", "is_in_one_shot_region", "skp_constraints",
    "optimize_region", "pareto_surface",
]
