"""Monte Carlo toolkit for Yule-tree weighted sums.

Samples the branching representation of a generalized Kac-type kinetic
equation, constructs its self-similar limit laws (stable mixtures and
Frechet mixtures driven by a common mixing variable), and estimates
heavy-tailed large-deviation probabilities with guarded confidence
intervals.
"""

from .kernels import (
    CollisionKernel,
    DeterministicKernel,
    DiscreteKernel,
    KacKernel,
    Regime,
    RegimeUnavailableError,
    SpectralReport,
    UserKernel,
    classify_regime,
    h_of_t,
    spectral,
)
from .initial_data import (
    AsymmetricPareto,
    SymmetricPareto,
    TailProfile,
    UnsupportedLawError,
    UserLaw,
    tail_profile,
    tail_remainder,
)
from .weights import (
    WeightArray,
    WeightNorm,
    grow_weights,
    grow_weights_batch,
    mean_weight_norm,
    mean_weight_norm_table,
    tilde_M,
)
from .processes import (
    ForestSample,
    PathSample,
    forest_statistics,
    sample_path,
    sample_yule,
    wild_oracle_max,
)
from .limits import (
    StableParams,
    ZPool,
    cdf_H_infinity,
    cf_V_infinity,
    sample_V_infinity,
    stable_params,
    zpool_from_trees,
    zpool_iterate,
)
from .deviations import (
    BaselineEstimate,
    BoundsReport,
    TailEstimate,
    admissible_schedule,
    estimate_tail,
    iid_baseline,
    lemma_bounds,
    max_ode_residual,
)

__version__ = "0.1.0"
