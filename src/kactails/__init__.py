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
    classify_regime,
    spectral,
)
from .initial_data import AsymmetricPareto, SymmetricPareto
from .weights import grow_weights_batch, mean_weight_norm
from .processes import (
    ForestSample,
    alpha_sums,
    forest_statistics,
    law_sums,
    sample_yule,
)
from .limits import (
    ZPool,
    cdf_H_infinity,
    cf_V_infinity,
    sample_V_infinity,
    zpool_iterate,
)
from .deviations import (
    BoundsReport,
    admissible_schedule,
    iid_hit_counts,
    lemma_bounds,
    max_ode_residual,
    tail_hit_counts,
    tail_ratios,
)

__version__ = "0.1.0"
