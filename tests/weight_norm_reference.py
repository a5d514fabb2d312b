"""Table of the mean weight normalization m_n(alpha) for lookups by size.

m_n = Gamma(n + S) / (Gamma(n) Gamma(S + 1)) through its recurrence
m_{n+1} = m_n (1 + S/n), summed in log space as one cumulative sum; the
library's mean_weight_norm evaluates one n with math.fsum instead, so the
two agree to rounding.  It uses nothing from kactails.
"""

import numpy as np


def mean_weight_norm_table(S_alpha, n_max) -> np.ndarray:
    """Array [m_1, ..., m_{n_max}] for vectorized lookups by tree size."""
    if S_alpha <= -1.0:
        raise ValueError("mean weight norm needs S_alpha > -1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = np.empty(n_max)
    out[0] = 1.0
    if n_max > 1:
        out[1:] = np.exp(np.cumsum(np.log1p(S_alpha / np.arange(1, n_max, dtype=float))))
    return out
