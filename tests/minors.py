"""A concurrence oracle that does not cancel: the sum of squared 2x2 minors.

For a unit vector cut into the d_S x d_R matrix M, the Cauchy-Binet formula
gives 1 - Tr rho_S^2 = 2 sum_{i<j, k<l} |M_ik M_jl - M_il M_jk|^2, so

    C_S = sqrt(2 (1 - Tr rho_S^2)) = 2 sqrt(sum |minor|^2).

Every term is nonnegative. A minor that is zero in exact arithmetic computes
to about eps |M_ik M_jl|, so a zero cut reads near eps, not near sqrt(eps)
as ``1 - Tr rho^2`` does. The cost grows as D^2 / 2 per cut, so the oracle
refuses states above ``MINORS_CAP`` amplitudes.
"""

from __future__ import annotations

import math

import numpy as np

from gmepyramid import Bipartition

MINORS_CAP = 2**8


def minor_sum(state, cut) -> float:
    """Sum of |minor|^2 over the 2x2 minors of ``state``'s matrix across ``cut``."""
    if state.dim > MINORS_CAP:
        raise ValueError(f"{state.dim} amplitudes exceed the minors oracle's cap {MINORS_CAP}")
    cut = cut if isinstance(cut, Bipartition) else Bipartition(cut, state.n)
    t = state.amplitudes.reshape(state.dims).transpose(cut.axes)
    m = t.reshape(math.prod(t.shape[: cut.size]), -1)
    if m.shape[0] > m.shape[1]:  # the pairs of the shorter side
        m = m.T
    i, j = np.triu_indices(m.shape[0], 1)
    # Row pair (i, j) gives the d_R x d_R matrix P_kl = M_ik M_jl; its minors
    # are P_kl - P_lk for k < l, and each appears twice in P - P^T.
    p = m[i][:, :, None] * m[j][:, None, :]
    return 0.5 * float(np.sum(np.abs(p - p.transpose(0, 2, 1)) ** 2))


def minor_concurrence(state, cut) -> float:
    """C_S = 2 sqrt(sum |minor|^2) across ``cut``, for a unit ``state``."""
    return 2.0 * math.sqrt(minor_sum(state, cut))


def minor_purity(state, cut) -> float:
    """Tr rho_S^2 = 1 - 2 sum |minor|^2, to compare with the purity routes."""
    return 1.0 - 2.0 * minor_sum(state, cut)
