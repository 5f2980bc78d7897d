"""Independent reference computations the tests check the package against."""

import math

import numpy as np

from digar import ModelParams, OutOfRangeError, tau_bar, variance_sequence, vbar_limit


def variance_sum_sequence(params: ModelParams, T: int) -> np.ndarray:
    """Compute V_1..V_T by the expanded sum formula, O(T^2).

    V_t^2 = sigma^2*(phi^{2(t-1)} + sum_{i=1}^{t-1} phi^{2(i-1)})
            + 2*rho*sigma*sum_{i=1}^{t-1} phi^{2i-1}*V_{t-i},
    where the lower-index V values are themselves produced by this same
    formula, so the route never touches the one-step recursion.
    """
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    phi = params.phi
    sig = params.sigma_xi
    even = (phi * phi) ** np.arange(T)  # phi^{2(i-1)} for i = 1..T
    odd = phi * even  # phi^{2i-1}
    prefix = np.cumsum(even)
    sig2 = sig * sig
    two_rho_sig = 2.0 * params.rho * sig
    vs = np.empty(T)
    vs[0] = sig
    for s in range(2, T + 1):
        head = even[s - 1] + prefix[s - 2]
        cross = float(np.dot(odd[: s - 1], vs[s - 2 :: -1]))
        vs[s - 1] = math.sqrt(sig2 * head + two_rho_sig * cross)
    return vs


def variance_sum_form(params: ModelParams, t: int) -> float:
    """Return V_t computed purely by the expanded sum formula."""
    return float(variance_sum_sequence(params, t)[-1])


def decay_bound_scan(params: ModelParams, T: int) -> float:
    """sup_t |tau_{t,t+1}| by brute force: the max of |tau_{t,t+1}| over
    V_1..V_T and of |tau_bar|.

    This is the bound only once the sequence has converged, so the scan
    refuses unless |V_T - vbar| < 1e-10*vbar; choose T large enough.
    """
    vs = variance_sequence(params, T).values
    vb = vbar_limit(params)
    if not abs(float(vs[-1]) - vb) < 1e-10 * vb:
        raise OutOfRangeError(f"variance sequence not converged at horizon {T}")
    taus = (params.phi * vs[:-1] + params.rho * params.sigma_xi) / vs[1:]
    return max(float(np.max(np.abs(taus))), abs(tau_bar(params)))
