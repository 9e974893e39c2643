"""Reference answers and answer checks, written independently of noisegauge.

Every closed form the checks need is evaluated here from the paper's
formulas, so a change to the library cannot change its own oracle.  Nothing
in this module imports noisegauge.

Order checks use one rule: an answer ``n`` is right when the entanglement-
breaking (EB) condition fails at every order below ``n`` and holds at ``n``;
``exceeds_cap`` is right when it fails at every order up to the cap.  A
condition is a signed slack ``d(m)`` that is ``>= 0`` exactly when the m-fold
channel is EB.  An order whose slack lies within ``margin`` of zero counts as
undecided and is accepted either way; the margin is zero for the damping
bands, whose edges the workloads hit on purpose.
"""

from __future__ import annotations

import math

import numpy as np

MU_TOL = 1e-3  # acceptance criterion 07: numeric threshold vs closed form
BAND_MARGIN = 1e-12  # trace-norm, Gaussian and fig1 band edges
S1_MARGIN = 1e-6  # fig3/fig4: distance in p from the s1 boundary or p_2


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def p_n(gamma: float, n: int) -> float:
    """Damping band edge: the n-fold channel is EB iff p >= p_n(gamma)."""
    if n == 0:
        return 1.0
    s = math.sqrt(1.0 + 4.0 * gamma * (1.0 - gamma))
    return 1.0 - (1.0 - 2.0 / (1.0 + s)) ** (1.0 / n)


def mu_c_gad(p: float, gamma: float) -> float:
    """Two-branch threshold of the (p, gamma) damping channel."""
    g = min(gamma, 1.0 - gamma)
    pbar = (math.sqrt(4 * g * g - 8 * g + 5) - 1) / (2 * (1 - g) ** 2)
    if p <= pbar:
        value = (p * p + 3 * p + 2 * math.sqrt(1 - p) - 4) / (p * p + 2 * p - 3)
    else:
        value = (p * (p * (g - 1) * g - 1) + 1) / (p * g * (p * (g - 1) - 1) + 1)
    return max(0.0, value)


def mu_c_gad_squared(p: float, gamma: float) -> float:
    """Threshold of the twice-applied damping channel."""
    g = min(gamma, 1.0 - gamma)
    pbarbar = (math.sqrt(4 * g * g - 8 * g + 5) + 2 * g - 3) / (2 * (g - 1))
    if p <= pbarbar:
        value = (p * p - 4 * p + 2) / (p * p - 4 * p + 3)
    else:
        q = (p - 2) * p
        value = (q * (q * (g - 1) * g + 1) + 1) / (q * g * (q * (g - 1) + 1) + 1)
    return max(0.0, value)


def s1_boundary(gamma: float) -> float:
    """Lower p-edge of the band where the sigma_x sandwich is EB."""
    if gamma in (0.0, 1.0):
        return (math.sqrt(5.0) - 1.0) / 2.0
    a = 4.0 * gamma * (1.0 - gamma)
    s = math.sqrt(1.0 + a)
    inner = (1.0 - 2.0 * s) * (1.0 - 2.0 * gamma) ** 2 + 1.0
    return (1.0 - s + math.sqrt(inner)) / a


def gauss_threshold(family: str, k: float, n: int) -> float:
    """Added noise N0 above which the n-fold isotropic channel is EB."""
    k2n = k ** (2 * n)
    if family == "attenuation":
        return k2n * (1.0 - k * k) / (1.0 - k2n)
    return (k * k - 1.0) / (k2n - 1.0)


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def mu_c_unital(t: np.ndarray) -> float:
    tn = trace_norm(t)
    return max(0.0, (tn - 1.0) / tn)


# ---------------------------------------------------------------------------
# order checks
# ---------------------------------------------------------------------------

def order_ok(claimed, slack, cap: int, margin: float) -> bool:
    """Is ``claimed`` (int or None) the first order m <= cap with slack(m) >= 0?"""
    last = cap if claimed is None else claimed
    if claimed is not None and not 1 <= claimed <= cap:
        return False
    for m in range(1, last + 1):
        d = slack(m)
        if abs(d) <= margin:
            continue
        if (d >= 0) != (m == claimed):
            return False
    return True


def gad_slack(p: float, gamma: float):
    return lambda m: p - p_n(gamma, m)


def unital_slack(t: np.ndarray):
    powers = [np.eye(3)]

    def slack(m: int) -> float:
        while len(powers) <= m:
            powers.append(powers[-1] @ t)
        return 1.0 - trace_norm(powers[m])

    return slack


def gauss_slack(family: str, k: float, n0: float):
    return lambda m: n0 - gauss_threshold(family, k, m)


def diagonal_slack(lams):
    mags = [abs(x) for x in lams]
    return lambda m: 1.0 - sum(x ** m for x in mags)


def parse_order(cell):
    """CSV or JSON order cell -> int or None."""
    if cell in ("inf", "exceeds_cap"):
        return None
    return int(cell)
