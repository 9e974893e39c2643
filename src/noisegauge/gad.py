"""Closed forms for generalized amplitude-damping channels.

The (p, gamma) damping channel commutes with rotations about the z axis, so
its minimal depolarizing admixture is attained with the fixed point on the z
axis and reduces to a one-dimensional minimization over v_z with an explicit
solution.  All formulas below are stated for gamma <= 1/2; the channel at
(p, 1 - gamma) is unitarily equivalent to the one at (p, gamma) via
conjugation with sigma_x, so inputs with gamma > 1/2 are reflected first.
n uses of the (p, gamma) channel are one use at 1 - (1 - p)^n: hence the
band edges ``p_n``, and the two-use threshold is the one-use one at
p (2 - p).  Band edges are compared exactly.

Every closed form here is cross-checked in the test suite against the
representation-independent route (Choi matrix, partial transpose, exact
threshold solve along the mixing segment).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ROUND_TOL
from .report import DEFAULT_CAP, NcResult


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} = {value} outside [0, 1]")
    return value


def mu_vs_vz(p: float, gamma: float, vz: float) -> float:
    """Minimal admixture towards the z-axis state with bias vz.

    Evaluates, for gamma <= 1/2:

        mu = [p (4 p (g-1) g - 2 g vz + vz - 3) + 4 - sqrt(R)]
             / [4 p^2 (g-1) g + 2 p (-2 vz g + vz - 1) + vz^2 + 3],
        R  = p^2 (vz - 2g + 1)^2 + 4 p (vz^2 - 1) - 4 vz^2 + 4,

    clamped to [0, 1].  A negative R within ``ROUND_TOL`` of zero counts as
    zero (R vanishes exactly on region boundaries).
    """
    p = _check_unit("p", p)
    g = float(gamma)
    if not 0.0 <= g <= 0.5:
        raise ValueError(f"gamma = {g} outside [0, 1/2]; reflect gamma first")
    vz = float(vz)
    if not -1.0 <= vz <= 1.0:
        raise ValueError(f"vz = {vz} outside [-1, 1]")
    rad = p * p * (vz - 2 * g + 1) ** 2 + 4 * p * (vz * vz - 1) - 4 * vz * vz + 4
    if rad < 0.0:
        if rad < -ROUND_TOL:
            raise ValueError(f"negative discriminant {rad} beyond guard")
        rad = 0.0
    num = p * (4 * p * (g - 1) * g - 2 * g * vz + vz - 3) + 4 - np.sqrt(rad)
    den = 4 * p * p * (g - 1) * g + 2 * p * (-2 * vz * g + vz - 1) + vz * vz + 3
    if den == 0.0:
        # only at (p, g, vz) = (1, 0, -1), where the map is the constant
        # excited-state preparation and the threshold is zero
        return 0.0
    return float(min(1.0, max(0.0, num / den)))


def pbar(gamma: float) -> float:
    """Threshold p below which the optimal v_z lies strictly inside (-1, 1):

        pbar = (sqrt(4 g^2 - 8 g + 5) - 1) / (2 (1 - g)^2).
    """
    g = float(gamma)
    if not 0.0 <= g <= 0.5:
        raise ValueError(f"gamma = {g} outside [0, 1/2]")
    return float((np.sqrt(4 * g * g - 8 * g + 5) - 1) / (2 * (1 - g) ** 2))


def pbarbar(gamma: float) -> float:
    """Interior/endpoint threshold for the twice-applied channel, where
    p (2 - p) reaches pbar:

        pbarbar = 1 - sqrt(1 - pbar).
    """
    return float(1.0 - np.sqrt(1.0 - pbar(gamma)))


def vbar(p: float, gamma: float) -> float:
    """Interior minimizer of mu_vs_vz over v_z, valid for p <= pbar(gamma):

        vbar = p (p + 2 sqrt(1-p)) (1 - 2g) / (4 - p (p + 4)).
    """
    p = _check_unit("p", p)
    g = float(gamma)
    if p > pbar(g):
        raise ValueError(
            f"p = {p} > pbar = {pbar(g)}: the minimum sits at the endpoint vz = 1"
        )
    return float(p * (p + 2 * np.sqrt(1 - p)) * (1 - 2 * g) / (4 - p * (p + 4)))


def _mu_down(p: float) -> float:
    return (p * p + 3 * p + 2 * np.sqrt(1 - p) - 4) / (p * p + 2 * p - 3)


def _mu_up(p: float, g: float) -> float:
    return (p * (p * (g - 1) * g - 1) + 1) / (p * g * (p * (g - 1) - 1) + 1)


def mu_c_gad(p: float, gamma: float) -> float:
    """Minimal depolarizing admixture of the (p, gamma) damping channel.

    Two branches meeting continuously at pbar: below it the minimum over v_z
    is interior (and gamma drops out), above it the minimum sits at vz = 1.
    The upper branch vanishes on the first band edge p_1 = p_n(gamma, 1), so
    the threshold is zero exactly when p >= p_1, the comparison that gives
    ``n_c_gad`` its order 1.  Within a few ulps below p_1 the branch value
    can round to zero or below; it then reads as the smallest positive float.
    The ``p_n`` call checks gamma, which is then reflected to gamma <= 1/2.
    """
    p = _check_unit("p", p)
    if p >= p_n(gamma, 1):
        return 0.0
    g = min(float(gamma), 1.0 - float(gamma))
    value = _mu_down(p) if p <= pbar(g) else _mu_up(p, g)
    return max(math.ulp(0.0), float(value))


def mu_c_gad_squared(p: float, gamma: float) -> float:
    """Minimal depolarizing admixture of the twice-applied damping channel.

    Its transfer matrix is the one at 1 - (1 - p)^2, so this is ``mu_c_gad``
    at p (2 - p), with its branch point at pbarbar.  It is zero exactly when
    p >= p_n(gamma, 2), as ``n_c_gad`` has order <= 2: near that edge
    p (2 - p) can round to the other side of p_1.
    """
    p = _check_unit("p", p)
    if p >= p_n(gamma, 2):
        return 0.0
    return max(math.ulp(0.0), mu_c_gad(p * (2 - p), gamma))


def p_n(gamma: float, n: int) -> float:
    """Lower p-boundary of the channels whose n-th iterate breaks entanglement:

        p_n = 1 - (1 - 2 / (1 + sqrt(1 + 4 g (1 - g))))^(1/n),    p_0 = 1.

    Symmetric under gamma -> 1 - gamma.  For gamma in {0, 1} this is 1 for
    every n: pure amplitude damping never becomes entanglement breaking.
    """
    g = _check_unit("gamma", gamma)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    s = np.sqrt(1.0 + 4.0 * g * (1.0 - g))
    return float(1.0 - (1.0 - 2.0 / (1.0 + s)) ** (1.0 / n))


def n_c_gad(p: float, gamma: float, cap: int = DEFAULT_CAP) -> NcResult:
    """Entanglement-breaking order of the damping channel via the p_n bands.

    Order 1 is p >= p_1, where ``mu_c_gad`` reads zero.  gamma in {0, 1} with
    p < 1 is certified divergent (the band boundaries are identically 1
    there); any other exhausted cap is merely inconclusive.
    """
    p = _check_unit("p", p)
    g = _check_unit("gamma", gamma)
    if g in (0.0, 1.0) and p < 1.0:
        return NcResult(None, cap, proven_divergent=True)
    for n in range(1, cap + 1):
        if p >= p_n(g, n):
            return NcResult(n, cap)
    return NcResult(None, cap)


def amend_boundary_s1(gamma: float) -> float:
    """Lower p-boundary of the sigma_x-filter amendable band.

    With A = 4 g (1 - g) and s = sqrt(1 + A):

        p = (1 - s + sqrt((1 - 2 s)(1 - 2 g)^2 + 1)) / A.

    Above this curve the damping channel interleaved with a sigma_x
    conjugation has an entanglement-breaking square.  The expression is
    symmetric under gamma -> 1 - gamma and singular at gamma in {0, 1};
    the limit toward gamma = 0 is (sqrt(5) - 1) / 2.
    """
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError(f"gamma = {g} outside (0, 1); use the limit value at 0")
    a = 4.0 * g * (1.0 - g)
    s = np.sqrt(1.0 + a)
    inner = (1.0 - 2.0 * s) * (1.0 - 2.0 * g) ** 2 + 1.0
    return float((1.0 - s + np.sqrt(inner)) / a)
