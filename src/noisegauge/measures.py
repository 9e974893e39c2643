"""The two noise functionals: depolarizing threshold and iteration order.

``mu_given_rho0`` computes the minimal probability of mixing a channel with
the "prepare rho0" map before the mixture becomes entanglement breaking.  It
is solved exactly.  With G the partial transpose of the channel's Choi matrix
and P = rho0 (x) 1/2, every point (1-mu) G + mu P of the mixing segment is the
partial transpose of a two-qubit state, and the partial transpose decides
separability for two qubits.  The partial transpose of an entangled two-qubit
state is full rank with exactly one negative eigenvalue, so the segment stays
nonsingular until the onset of separability, and the onset is the smallest
root of det((1-mu) G + mu P) = 0 in (0, 1].  With S = sqrt(rho0) (x) 1/sqrt(2)
the roots are mu = 1/(1 - nu) for the eigenvalues nu < 0 of the Hermitian
matrix S G^-1 S, so the threshold is one 4x4 eigen-solve.

For rho0 = (1 + w.sigma)/2, sqrt(rho0) = c0 1 + c.sigma with s = sqrt(1-|w|^2)/2,
c0 = sqrt(1+2s)/2 and c = w / (2 sqrt(1+2s)), so S G^-1 S = (1/2) sum_jk c_j c_k
Q_jk with Q_jk = (sigma_j (x) 1) G^-1 (sigma_k (x) 1), sigma_0 = 1: one 16x16
table per channel, then (c (x) c) @ table and one 4x4 eigvalsh per state
(``_mu_threshold``).

``mu_c`` minimizes that threshold over the prepared state rho0.  Unital and
damping channels have exact closed forms; everything else runs one
derivative-free Nelder-Mead search (``nelder_mead``) over the Bloch ball,
with the closed forms and a convex-programming oracle checking it in the
test suite.  One start suffices because the threshold is quasi-convex in
rho0: at a fixed mixing weight the EB condition is a PSD constraint affine
in rho0.  The search runs on the folded coordinate w = sin(|x|) x / |x|,
which maps R^3 onto the closed ball with no plateau, so an optimum on the
sphere is an interior minimum of the folded objective.

``n_c`` is the smallest number of self-compositions after which the channel
breaks entanglement; by monotonicity of the EB^n families a single upward
scan suffices.  Damping channels read it off their closed-form bands.  Every
other channel runs ``_order_scan``, which multiplies transfer matrices: the
3x3 Bloch matrix of a ``UnitalChannel``, judged by trace norms, and the 4x4
PTM otherwise, judged by the smallest eigenvalue of the partial transpose.
The amendability search runs the same scan over a stack of filters, so a
channel's order and its filtered orders come from one route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gad as gadforms
from .channels import (
    Channel,
    GadParams,
    IDENTITY_2,
    PAULIS,
    UnitalChannel,
    choi_from_ptm,
    density_to_bloch,
    ptm,
    validate_density,
)
from .report import NcResult, NoiseReport
from .separability import ChoiState, decide_eb, ptm_partial_transpose

DEFAULT_CAP = 64


def mu_c_upper_bound(d: int) -> float:
    """Dimension bound d / (1 + d) on the depolarizing threshold."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return d / (1.0 + d)


def mu_c_unital(c: UnitalChannel) -> float:
    """Exact threshold for unital channels: (||T||_1 - 1) / ||T||_1, and 0
    exactly when ``decide_eb`` finds the channel entanglement breaking.
    Otherwise its margin m is ||T||_1 - 1, so the threshold is m / (1 + m)."""
    eb, margin = decide_eb(c.t)
    return 0.0 if eb else float(margin / (1.0 + margin))


# sigma_j (x) 1 for j = 0..3, with sigma_0 = 1.
_SIGMA_1 = np.array([np.kron(s, IDENTITY_2) for s in PAULIS])


def _threshold_table(c: Channel) -> np.ndarray | None:
    """The 16x16 table with row 4j + k holding Q_jk / 2 (module docstring),
    or None when the channel is entanglement breaking (threshold 0); a map
    that is not completely positive raises ``ValueError``."""
    r = ptm(c)
    ChoiState(choi_from_ptm(r))
    if decide_eb(r)[0]:
        return None
    q = (_SIGMA_1 @ np.linalg.inv(ptm_partial_transpose(r)))[:, None] @ _SIGMA_1
    return 0.5 * q.reshape(16, 16)


def _mu_threshold(table: np.ndarray, w) -> float:
    """Separability onset along (1-mu) G + mu rho0 (x) 1/2 for the Bloch
    vector w of rho0, given the table of ``_threshold_table``.

    The roots of det((1-mu) G + mu P) are mu = 1/(1 - nu) for the negative
    eigenvalues nu of S G^-1 S with S S = P; the smallest root comes from the
    most negative nu.  Without a negative nu the segment meets no root before
    its PSD endpoint P, so the onset is 1.  S G^-1 S is (c (x) c) @ table for
    sqrt(rho0) = c0 1 + c.sigma, c0 = sqrt(1+2s)/2, c = w / (2 sqrt(1+2s)),
    s = sqrt(1-|w|^2)/2.  A w outside the ball is projected radially onto it,
    and a non-finite entry raises ``ValueError``.
    """
    x, y, z = w
    r = math.hypot(x, y, z)
    if not math.isfinite(r):
        raise ValueError("Bloch vector entries must be finite")
    if r > 1.0:
        x, y, z, r = x / r, y / r, z / r, 1.0
    root = math.sqrt(1.0 + math.sqrt((1.0 - r) * (1.0 + r)))
    k = 0.5 / root
    c = np.array([0.5 * root, k * x, k * y, k * z])
    nu = float(np.linalg.eigvalsh(((c[:, None] * c).reshape(16) @ table).reshape(4, 4))[0])
    return 1.0 / (1.0 - nu) if nu < 0.0 else 1.0


def mu_given_rho0(c: Channel, rho0) -> float:
    """Minimal mixing probability towards the fixed state rho0, solved exactly:
    the smallest root in (0, 1] of det((1-mu) G + mu rho0 (x) 1/2) = 0, G the
    partial transpose of the Choi matrix, by ``_mu_threshold`` (module
    docstring).  Returns 0 when the channel is already entanglement breaking.
    """
    w = density_to_bloch(validate_density(rho0))
    table = _threshold_table(c)
    return 0.0 if table is None else _mu_threshold(table, w.tolist())


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in the order of ``np.argsort`` on the values."""
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


# Stopping tolerances of ``nelder_mead``, in each coordinate and in value.
XATOL = 1e-4
FATOL = 1e-12


def nelder_mead(f, x0, maxiter: int) -> tuple[np.ndarray, float]:
    """Minimize a scalar f from x0 by the unbounded, non-adaptive Nelder-Mead
    simplex method (Nelder & Mead 1965; Lagarias, Reeds, Wright & Wright
    1998), and return the best vertex and the smallest value.

    The initial simplex scales each coordinate of x0 by 1.05, or sets it to
    0.00025 when it is zero.  The reflection, expansion, contraction and
    shrink coefficients are 1, 2, 0.5 and 0.5.  The run stops once every
    vertex lies within ``XATOL`` of the best one in each coordinate and
    within ``FATOL`` of it in value, or after `maxiter` iterations.  It
    follows the reference implementation the test suite holds it to, so f
    sees the same points (lists of floats, which it must leave unchanged) in
    the same order and the result agrees bit for bit: the vertices take the
    reference's operations in its order, and ``np.argsort`` orders them, as
    in the reference, because ``sorted`` breaks exact ties differently.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(x) for x in sim]
    # The reference sorts twice here; argsort need not be stable on ties.
    for _ in range(2):
        sim, fsim = _by_value(sim, fsim)

    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if (all(abs(v - b) <= XATOL for s in sim[1:] for v, b in zip(s, best))
                and all(abs(fbest - fs) <= FATOL for fs in fsim[1:])):
            break
        worst = sim[-1]
        # Summed vertex by vertex, as the reference does: from Python 3.12
        # on, sum() compensates the rounding of a float sum.
        xbar = sim[0]
        for s in sim[1:-1]:
            xbar = [m + v for m, v in zip(xbar, s)]
        xbar = [m / n for m in xbar]
        xr = [(1 + rho) * m - rho * v for m, v in zip(xbar, worst)]
        fxr = f(xr)
        doshrink = False
        if fxr < fsim[0]:
            xe = [(1 + rho * chi) * m - rho * chi * v for m, v in zip(xbar, worst)]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [(1 + psi * rho) * m - psi * rho * v for m, v in zip(xbar, worst)]
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:
            xcc = [(1 - psi) * m + psi * v for m, v in zip(xbar, worst)]
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            sim[1:] = [[b + sigma * (v - b) for v, b in zip(s, best)] for s in sim[1:]]
            fsim[1:] = [f(x) for x in sim[1:]]
        iterations += 1
        sim, fsim = _by_value(sim, fsim)
    return np.array(sim[0]), min(fsim)


@dataclass(frozen=True)
class MuSearchResult:
    """Outcome of the generic threshold minimization over rho0."""

    value: float
    bloch: np.ndarray
    evaluations: int


def _fold(x) -> list[float]:
    """The Bloch vector sin(|x|) x / |x| of a point x of R^3, and x at 0."""
    r = math.hypot(*x)
    if r == 0.0:
        return x
    s = math.sin(r) / r
    return [s * v for v in x]


def mu_c_search(c: Channel) -> MuSearchResult:
    """Minimize mu_given_rho0 over the Bloch ball, any channel with a valid
    Choi matrix.

    The threshold is quasi-convex in the Bloch vector w of rho0: mixing with
    weight m is EB exactly when (1-m) G + m rho0 (x) 1/2 is PSD, which is
    affine in rho0, so every sublevel set {w : mu(w) <= m} is convex.  Its
    minimizers form one convex set, with no second basin to trap a local
    search, so one Nelder-Mead run (``nelder_mead``, at most 600
    iterations) from x = (0.01, 0.01, 0.01) suffices.  It
    runs on the folded coordinate w = sin(|x|) x / |x|, which maps R^3 onto
    the closed ball with no plateau: a minimum on the sphere (a pure rho0)
    becomes a smooth interior minimum at |x| = pi/2, where a radial
    projection would leave the simplex on rays of constant value.

    Each evaluation is the exact solve of `mu_given_rho0` at one point, with
    its 16x16 table built once per search.  The returned value is the
    smallest evaluation and `bloch` the folded point that gave it.
    """
    table = _threshold_table(c)
    if table is None:
        return MuSearchResult(0.0, np.zeros(3), 1)

    count = 0

    def objective(x) -> float:
        nonlocal count
        count += 1
        return _mu_threshold(table, _fold(x))

    x, value = nelder_mead(objective, (0.01, 0.01, 0.01), maxiter=600)
    point = np.array(_fold(x.tolist()))
    # rho0 = 1/2 meets the bound d/(1+d) for every channel (the partial
    # transpose of a two-qubit state has no eigenvalue below -1/2).  For a
    # unitary channel the minimum sits there; Nelder-Mead stops a few 1e-6
    # away, where the exact solve reads up to ~1e-12 above the bound.
    bound = mu_c_upper_bound(2)
    if value > bound:
        value, point = bound, np.zeros(3)
    return MuSearchResult(value, point, count)


def mu_c(c: Channel) -> float:
    """Depolarizing threshold of a channel, never above d/(1+d) = 2/3.

    Closed forms for unital and damping channels; otherwise the one-start
    search ``mu_c_search``, which the threshold's quasi-convexity in rho0
    makes global.
    """
    if isinstance(c, UnitalChannel):
        return mu_c_unital(c)
    if isinstance(c, GadParams):
        return gadforms.mu_c_gad(c.p, c.gamma)
    return mu_c_search(c).value


def ebn_member(c: Channel, n: int) -> bool:
    """Does the n-fold self-composition break entanglement?

    The EB^n families are nested, so this is n_c(c) <= n.  Boundary
    inclusive: for unital channels ||T^n||_1 = 1 counts as EB.
    """
    if n < 1:
        raise ValueError("membership order n must be >= 1")
    return n_c(c, n).is_finite


def n_c(c: Channel, cap: int = DEFAULT_CAP) -> NcResult:
    """Smallest n <= cap whose n-fold composition breaks entanglement.

    Monotonicity of the EB^n families makes the upward scan exact.  Damping
    channels go through the closed-form band map, which also certifies
    divergence on the zero-temperature edge; every other channel through
    ``_order_scan`` with the identity filter.  Both raise ``ValueError``
    for a cap below 1.
    """
    if isinstance(c, GadParams):
        return gadforms.n_c_gad(c.p, c.gamma, cap)
    orders, _ = _order_scan(_scan_base(c), np.eye(3)[None], cap)
    return _order_result(orders[0], cap)


def _order_result(order, cap: int) -> NcResult:
    return NcResult(None if order > cap else int(order), cap)


def _scan_base(c: Channel) -> np.ndarray:
    """What ``_order_scan`` iterates: the 3x3 Bloch matrix of a
    ``UnitalChannel``, the 4x4 PTM of any other channel."""
    return c.t if isinstance(c, UnitalChannel) else ptm(c)


def _filter_ptms(rotations: np.ndarray) -> np.ndarray:
    """PTMs blockdiag(1, O) of a stack of filter rotations O.  An improper O
    has no unitary realization, so it raises ``ValueError``."""
    if (np.linalg.det(rotations) < 0).any():
        raise ValueError("improper orthogonal Bloch action has no unitary realization")
    filters = np.zeros((len(rotations), 4, 4))
    filters[:, 0, 0] = 1.0
    filters[:, 1:, 1:] = rotations
    return filters


def _order_scan(base: np.ndarray, rotations: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Orders of the filtered channels O . c for a stack of Bloch rotations O
    and `base` = ``_scan_base(c)``, each with a tie-break margin in [-1, 0].

    An order above ``cap`` reads cap + 1 with margin 0, so ``orders + margins``
    ranks ExceedsCap first and, within one order, the iterate that turned
    entanglement breaking nearest the boundary.  The margin is the one
    of ``decide_eb``.  The 3x3 route takes improper rotations; the PTM route
    rejects them.  Finished candidates drop out after each composition.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    filters = rotations if base.shape == (3, 3) else _filter_ptms(rotations)
    step = filters @ base
    power = np.eye(len(base))
    orders = np.full(len(rotations), cap + 1)
    margins = np.zeros(len(rotations))
    active = np.arange(len(rotations))
    for m in range(1, cap + 1):
        power = power @ step
        done, margin = decide_eb(power)
        if done.any():
            orders[active[done]] = m
            margins[active[done]] = margin[done]
            keep = ~done
            active, power, step = active[keep], power[keep], step[keep]
            if not active.size:
                break
    return orders, margins


def noise_report(c: Channel, cap: int = DEFAULT_CAP) -> NoiseReport:
    """Assemble threshold, order and EB^n flags for a qubit channel."""
    order = n_c(c, cap)
    return NoiseReport(mu_c(c), order)
