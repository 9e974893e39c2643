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
table per channel, then one (c (x) c) @ table and one eigvalsh per state.

``mu_c`` minimizes that threshold over the prepared state rho0.  Unital and
damping channels have exact closed forms; for everything else a multistart
derivative-free search over the Bloch ball is used, with the closed forms
serving as its accuracy oracle in the test suite.

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


def _mu_threshold(table: np.ndarray, w: np.ndarray) -> float:
    """Separability onset along (1-mu) G + mu rho0 (x) 1/2 for the Bloch
    vector w of rho0, given the table of ``_threshold_table``.

    The roots of det((1-mu) G + mu P) are mu = 1/(1 - nu) for the negative
    eigenvalues nu of S G^-1 S with S S = P; the smallest root comes from the
    most negative nu.  Without a negative nu the segment meets no root before
    its PSD endpoint P, so the onset is 1.  S G^-1 S is (c (x) c) @ table for
    sqrt(rho0) = c0 1 + c.sigma, c0 = sqrt(1+2s)/2, c = w / (2 sqrt(1+2s)),
    s = sqrt(1-|w|^2)/2.  A w outside the ball is projected radially onto it.
    """
    x, y, z = w.tolist()
    r = math.hypot(x, y, z)
    if not math.isfinite(r):
        raise ValueError("Bloch vector entries must be finite")
    if r > 1.0:
        x, y, z, r = x / r, y / r, z / r, 1.0
    root = math.sqrt(1.0 + math.sqrt((1.0 - r) * (1.0 + r)))
    k = 0.5 / root
    coef = np.array([0.5 * root, k * x, k * y, k * z])
    m = ((coef[:, None] * coef).reshape(16) @ table).reshape(4, 4)
    nu = float(np.linalg.eigvalsh(m)[0])
    return 1.0 / (1.0 - nu) if nu < 0.0 else 1.0


def mu_given_rho0(c: Channel, rho0) -> float:
    """Minimal mixing probability towards the fixed state rho0, solved exactly.

    With G the partial transpose of the Choi matrix and P = rho0 (x) 1/2, the
    threshold is the smallest root in (0, 1] of det((1-mu) G + mu P) = 0: the
    segment consists of partial transposes of two-qubit states, which are full
    rank while entangled, so the first root is the onset of separability.  It
    equals 1/(1 - nu_min) for the most negative eigenvalue nu_min of
    S G^-1 S, S = sqrt(rho0) (x) 1/sqrt(2), and 1 when there is none.

    Returns 0 when the channel is already entanglement breaking.
    """
    w = density_to_bloch(validate_density(rho0))
    table = _threshold_table(c)
    return 0.0 if table is None else _mu_threshold(table, w)


def coarse_bloch_grid() -> list[np.ndarray]:
    """26 starting points: 6 axis poles, 8 cube corners and 12 cube edge
    midpoints, the latter two rescaled to radius 0.7."""
    pts = []
    for i in range(3):
        for s in (1.0, -1.0):
            w = np.zeros(3)
            w[i] = s
            pts.append(w)
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                pts.append(0.7 * np.array([sx, sy, sz]) / np.sqrt(3))
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    w = np.zeros(3)
                    w[i], w[j] = si, sj
                    pts.append(0.7 * w / np.sqrt(2))
    return pts


def nelder_mead(f, x0, xatol: float, fatol: float, maxiter: int) -> tuple[np.ndarray, float]:
    """Minimize f from x0 by the unbounded, non-adaptive Nelder-Mead simplex
    method (Nelder & Mead 1965; Lagarias, Reeds, Wright & Wright 1998).

    The initial simplex scales each coordinate of x0 by 1.05, or sets it to
    0.00025 when it is zero.  The reflection, expansion, contraction and
    shrink coefficients are 1, 2, 0.5 and 0.5.  The run stops once every
    vertex lies within `xatol` of the best one in each coordinate and within
    `fatol` of it in value, or after `maxiter` iterations.  Each step, down
    to the argsort that orders the vertices, follows the reference
    implementation the test suite holds this to, so f sees the same points
    in the same order and the result agrees bit for bit.  f must leave its
    argument unchanged.  Returns the best vertex and the smallest value.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k])
    # The reference sorts twice here; argsort need not be stable on ties.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        doshrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


@dataclass(frozen=True)
class MuSearchResult:
    """Outcome of the generic threshold minimization over rho0."""

    value: float
    bloch: np.ndarray
    restart_spread: float
    evaluations: int


def mu_c_search(c: Channel) -> MuSearchResult:
    """Minimize mu_given_rho0 over the Bloch ball, any channel with a valid
    Choi matrix.

    Coarse grid first, then a refinement by the local Nelder-Mead simplex
    method ``nelder_mead`` (xatol 1e-4) from each of the 3 best grid points;
    points outside the ball are radially projected.  The spread between
    refined restarts is reported so callers can judge whether the landscape
    looked multimodal; the returned value is the minimum over every
    evaluation either way.  Each evaluation is the exact solve of
    `mu_given_rho0`, with its 16x16 table built once per search.
    """
    table = _threshold_table(c)
    if table is None:
        return MuSearchResult(0.0, np.zeros(3), 0.0, 1)

    count = [0]

    def objective(w: np.ndarray) -> float:
        count[0] += 1
        return _mu_threshold(table, w)

    grid = coarse_bloch_grid()
    values = [objective(w) for w in grid]
    ranking = np.argsort(values, kind="stable")

    best_value = min(values)
    best_point = grid[int(np.argmin(values))]
    refined = []
    for idx in ranking[:3]:
        x, fun = nelder_mead(objective, grid[int(idx)], xatol=1e-4, fatol=1e-12, maxiter=600)
        refined.append(float(fun))
        if fun < best_value:
            best_value = float(fun)
            r = float(np.linalg.norm(x))
            best_point = x / r if r > 1.0 else x
    spread = max(refined) - min(refined)
    # rho0 = 1/2 meets the bound d/(1+d) for every channel (the partial
    # transpose of a two-qubit state has no eigenvalue below -1/2).  For a
    # unitary channel the minimum sits there; Nelder-Mead stops a few 1e-6
    # away, where the exact solve reads up to ~1e-12 above the bound.
    bound = mu_c_upper_bound(2)
    if best_value > bound:
        best_value, best_point = bound, np.zeros(3)
    return MuSearchResult(best_value, best_point, spread, count[0])


def mu_c(c: Channel) -> float:
    """Depolarizing threshold of a channel, never above d/(1+d) = 2/3.

    Closed forms for unital and damping channels; multistart search
    otherwise.
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
    flags = tuple(order.n is not None and k >= order.n for k in range(1, cap + 1))
    return NoiseReport(mu_c(c), order, flags)
