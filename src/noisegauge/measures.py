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
matrix S G^-1 S, so the threshold is one 4x4 eigen-solve (``_mu_threshold``)
after one inverse of G per channel.

``mu_c`` minimizes that threshold over the prepared state rho0.  Unital
channels have an exact closed form, and damping channels the exact one of
axially symmetric channels (``gad.mu_c_axial``); everything else goes
through ``mu_c_search``.  With X = mu rho0 the mixture is EB exactly when
(1 - tr X) G + X (x) 1/2 and X are PSD, so mu_c is the least tr X over that
set: the robustness program of Vidal and Tarrach (PRA 59, 141, 1999), an SDP
in the four real entries of X.  mu_c is unchanged by unitaries before and
after the channel, so it depends only on the channel's normal form (King &
Ruskai, IEEE Trans. Inf. Theory 47, 2001), and rotations of unital and
axially symmetric channels have their optimal state in closed form.
``mu_c_search`` guesses that state from one SVD, with the exact threshold
there as the value, and a weak-duality bound from one eigenvector at the
reported state certifies every answer.  When the bound lies within
ROUND_TOL relative of the guess's value the guess is the answer; otherwise
a barrier method finds a better state.  The closed forms, a
derivative-free search over the Bloch ball, a second barrier solve and the
eigenvector bound on the Choi-matrix route check it in the test suite.

``n_c`` is the smallest number of self-compositions after which the channel
breaks entanglement; by monotonicity of the EB^n families a single upward
scan suffices.  Damping channels read it off their closed-form bands.  Every
other channel runs ``_order_scan`` on its transfer matrix
(``separability._scan_base``): the 3x3 Bloch matrix of a ``UnitalChannel``,
judged by trace norms, and the 4x4 PTM otherwise, judged by the smallest
eigenvalue of the partial transpose (``decide_eb``, slack ``ROUND_TOL``).
``_order_scan`` is the one order engine: it scans a stack of step matrices,
the channel alone for ``n_c`` and one filtered channel per filter for
amendability (``amend``).  Each matrix of a stack takes the products and
the ``decide_eb`` kernels it would take alone, so a step gets the same order
and margin, to the bit, in any stack.  A scan may skip the decisions below a
given power: ``amend`` decides order 1 once on the channel itself, since a
unitary filter keeps it, and scans every filtered step from order 2.
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
from .linalg import ROUND_TOL
from .report import DEFAULT_CAP, NcResult, NoiseReport, check_cap
from .separability import ChoiState, _scan_base, decide_eb, ptm_partial_transpose


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


def _pt_choi(r: np.ndarray) -> np.ndarray | None:
    """The partial transpose G of the Choi matrix of the channel with PTM r,
    or None when the channel is entanglement breaking (threshold 0); a map
    that is not completely positive raises ``ValueError``."""
    ChoiState(choi_from_ptm(r))
    if decide_eb(r)[0]:
        return None
    return ptm_partial_transpose(r)


def _mu_threshold(ginv: np.ndarray, w) -> float:
    """Separability onset along (1-mu) G + mu rho0 (x) 1/2 for the Bloch
    vector w of rho0, given G^-1.

    The roots of det((1-mu) G + mu P) are mu = 1/(1 - nu) for the negative
    eigenvalues nu of S G^-1 S with S S = P; the smallest root comes from the
    most negative nu.  Without a negative nu the segment meets no root before
    its PSD endpoint P, so the onset is 1.  S = sqrt(rho0) (x) 1/sqrt(2) with
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
    half = (c @ _SIGMA_1.reshape(4, 16)).reshape(4, 4)
    nu = 0.5 * float(np.linalg.eigvalsh(half @ ginv @ half)[0])
    return 1.0 / (1.0 - nu) if nu < 0.0 else 1.0


def _dual_bound(g: np.ndarray, value: float, w) -> float:
    """Weak-duality lower bound on mu_c from one eigenvector, valid for any
    claimed optimum (value, w) (Boyd & Vandenberghe, Convex Optimization,
    5.2).

    Take v, the eigenvector of the smallest eigenvalue of the onset matrix
    (1 - value) G + value rho0 (x) 1/2 at the Bloch vector w of rho0, G the
    partial transpose.  Let g_v = <v|G|v> and s the largest eigenvalue of
    tr_2 |v><v|.  For any feasible X = mu rho0,
    0 <= <v|(1 - tr X) G + X (x) 1/2|v> <= (1 - tr X) g_v + tr X s/2, so
    tr X >= -g_v / (s/2 - g_v) when g_v < 0.  Returns 0 when g_v >= 0.
    """
    prepared = (np.concatenate(([1.0], w)) @ _SIGMA_1.reshape(4, 16)).reshape(4, 4) / 4
    v = np.linalg.eigh((1.0 - value) * g + value * prepared)[1][:, 0]
    g_v = float((v.conj() @ g @ v).real)
    if g_v >= 0.0:
        return 0.0
    half = v.reshape(2, 2)
    s = float(np.linalg.eigvalsh(half @ half.conj().T)[-1])
    return -g_v / (s / 2 - g_v)


def mu_given_rho0(c: Channel, rho0) -> float:
    """Minimal mixing probability towards the fixed state rho0, solved exactly:
    the smallest root in (0, 1] of det((1-mu) G + mu rho0 (x) 1/2) = 0, G the
    partial transpose of the Choi matrix, by ``_mu_threshold`` (module
    docstring).  Returns 0 when the channel is already entanglement breaking.
    """
    w = density_to_bloch(validate_density(rho0))
    g = _pt_choi(ptm(c))
    return 0.0 if g is None else _mu_threshold(np.linalg.inv(g), w.tolist())


@dataclass(frozen=True)
class MuSearchResult:
    """Outcome of the threshold minimization over rho0: the value, the Bloch
    vector of the prepared state that attains it, the Newton steps taken
    (0 when the certified guess answers, and for an entanglement-breaking
    channel) and a certified lower bound, ``_dual_bound`` at (value, bloch)
    clamped to the value.  On the guess route value - lower <= ROUND_TOL *
    value."""

    value: float
    bloch: np.ndarray
    evaluations: int
    lower: float


# sigma_k (x) 1 / 4 for k = 1..3: how the barrier's 4x4 block moves with b.
_PT_SIGMA = _SIGMA_1[1:] / 4
# a^2 - |b|^2 = v . (_CONE * v) for v = (a, b).
_CONE = np.array([1.0, -1.0, -1.0, -1.0])
# The barrier parameter grows 100-fold per centering up to _T_MAX.  A solve
# may take _NEWTON_STEPS steps; random Kraus channels take a median of 30,
# mixtures within 1e-10 of the EB boundary up to 61.
_T_MAX = 1e11
_NEWTON_STEPS = 200


def _barrier_solve(g: np.ndarray) -> tuple[np.ndarray, int]:
    """Barrier method (Boyd & Vandenberghe, Convex Optimization, ch. 11) for
    the threshold program of the partial transpose G, from v = (1, 0, 0, 0):
    the last iterate v = (a, b) and the number of Newton steps.

    With X = (a + b.sigma)/2 the program is min a subject to
    M = (1 - a) G + X (x) 1/2 >= 0 and a >= |b|.  Damped Newton steps
    minimize t a - log det M - log(a^2 - |b|^2), centering for t = 1, 100,
    ..., up to ``_T_MAX``, each until the squared Newton decrement falls
    to sqrt(ROUND_TOL).  The barrier has parameter 4 + 2 = 6, so the last
    centre lies about 6 / ``_T_MAX`` above the optimum.  Every iterate is
    strictly feasible; after ``_NEWTON_STEPS`` steps the solve stops where
    it is.  It only finds a point: ``mu_c_search`` certifies it.
    """
    basis = np.concatenate(((0.25 * np.eye(4) - g)[None], _PT_SIGMA))
    flat_basis = basis.reshape(4, 16)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    t, steps = 1.0, 0
    while steps < _NEWTON_STEPS:
        steps += 1
        # M^-1 dM/dv_k, stacked; M = 1/4 at the start
        mb = np.linalg.inv(g + (v @ flat_basis).reshape(4, 4)) @ basis
        flat = mb.reshape(4, 16)
        jv = _CONE * v
        q = v @ jv
        grad = -2.0 * jv / q - flat[:, ::5].sum(axis=1).real
        grad[0] += t
        hess = (flat @ mb.transpose(0, 2, 1).reshape(4, 16).T).real
        hess += np.outer(jv, 4.0 * jv / (q * q)) - np.diag(2.0 * _CONE / q)
        step = np.linalg.solve(hess, -grad)
        dec = float(-grad @ step)
        if dec <= math.sqrt(ROUND_TOL):
            if t == _T_MAX:
                break
            t = min(100.0 * t, _T_MAX)
        else:
            # a damped step stays inside the domain of a self-concordant barrier
            v = v + (step / (1.0 + math.sqrt(dec)) if dec > 0.0625 else step)
    return v, steps


def _normal_form_guess(r: np.ndarray) -> np.ndarray:
    """Bloch vector of the optimal prepared state of the axially symmetric
    channel nearest to the PTM r = [[1, 0], [t, T]] in its normal form.

    mu_c is unchanged by rotations before and after the channel, and one SVD
    T = U diag(s) V^T writes the channel as a rotation of the normal form
    (King & Ruskai, IEEE Trans. Inf. Theory 47, 2001): Bloch matrix
    diag(s) with the sign of det T on one axis, and shift U^T t.  The two
    closest singular values average to lam_perp; the third, signed, is
    lam_z along column k of U, and t_z is the shift along it.  The optimum
    of ``gad.mu_c_axial`` is the peak w_z = -(1 - a) t_z / a = -t_z / (d - 1),
    d = 2 lam_perp + lam_z, when |t_z| < d - 1, and the pure state
    -sign(t_z) otherwise; turned back by U it is w_z times column k.  Both
    t_z and w_z change sign with that column, so the state does not depend
    on the signs the SVD picks.  A unital channel that is not entanglement
    breaking has t_z = 0 and d - 1 = ||T||_1 - 1 > 0, so its guess is the
    maximally mixed state.
    """
    u, s, _ = np.linalg.svd(r[1:, 1:])
    k = 2 if s[0] - s[1] <= s[1] - s[2] else 0
    lam_perp = 0.5 * float(s.sum() - s[k])
    lam_z = math.copysign(float(s[k]), np.linalg.det(r[1:, 1:]))
    t_z = float(u[:, k] @ r[1:, 0])
    d = 2.0 * lam_perp + lam_z
    w_z = -t_z / (d - 1.0) if abs(t_z) < d - 1.0 else -math.copysign(1.0, t_z)
    return w_z * u[:, k]


def mu_c_search(c: Channel) -> MuSearchResult:
    """Minimize mu_given_rho0 over the Bloch ball, any channel with a valid
    Choi matrix: guess the optimum from the normal form, certify it, and
    solve the convex program only when the certificate fails.

    The guess (``_normal_form_guess``) is exact for rotations of unital and
    axially symmetric channels; its value is the exact solve of
    ``mu_given_rho0`` there, an upper bound since every state is feasible.
    One certificate serves every answer: `lower` is ``_dual_bound`` at the
    reported state, clamped to the value.  When value - lower <=
    ROUND_TOL * value the guess is the answer, with `evaluations` 0.
    Otherwise ``_barrier_solve`` finds X = mu rho0 = (a + b.sigma)/2, and
    the least of the guess's value and the exact solves at w = b/a and at
    the pure state b/|b| wins.  (a, b) is feasible, so the solve at b/a is
    at most a.  At a pure optimum w stays about 1/(t a) inside the sphere,
    where the solve reads up to ~1e-11 high.  `evaluations` counts the
    Newton steps.  On random Kraus channels the barrier route's relative
    gap had a median of 4.5e-12 and a maximum of 5.8e-11; near the EB
    boundary the absolute gap stays at rounding, about 1e-16.  An
    entanglement-breaking channel has threshold 0 and `evaluations` 0.  The
    solve never raises: a run that exhausts its steps reports its feasible
    point, certified the same way.
    """
    r = ptm(c)
    g = _pt_choi(r)
    if g is None:
        return MuSearchResult(0.0, np.zeros(3), 0, 0.0)
    ginv = np.linalg.inv(g)
    point = _normal_form_guess(r)
    value = _mu_threshold(ginv, point.tolist())
    lower = _dual_bound(g, value, point)
    steps = 0
    if value - lower > ROUND_TOL * value:
        v, steps = _barrier_solve(g)
        b = v[1:]
        radius = math.hypot(*b)
        # ties go to the barrier's states, b/a first
        for w in (b / radius, b / v[0]) if radius > 0.0 else (b / v[0],):
            mu = _mu_threshold(ginv, w.tolist())
            if mu <= value:
                value, point = mu, w
        lower = _dual_bound(g, value, point)
    # rho0 = 1/2 meets the bound d/(1+d) for every channel (the partial
    # transpose of a two-qubit state has no eigenvalue below -1/2).  For a
    # unitary channel the minimum sits there, and the exact solves read
    # above it by rounding.
    bound = mu_c_upper_bound(2)
    if value > bound:
        value, point = bound, np.zeros(3)
        lower = _dual_bound(g, value, point)
    return MuSearchResult(value, point, steps, min(lower, value))


def mu_c(c: Channel) -> float:
    """Depolarizing threshold of a channel, never above d/(1+d) = 2/3.

    Closed forms for unital and damping channels; otherwise the certified
    answer of ``mu_c_search``.
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
    ``_order_scan`` of its transfer matrix alone.  Both raise ``ValueError``
    for a cap below 1.
    """
    if isinstance(c, GadParams):
        return gadforms.n_c_gad(c.p, c.gamma, cap)
    orders, _ = _order_scan(_scan_base(c)[None], cap)
    return _order_result(orders[0], cap)


def _order_result(order, cap: int) -> NcResult:
    return NcResult(None if order > cap else int(order), cap)


def _order_scan(steps: np.ndarray, cap: int, first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Orders of the channels whose transfer matrices are stacked in `steps`,
    (k, 3, 3) Bloch matrices or (k, 4, 4) PTMs, each with a tie-break margin
    in [-1, ROUND_TOL].

    An order above ``cap`` reads cap + 1 with margin 0, so ``orders + margins``
    ranks ExceedsCap first and, within one order, the iterate that turned
    entanglement breaking nearest the boundary.  The margin is the one
    of ``decide_eb``.  Each step is composed with itself, power @ step, with
    one ``decide_eb`` per power from power `first` on; finished rows drop
    out after each decision, and a row scores the same bits in any stack as
    alone.  A caller that already knows no row breaks entanglement before
    `first` (``amend``: a unitary filter keeps the order-1 decision of the
    channel) passes it; every row then keeps the bits of the scan from 1.
    """
    check_cap(cap)
    power = np.eye(steps.shape[-1])
    orders = np.full(len(steps), cap + 1)
    margins = np.zeros(len(steps))
    active = np.arange(len(steps))
    for m in range(1, cap + 1):
        power = power @ steps
        if m < first:
            continue
        done, margin = decide_eb(power)
        hit = done.nonzero()[0]
        if hit.size:
            orders[active[hit]] = m
            margins[active[hit]] = margin[hit]
            if hit.size == active.size:
                break
            keep = ~done
            active, power, steps = active[keep], power[keep], steps[keep]
    return orders, margins


def noise_report(c: Channel, cap: int = DEFAULT_CAP) -> NoiseReport:
    """Assemble threshold, order and EB^n flags for a qubit channel."""
    order = n_c(c, cap)
    return NoiseReport(mu_c(c), order)
