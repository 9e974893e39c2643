"""Amendability: raising a channel's entanglement-breaking order by filtering.

A channel whose two-fold self-composition breaks entanglement can sometimes
be rescued: interposing a fixed unitary filter between uses keeps the
composition non-entanglement-breaking for longer.  ``is_amendable2`` tests a
given filter, ``amend_order`` computes the order of the filtered iteration,
and ``search_filter`` looks for a good filter.  For a unital channel it
takes the inverse polar rotation alone, which is provably optimal (Horn's
inequality); any other channel is scored on the named filters (Pauli
conjugations s1, s2, s3 and the rotation pair r2r1, in the table
``_NAMED_BLOCH``) and a seeded Euler-angle grid whose best point is
refined.  Every set of filters is scored by one ``measures._order_scan``
of its filtered steps, ``_filter_matrix`` times the channel's transfer
matrix, and a step scores the same bits in any stack as alone (an Euler
filter's Bloch matrix is its row of the one-point ``_euler_lattice``), so
a filter scores the same whichever scan it is in.

Order 1 is decided once per channel, by its own order (``is_eb``, ``n_c``:
a ``GadParams`` by its band edge).  A unitary applied after a channel keeps
its partial-transpose spectrum, and with it its entanglement-breaking status
(Horodecki, Shor and Ruskai, Rev. Math. Phys. 15, 2003), so every filter
keeps that decision, filter scans start at order 2, and ``decide_eb`` reads
only filtered products, never a channel's own matrix.

``gad_amendable`` decides the damping-channel amendable region on scalars or
on whole (p, gamma) arrays, with one stacked product R F R for all points of
an array.

Filters are unitary channels given by their Bloch rotation O, with PTM
F = blockdiag(1, O).  Every filtered map is a product of transfer matrices:
O T and T O T for a ``UnitalChannel`` with Bloch matrix T, F R and R F R for
any other channel with PTM R.  Improper orthogonal Bloch actions
(determinant -1) are accepted on the 3x3 route, where everything reduces to
trace norms; they have no unitary realization, so the PTM route rejects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PAULI_MIX,
    Channel,
    UnitalChannel,
    check_unit_square,
    choi_from_ptm,
    gad_ptm,
    kraus_from_choi,
)
from .gad import p_n
from .linalg import INPUT_TOL, ROUND_TOL, as_real3, polar_decompose
from .measures import _order_result, _order_scan, ebn_member, n_c
from .report import DEFAULT_CAP, NcResult, check_cap
from .separability import _scan_base, decide_eb, is_eb

# the lattice budget and seed of ``search_filter``, read by the ``amend`` flags
DEFAULT_BUDGET = 1000
DEFAULT_SEED = 42


def _axis_rotations(axis: int, angles) -> np.ndarray:
    """Stack of right-handed rotations about a coordinate axis (0=x, 1=y, 2=z),
    one per angle."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros((angles.size, 3, 3))
    m[:, axis, axis] = 1.0
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    m[:, i, i] = c
    m[:, j, j] = c
    m[:, i, j] = -s
    m[:, j, i] = s
    return m


# Bloch rotations of the named filters, built once and in the order of the
# scans of ``search_filter``: conjugation by sigma_i scales sigma_j by
# PAULI_MIX[i, j], and r2r1 is a quarter turn about x, then one about y.
_NAMED_BLOCH = {
    **{f"s{i}": np.diag(PAULI_MIX[i, 1:]) for i in (1, 2, 3)},
    "r2r1": _axis_rotations(1, [math.pi / 2])[0] @ _axis_rotations(0, [math.pi / 2])[0],
}


def _euler_lattice(alphas, betas, thetas) -> np.ndarray:
    """Bloch matrices R_z(alpha) R_y(beta) R_z(theta) of every Euler filter on
    the grid alphas x betas x thetas, stacked with theta varying fastest."""
    outer = _axis_rotations(2, alphas)[:, None] @ _axis_rotations(1, betas)[None, :]
    inner = _axis_rotations(2, thetas)[None, None, :]
    return (outer[:, :, None] @ inner).reshape(-1, 3, 3)


@dataclass(frozen=True)
class FilterCandidate:
    """A unitary filter: a named one (a kind in ``_NAMED_BLOCH``), an Euler
    rotation, or an explicit orthogonal Bloch action."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        kind = self.kind
        if kind in _NAMED_BLOCH:
            if self.params:
                raise ValueError(f"filter kind {kind!r} takes no parameters")
        elif kind == "euler":
            if len(self.params) != 3:
                raise ValueError("euler filter needs three angles (alpha, beta, theta)")
            angles = tuple(float(a) for a in self.params)
            if not all(map(math.isfinite, angles)):
                raise ValueError("euler filter angles must be finite")
            object.__setattr__(self, "params", angles)
        elif kind == "orthogonal":
            m = as_real3(np.reshape(self.params, (3, 3)))
            if np.abs(m @ m.T - np.eye(3)).max() > INPUT_TOL:
                raise ValueError("orthogonal filter matrix is not orthogonal")
            object.__setattr__(self, "params", tuple(float(x) for x in m.ravel()))
        else:
            raise ValueError(f"unknown filter kind {kind!r}")

    @classmethod
    def pauli(cls, axis: int) -> "FilterCandidate":
        if axis not in (1, 2, 3):
            raise ValueError("Pauli filter axis must be 1, 2 or 3")
        return cls(f"s{axis}")

    @classmethod
    def r2r1(cls) -> "FilterCandidate":
        return cls("r2r1")

    @classmethod
    def euler(cls, alpha: float, beta: float, theta: float) -> "FilterCandidate":
        return cls("euler", (alpha, beta, theta))

    @classmethod
    def orthogonal(cls, m) -> "FilterCandidate":
        return cls("orthogonal", tuple(np.asarray(m, dtype=float).ravel()))

    def bloch_matrix(self) -> np.ndarray:
        """The 3x3 Bloch action, a fresh array on every call."""
        if self.kind in _NAMED_BLOCH:
            return _NAMED_BLOCH[self.kind].copy()
        if self.kind == "euler":
            return _euler_lattice(*np.reshape(self.params, (3, 1)))[0]
        return np.asarray(self.params, dtype=float).reshape(3, 3)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": [float(x) for x in self.params]}

    @classmethod
    def from_json(cls, data: dict) -> "FilterCandidate":
        return cls(data["kind"], tuple(data.get("params", ())))


def _filter_matrix(rotations: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Matrix of a filter rotation O, or of a stack (..., 3, 3) of them, on
    the route of `base`, a Bloch matrix or PTM (or a stack of them): O itself
    beside a 3x3 Bloch matrix, F = blockdiag(1, O) beside a 4x4 PTM.  An
    improper O has no unitary realization, so the PTM route raises
    ``ValueError``."""
    if base.shape[-1] == 3:
        return rotations
    if (np.linalg.det(rotations) < 0).any():
        raise ValueError("improper orthogonal Bloch action has no unitary realization")
    filters = np.zeros(rotations.shape[:-2] + (4, 4))
    filters[..., 0, 0] = 1.0
    filters[..., 1:, 1:] = rotations
    return filters


def _filtered(c: Channel, f: FilterCandidate, uses: int) -> np.ndarray:
    """Transfer matrix of f . c (one use) or c . f . c (two uses): O T or
    T O T for a ``UnitalChannel``, F R or R F R otherwise (module docstring).
    ``ValueError`` for an improper f on the PTM route."""
    base = _scan_base(c)
    mid = _filter_matrix(f.bloch_matrix(), base)
    return mid @ base if uses == 1 else base @ mid @ base


def _as_channel(m: np.ndarray) -> Channel:
    """A ``UnitalChannel`` for a 3x3 Bloch matrix, otherwise the Kraus set
    extracted once from the Choi matrix of the PTM."""
    return UnitalChannel(m) if m.shape == (3, 3) else kraus_from_choi(choi_from_ptm(m))


def apply_filter(f: FilterCandidate, c: Channel) -> Channel:
    """The filtered channel f . c (channel first, filter after)."""
    return _as_channel(_filtered(c, f, 1))


def sandwich(c: Channel, f: FilterCandidate) -> Channel:
    """The two-use composition c . f . c."""
    return _as_channel(_filtered(c, f, 2))


@dataclass(frozen=True)
class AmendReport:
    """Search outcome: orders before/after filtering and the winning filter."""

    base_nc: NcResult
    filtered_nc: NcResult
    filter: FilterCandidate
    amendable: bool

    def __post_init__(self):
        if self.amendable and not self.filtered_nc.order_key() > self.base_nc.order_key():
            raise ValueError("amendable reports must raise the order")

    def to_json(self) -> dict:
        return {"base_nc": self.base_nc.to_json(), "filtered_nc": self.filtered_nc.to_json(),
                "filter": self.filter.to_json(), "amendable": self.amendable}


def is_amendable2(c: Channel, f: FilterCandidate) -> bool:
    """Does the filter rescue the two-use composition?

    True when c is in EB^2 but c . f . c is not entanglement breaking,
    decided on its transfer matrix without building a channel.
    """
    return ebn_member(c, 2) and not decide_eb(_filtered(c, f, 2))[0]


def amend_order(c: Channel, f: FilterCandidate, cap: int = DEFAULT_CAP) -> NcResult:
    """Entanglement-breaking order of the filtered iteration (f . c)^m.

    Order 1 when ``is_eb(c)`` (module docstring); otherwise one
    ``measures._order_scan`` of the filtered step from order 2, as the scans
    of ``search_filter`` score it, so a report's ``filtered_nc`` equals
    ``amend_order(c, report.filter, cap)``.  A cap below 1 raises
    ``ValueError``, and so, unless c is unital, does an improper filter.
    """
    check_cap(cap)
    step = _filtered(c, f, 1)  # first, so an improper filter raises on any channel
    if is_eb(c):
        return _order_result(1, cap)
    orders, _ = _order_scan(step[None], cap, first=2)
    return _order_result(orders[0], cap)


def _is_unitary_channel(base: np.ndarray) -> bool:
    """Is T orthogonal, for `base` = ``_scan_base(c)``: T itself or the
    lower-right 3x3 block of the PTM?  A channel maps the Bloch sphere into
    the ball, so an orthogonal T also forces t = 0."""
    m = base[-3:, -3:]
    return bool(np.abs(m.T @ m - np.eye(3)).max() <= INPUT_TOL)


def _cube_root_floor(n: int) -> int:
    """Largest k with k**3 <= n, for n >= 1 (n ** (1/3) rounds 64 down to 3.99...)."""
    k = round(n ** (1.0 / 3.0))
    return k - 1 if k ** 3 > n else k


def _first_max(scores: np.ndarray) -> int:
    """Index of the first score within ``ROUND_TOL`` of the maximum: rounding
    must not pick among filters that tie in exact arithmetic."""
    return int(np.argmax(scores >= scores.max() - ROUND_TOL))


# Halvings of the refinement step of ``_refine``: the last round
# steps below 1e-4 rad on every axis, 2 pi / 2**16 from a one-point lattice.
_REFINE_ROUNDS = 16


def _lattice_point(axes, index: int) -> tuple:
    """Angles (alpha, beta, theta) of row `index` of ``_euler_lattice(*axes)``."""
    ijk = np.unravel_index(index, [len(a) for a in axes])
    return tuple(float(a[i]) for a, i in zip(axes, ijk))


def _refine(base: np.ndarray, point: tuple, spacing: np.ndarray, cap: int) -> tuple:
    """Pattern search on Euler angles from `point`, a lattice point whose
    axes step by `spacing` (Hooke & Jeeves, J. ACM 8, 1961; Torczon, SIAM
    J. Optim. 7, 1997).  Each of ``_REFINE_ROUNDS`` rounds halves the step,
    scores the 3x3x3 ``_euler_lattice`` at offsets (0, -1, +1) steps around
    the point by one ``_order_scan`` and moves to its first best row.  The
    point is row 0, so it moves only for a score higher by more than
    ``ROUND_TOL``.  Returns the last point with the order and score of its
    row in the last scan."""
    offsets = np.array([0.0, -1.0, 1.0])
    for _ in range(_REFINE_ROUNDS):
        spacing = spacing / 2
        axes = [x + offsets * step for x, step in zip(point, spacing)]
        steps = _filter_matrix(_euler_lattice(*axes), base) @ base
        orders, margins = _order_scan(steps, cap, first=2)
        scores = orders + margins
        best = _first_max(scores)
        point, order, score = _lattice_point(axes, best), orders[best], scores[best]
    return point, order, score


def _lattice_search(base: np.ndarray, cap: int, budget: int, seed: int) -> tuple:
    """The winning filter and its order for a non-EB channel with PTM
    `base`.  One order scan from order 2 scores the named filters, in the
    order of ``_NAMED_BLOCH``, then a seeded Euler-angle lattice of k^3
    points, k^3 the largest cube not above `budget`; scores within
    ``ROUND_TOL`` of the maximum tie, and the first wins.  ``_refine``
    starts from the first best lattice point, and its filter wins only by
    more than ``ROUND_TOL``, with the order of its row in the last scan."""
    named = [FilterCandidate(kind) for kind in _NAMED_BLOCH]
    rng = np.random.default_rng(seed)
    per_axis = _cube_root_floor(budget)
    spacing = np.array([2 * math.pi, math.pi, 2 * math.pi]) / per_axis
    axes = [rng.uniform(0.0, step) + np.arange(per_axis) * step for step in spacing]
    rotations = np.concatenate([[f.bloch_matrix() for f in named], _euler_lattice(*axes)])
    orders, margins = _order_scan(_filter_matrix(rotations, base) @ base, cap, first=2)
    scores = orders + margins
    best = _first_max(scores)
    best_filter = (named[best] if best < len(named)
                   else FilterCandidate.euler(*_lattice_point(axes, best - len(named))))
    start = _lattice_point(axes, _first_max(scores[len(named):]))
    point, order, score = _refine(base, start, spacing, cap)
    if score > scores[best] + ROUND_TOL:
        return FilterCandidate.euler(*point), _order_result(order, cap)
    return best_filter, _order_result(orders[best], cap)


def search_filter(
    c: Channel,
    cap: int = DEFAULT_CAP,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> AmendReport:
    """Look for the filter that maximally delays entanglement breaking.

    After the checks of `budget`, `seed` and of a unitary channel, reads the
    channel's own order ``n_c(c, cap)``, which checks `cap`.  Every filter
    keeps order 1 (module docstring), so there the first named filter, s1,
    wins with no scan.

    A unital channel (a 3x3 ``_scan_base``) gets its inverse polar rotation
    and the order ``amend_order`` gives it.  With T = O_p P its polar
    decomposition, the filter O_p^T gives (O_p^T T)^m = P^m, whose trace
    norm is sum_i s_i^m for the singular values s_i of T.  For every
    orthogonal O the singular values of (O T)^m are weakly majorized by the
    products of the singular values of its factors (A. Horn, PNAS 1950), so
    ||(O T)^m||_1 <= sum_i s_i^m.  No filter therefore turns entanglement
    breaking later, nor at the same use with a larger trace norm.  A CP
    channel that is not EB has det T > 0, so this rotation is proper.

    Any other channel is searched by ``_lattice_search``, deterministic for
    a fixed seed; the ``amend`` flags default to the same budget and seed.

    The report is amendable when the channel's order, found within `cap`,
    is at most 2 and the winning filter's order exceeds 2.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = _scan_base(c)
    if _is_unitary_channel(base):
        raise ValueError("unitary channels never break entanglement; nothing to amend")
    base_nc = n_c(c, cap)
    if base_nc.n == 1:
        return AmendReport(base_nc, base_nc, FilterCandidate("s1"), False)
    if base.shape == (3, 3):
        best_filter = FilterCandidate.orthogonal(polar_decompose(base)[0].T)
        best_result = amend_order(c, best_filter, cap)
    else:
        best_filter, best_result = _lattice_search(base, cap, budget, seed)
    amendable = base_nc.is_finite and base_nc.n <= 2 < best_result.order_key()
    return AmendReport(base_nc, best_result, best_filter, amendable)


def gad_amendable(p, gamma, f: FilterCandidate):
    """Membership test for the damping-channel amendable region.

    The rescued channel at point (p, gamma) is the damping channel composed
    with the rotation f; the order-raising filter is the inverse rotation
    (equivalently ``is_amendable2`` on that pair).  Written out: the
    interleaved two-use map (damping . f . damping), with PTM R F R, breaks
    entanglement while the plain two-fold composition does not, the latter
    decided through the closed-form band edge p < p_n(gamma, 2).

    p and gamma are scalars or arrays that broadcast together, and a whole
    grid is decided in one pass: one range check, the band edge evaluated
    once per distinct gamma by the scalar ``p_n`` (so it keeps its bits),
    and one ``decide_eb`` over the stack of R F R for the points below it.
    Two scalars give a Python bool, anything else a bool array of the
    broadcast shape.  A point outside the unit square or an improper f
    raises ``ValueError``.
    """
    ps, gs = check_unit_square(p, gamma)
    distinct, index = np.unique(gs, return_inverse=True)
    edge = np.array([p_n(g, 2) for g in distinct])[index.reshape(gs.shape)]
    below = ps < edge
    amendable = np.zeros(ps.shape, dtype=bool)
    r = gad_ptm(ps[below], gs[below])
    amendable[below] = decide_eb(r @ _filter_matrix(f.bloch_matrix(), r) @ r)[0]
    return bool(amendable) if amendable.ndim == 0 else amendable
