"""Amendability: raising a channel's entanglement-breaking order by filtering.

A channel whose two-fold self-composition breaks entanglement can sometimes
be rescued: interposing a fixed unitary filter between uses keeps the
composition non-entanglement-breaking for longer.  ``is_amendable2`` tests a
given filter, ``amend_order`` computes the order of the filtered iteration,
and ``search_filter`` looks for a good filter among the named Pauli /
rotation candidates.  For a unital channel its inverse polar rotation is
provably optimal (Horn's inequality), so the search stops there; any other
channel adds a seeded Euler-angle grid and a simplex refinement.  The
channel's own order and every filtered order come from one batched scan over
a stack of filter rotations, ``measures._order_scan``.  ``gad_amendable`` decides the
damping-channel amendable region on scalars or on whole (p, gamma) arrays,
with one stacked product R F R for all points of an array.

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
    Channel,
    UnitalChannel,
    check_unit_square,
    choi_from_ptm,
    gad_ptm,
    kraus_from_choi,
    ptm,
)
from .gad import p_n
from .linalg import INPUT_TOL, ROUND_TOL, as_real3, polar_decompose
from .measures import (
    DEFAULT_CAP,
    _filter_ptms,
    _order_result,
    _order_scan,
    _scan_base,
    ebn_member,
    n_c,
    nelder_mead,
)
from .report import NcResult
from .separability import decide_eb


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


def _rot(axis: int, angle: float) -> np.ndarray:
    """Right-handed rotation about a coordinate axis (0=x, 1=y, 2=z)."""
    return _axis_rotations(axis, [angle])[0]


def _euler_lattice(alphas, betas, thetas) -> np.ndarray:
    """Bloch matrices R_z(alpha) R_y(beta) R_z(theta) of every Euler filter on
    the grid alphas x betas x thetas, stacked with theta varying fastest."""
    outer = _axis_rotations(2, alphas)[:, None] @ _axis_rotations(1, betas)[None, :]
    inner = _axis_rotations(2, thetas)[None, None, :]
    return (outer[:, :, None] @ inner).reshape(-1, 3, 3)


@dataclass(frozen=True)
class FilterCandidate:
    """A unitary filter: Pauli conjugation, named rotation pair, Euler
    rotation, or an explicit orthogonal Bloch action."""

    kind: str
    params: tuple = ()

    _PAULI_BLOCH = {
        "s1": np.diag([1.0, -1.0, -1.0]),
        "s2": np.diag([-1.0, 1.0, -1.0]),
        "s3": np.diag([-1.0, -1.0, 1.0]),
    }

    def __post_init__(self):
        kind = self.kind
        if kind in ("s1", "s2", "s3", "r2r1"):
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
        if self.kind in self._PAULI_BLOCH:
            return self._PAULI_BLOCH[self.kind].copy()
        if self.kind == "r2r1":
            # quarter turn about x, then a quarter turn about y
            return _rot(1, math.pi / 2) @ _rot(0, math.pi / 2)
        if self.kind == "euler":
            a, b, t = self.params
            return _euler_lattice([a], [b], [t])[0]
        return np.asarray(self.params, dtype=float).reshape(3, 3)

    def inverse(self) -> "FilterCandidate":
        """Filter realizing the inverse Bloch action."""
        return FilterCandidate.orthogonal(self.bloch_matrix().T)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": [float(x) for x in self.params]}

    @classmethod
    def from_json(cls, data: dict) -> "FilterCandidate":
        return cls(data["kind"], tuple(data.get("params", ())))


def _filtered(c: Channel, f: FilterCandidate, uses: int) -> np.ndarray:
    """Transfer matrix of f . c (one use) or c . f . c (two uses): O T or
    T O T for a ``UnitalChannel``, F R or R F R otherwise (module docstring).
    ``ValueError`` for an improper f on the PTM route."""
    base = _scan_base(c)
    o = f.bloch_matrix()
    mid = o if base.shape == (3, 3) else _filter_ptms(o[None])[0]
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
        return {
            "base_nc": self.base_nc.to_json(),
            "filtered_nc": self.filtered_nc.to_json(),
            "filter": self.filter.to_json(),
            "amendable": self.amendable,
        }


def is_amendable2(c: Channel, f: FilterCandidate) -> bool:
    """Does the filter rescue the two-use composition?

    True when c is in EB^2 but c . f . c is not entanglement breaking,
    decided on its transfer matrix without building a channel.
    """
    return ebn_member(c, 2) and not decide_eb(_filtered(c, f, 2))[0]


def amend_order(c: Channel, f: FilterCandidate, cap: int = DEFAULT_CAP) -> NcResult:
    """Entanglement-breaking order of the filtered iteration (f . c)^m.

    Runs the same scan as ``search_filter``, so a report's ``filtered_nc``
    equals ``amend_order(c, report.filter, cap)``.  An improper filter raises
    ``ValueError`` unless c is a ``UnitalChannel``.
    """
    orders, _ = _order_scan(_scan_base(c), f.bloch_matrix()[None], cap)
    return _order_result(orders[0], cap)


def _is_unitary_channel(c: Channel) -> bool:
    """T orthogonal in the PTM, whatever the representation.  A channel maps
    the Bloch sphere into the ball, so an orthogonal T also forces t = 0."""
    m = ptm(c)[1:, 1:]
    return bool(np.abs(m.T @ m - np.eye(3)).max() <= INPUT_TOL)


def _cube_root_floor(n: int) -> int:
    """Largest k with k**3 <= n, for n >= 1 (n ** (1/3) rounds 64 down to 3.99...)."""
    k = round(n ** (1.0 / 3.0))
    while k ** 3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def _first_max(scores: np.ndarray) -> int:
    """Index of the first score within ``ROUND_TOL`` of the maximum: rounding
    must not pick among filters that tie in exact arithmetic."""
    return int(np.argmax(scores >= scores.max() - ROUND_TOL))


def _negated_score(base: np.ndarray, angles, cap: int) -> float:
    """Minus the score (order plus margin) of the Euler filter with these
    angles, what the refinement in ``search_filter`` minimizes.  Each point
    gets a one-row scan: on the PTM route ``ptm_partial_transpose`` multiplies
    a stack of rows as one matrix product, which rounds differently from a
    single row, and the refinement must see the bits of a one-point scan."""
    o, m = _order_scan(base, _euler_lattice(*np.reshape(angles, (3, 1))), cap)
    return float(-(o[0] + m[0]))


def search_filter(
    c: Channel,
    cap: int = DEFAULT_CAP,
    budget: int = 1000,
    seed: int = 42,
) -> AmendReport:
    """Look for the filter that maximally delays entanglement breaking.

    Scores the named filters (three Pauli conjugations and the x-then-y
    quarter-turn pair) by one batched order scan over their stacked Bloch
    rotations.  Scores within ``ROUND_TOL`` of the maximum tie, and the first
    of them in evaluation order wins.

    A ``UnitalChannel`` adds one more named filter, its inverse polar
    rotation, and stops there.  With T = O_p P its polar decomposition, the
    filter O_p^T gives (O_p^T T)^m = P^m, whose trace norm is sum_i s_i^m
    for the singular values s_i of T.  For every orthogonal O the singular
    values of (O T)^m are weakly majorized by the products of the singular
    values of its factors (A. Horn, PNAS 1950), so ||(O T)^m||_1 <= sum_i
    s_i^m.  No filter therefore turns entanglement breaking later, nor at
    the same use with a larger trace norm, so none scores higher; `budget`
    is only checked, and `seed` is not used.

    Any other channel also scores a seeded Euler-angle lattice of k^3 points,
    k^3 the largest cube not above `budget`, in the same scan after the
    named filters, then refines the first best lattice point with the local
    Nelder-Mead simplex method ``measures.nelder_mead``, each point it asks
    for scored by its own one-row scan (``_negated_score``).
    The refined filter wins only by more than ``ROUND_TOL``.  Deterministic
    for a fixed seed.

    The report is amendable when the channel's order, found within `cap`,
    is at most 2 and the winning filter's order exceeds 2.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if _is_unitary_channel(c):
        raise ValueError("unitary channels never break entanglement; nothing to amend")

    named = [FilterCandidate.pauli(k) for k in (1, 2, 3)] + [FilterCandidate.r2r1()]
    unital = isinstance(c, UnitalChannel)
    if unital:
        rotation, _ = polar_decompose(c.t)
        named.append(FilterCandidate.orthogonal(rotation.T))
    rotations = np.array([f.bloch_matrix() for f in named])
    if not unital:
        rng = np.random.default_rng(seed)
        per_axis = _cube_root_floor(budget)
        spans = (2 * math.pi, math.pi, 2 * math.pi)
        offsets = [rng.uniform(0.0, span / per_axis) for span in spans]
        axes = [
            offsets[k] + np.arange(per_axis) * (spans[k] / per_axis)
            for k in range(3)
        ]
        rotations = np.concatenate([rotations, _euler_lattice(*axes)])
    base = _scan_base(c)
    orders, margins = _order_scan(base, rotations, cap)
    scores = orders + margins
    best = _first_max(scores)
    best_score = scores[best]
    best_result = _order_result(orders[best], cap)

    def lattice_point(index: int) -> tuple:
        ijk = np.unravel_index(index, (per_axis,) * 3)
        return tuple(float(axes[k][ijk[k]]) for k in range(3))

    if best < len(named):
        best_filter = named[best]
    else:
        best_filter = FilterCandidate.euler(*lattice_point(best - len(named)))

    if not unital:
        start = lattice_point(_first_max(scores[len(named):]))
        x, fun = nelder_mead(lambda a: _negated_score(base, a, cap), start, maxiter=200)
        if -fun > best_score + ROUND_TOL:
            best_filter = FilterCandidate.euler(*(float(a) for a in x))
            best_result = amend_order(c, best_filter, cap)

    base_nc = n_c(c, cap)
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
    mid = _filter_ptms(f.bloch_matrix()[None])[0]
    distinct, index = np.unique(gs, return_inverse=True)
    edge = np.array([p_n(g, 2) for g in distinct])[index.reshape(gs.shape)]
    below = ps < edge
    amendable = np.zeros(ps.shape, dtype=bool)
    r = gad_ptm(ps[below], gs[below])
    amendable[below] = decide_eb(r @ mid @ r)[0]
    return bool(amendable) if amendable.ndim == 0 else amendable
