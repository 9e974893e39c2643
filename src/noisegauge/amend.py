"""Amendability: raising a channel's entanglement-breaking order by filtering.

A channel whose two-fold self-composition breaks entanglement can sometimes
be rescued: interposing a fixed unitary filter between uses keeps the
composition non-entanglement-breaking for longer.  ``is_amendable2`` tests a
given filter, ``amend_order`` computes the order of the filtered iteration,
and ``search_filter`` looks for a good filter among the named Pauli /
rotation candidates plus a seeded Euler-angle grid.  The channel's own order
and every filtered order come from one batched scan over a stack of filter
rotations, ``measures._order_scan``.

Filters are unitary channels given by their Bloch rotation.  Improper
orthogonal Bloch actions (determinant -1) are accepted for compositions with
unital channels, where everything reduces to trace norms of 3x3 matrices;
they do not correspond to any Kraus form and are rejected whenever a
channel is composed through its Kraus operators or its Pauli transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    GadParams,
    IDENTITY_2,
    KrausChannel,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UnitalChannel,
    as_kraus,
    compose_kraus,
    ptm,
)
from .gad import p_n
from .linalg import polar_decompose
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
from .separability import SEP_TOL, is_eb, ptm_min_pt_eigenvalues

_PAULI_VECTOR = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Filter scores this close count as equal.  A channel that is entanglement
# breaking at one use gives every filter the same score in exact arithmetic,
# and the winner must not be picked by rounding.
SCORE_TIE = 1e-12


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


def _su2(axis: int, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma_axis); conjugation rotates Bloch vectors by angle."""
    return math.cos(angle / 2) * IDENTITY_2 - 1j * math.sin(angle / 2) * _PAULI_VECTOR[axis]


def su2_from_so3(r: np.ndarray) -> np.ndarray:
    """Unitary whose conjugation action realizes a proper rotation r.

    Quaternion extraction stable for all rotation angles including pi.
    """
    t = float(np.trace(r))
    if t >= max(r[0, 0], r[1, 1], r[2, 2]):
        w = math.sqrt(max(0.0, 1.0 + t)) / 2
        x = (r[2, 1] - r[1, 2]) / (4 * w)
        y = (r[0, 2] - r[2, 0]) / (4 * w)
        z = (r[1, 0] - r[0, 1]) / (4 * w)
    else:
        i = int(np.argmax([r[0, 0], r[1, 1], r[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(0.0, 1.0 + r[i, i] - r[j, j] - r[k, k])) / 2
        axis = [0.0, 0.0, 0.0]
        axis[i] = s
        w = (r[k, j] - r[j, k]) / (4 * s)
        axis[j] = (r[j, i] + r[i, j]) / (4 * s)
        axis[k] = (r[k, i] + r[i, k]) / (4 * s)
        x, y, z = axis
    return w * IDENTITY_2 - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


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
            object.__setattr__(self, "params", tuple(float(a) for a in self.params))
        elif kind == "orthogonal":
            m = np.asarray(self.params, dtype=float).reshape(3, 3)
            if np.abs(m @ m.T - np.eye(3)).max() > 1e-10:
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

    def unitary(self) -> np.ndarray:
        """2x2 unitary realizing the filter; fails for improper rotations."""
        if self.kind in ("s1", "s2", "s3"):
            return _PAULI_VECTOR[int(self.kind[1]) - 1].copy()
        if self.kind == "r2r1":
            return _su2(1, math.pi / 2) @ _su2(0, math.pi / 2)
        if self.kind == "euler":
            a, b, t = self.params
            return _su2(2, a) @ _su2(1, b) @ _su2(2, t)
        m = self.bloch_matrix()
        if np.linalg.det(m) < 0:
            raise ValueError(
                "improper orthogonal Bloch action has no unitary realization"
            )
        return su2_from_so3(m)

    def inverse(self) -> "FilterCandidate":
        """Filter realizing the inverse Bloch action."""
        return FilterCandidate.orthogonal(self.bloch_matrix().T)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": [float(x) for x in self.params]}

    @classmethod
    def from_json(cls, data: dict) -> "FilterCandidate":
        return cls(data["kind"], tuple(data.get("params", ())))


def apply_filter(f: FilterCandidate, c: Channel) -> Channel:
    """The filtered channel f . c (channel first, filter after)."""
    if isinstance(c, UnitalChannel):
        return UnitalChannel(f.bloch_matrix() @ c.t)
    u = f.unitary()
    base = as_kraus(c)
    return KrausChannel(tuple(u @ e for e in base.ops))


def sandwich(c: Channel, f: FilterCandidate) -> Channel:
    """The two-use composition c . f . c."""
    if isinstance(c, UnitalChannel):
        return UnitalChannel(c.t @ f.bloch_matrix() @ c.t)
    base = as_kraus(c)
    u = f.unitary()
    mid = KrausChannel(tuple(u @ e for e in base.ops))
    return compose_kraus(base, mid)


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

    True when c is in EB^2 but c . f . c is not entanglement breaking.
    """
    return ebn_member(c, 2) and not is_eb(sandwich(c, f))


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
    return bool(np.abs(m.T @ m - np.eye(3)).max() <= 1e-10)


def _cube_root_floor(n: int) -> int:
    """Largest k with k**3 <= n, for n >= 1 (n ** (1/3) rounds 64 down to 3.99...)."""
    k = round(n ** (1.0 / 3.0))
    while k ** 3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def _first_max(scores: np.ndarray) -> int:
    """Index of the first score within ``SCORE_TIE`` of the maximum."""
    return int(np.argmax(scores >= scores.max() - SCORE_TIE))


def search_filter(
    c: Channel,
    cap: int = DEFAULT_CAP,
    budget: int = 1000,
    seed: int = 42,
) -> AmendReport:
    """Look for the filter that maximally delays entanglement breaking.

    Tries the named filters (three Pauli conjugations and the x-then-y
    quarter-turn pair), the inverse polar rotation for unital channels, and a
    seeded Euler-angle lattice of k^3 points, k^3 the largest cube not above
    `budget`, then refines the best lattice point with the local Nelder-Mead
    simplex method ``measures.nelder_mead``.
    All candidates are scored at once by one batched order scan over their
    stacked Bloch rotations.  Deterministic for a fixed seed.  Scores within
    ``SCORE_TIE`` of the maximum tie, and the first of them in evaluation
    order wins; the same rule picks the lattice point the refinement starts
    from, and the refined filter wins only by more than ``SCORE_TIE``.
    The report is amendable when the channel's order, found within `cap`,
    is at most 2 and the winning filter's order exceeds 2.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if _is_unitary_channel(c):
        raise ValueError("unitary channels never break entanglement; nothing to amend")

    named = [FilterCandidate.pauli(k) for k in (1, 2, 3)] + [FilterCandidate.r2r1()]
    if isinstance(c, UnitalChannel):
        rotation, _ = polar_decompose(c.t)
        named.append(FilterCandidate.orthogonal(rotation.T))

    rng = np.random.default_rng(seed)
    per_axis = _cube_root_floor(budget)
    spans = (2 * math.pi, math.pi, 2 * math.pi)
    offsets = [rng.uniform(0.0, span / per_axis) for span in spans]
    axes = [
        offsets[k] + np.arange(per_axis) * (spans[k] / per_axis)
        for k in range(3)
    ]
    rotations = np.concatenate(
        [np.array([f.bloch_matrix() for f in named]), _euler_lattice(*axes)]
    )
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

    def negated(angles: np.ndarray) -> float:
        o, m = _order_scan(base, _euler_lattice(*angles[:, None]), cap)
        return -(o[0] + m[0])

    start = lattice_point(_first_max(scores[len(named):]))
    x, fun = nelder_mead(negated, start, xatol=1e-4, fatol=1e-12, maxiter=200)
    if -fun > best_score + SCORE_TIE:
        best_filter = FilterCandidate.euler(*(float(a) for a in x))
        best_result = amend_order(c, best_filter, cap)

    base_nc = n_c(c, cap)
    amendable = base_nc.is_finite and base_nc.n <= 2 < best_result.order_key()
    return AmendReport(base_nc, best_result, best_filter, amendable)


def gad_amendable(p: float, gamma: float, f: FilterCandidate) -> bool:
    """Membership test for the damping-channel amendable region.

    The rescued channel at point (p, gamma) is the damping channel composed
    with the rotation f; the order-raising filter is the inverse rotation
    (equivalently ``is_amendable2`` on that pair).  Written out: the
    interleaved two-use map (damping . f . damping), with PTM R F R, breaks
    entanglement while the plain two-fold composition does not, the latter
    decided through the closed-form band edge.  An improper f raises
    ``ValueError``.
    """
    channel = GadParams(p, gamma)
    if channel.p >= p_n(channel.gamma, 2):
        return False
    r = ptm(channel)
    two_use = r @ _filter_ptms(f.bloch_matrix()[None])[0] @ r
    return bool(ptm_min_pt_eigenvalues(two_use) >= -SEP_TOL)
