"""One-mode Gaussian channels: triplets, composition, entanglement breaking.

A one-mode Gaussian channel is the triplet (K, l, beta) acting on Weyl
operators in hbar = 1 units with symplectic form Delta = [[0, 1], [-1, 0]]
and vacuum quadrature variance 1/2.  Complete positivity requires

    beta -/+ (i/2) (Delta - K^T Delta K)  >=  0

as a Hermitian 2x2 matrix.  The channel is entanglement breaking exactly when
beta splits as alpha + nu with alpha >= (i/2) Delta and nu >= (i/2) K^T
Delta K.

Only the isotropic attenuation (0 < k < 1) and amplification (k > 1)
families, beta = (N0 + |1 - k^2| / 2) * 1, are classified here.  For those
the split exists iff the scalar noise satisfies b >= (1 + k^2) / 2, giving
N0 >= k^2 (attenuation) and N0 >= 1 (amplification); iterating the
composition law turns these into closed-form order bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _json_field
from .report import NcResult

CPT_TOL = 1e-10
# Closed boundaries: a point within this of a band edge counts as inside.
BOUNDARY_TOL = 1e-12

DELTA = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian channel triplet (k_mat, l_vec, beta), CPT-validated."""

    k_mat: np.ndarray
    l_vec: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_mat, dtype=float)
        l = np.asarray(self.l_vec, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if k.shape != (2, 2) or l.shape != (2,) or b.shape != (2, 2):
            raise ValueError("expected shapes (2,2), (2,), (2,2) for (K, l, beta)")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(l)) and np.all(np.isfinite(b))):
            raise ValueError("Gaussian triplet entries must be finite")
        if np.abs(b - b.T).max() > CPT_TOL:
            raise ValueError("noise matrix beta must be symmetric")
        m = DELTA - k.T @ DELTA @ k
        for sign in (+1.0, -1.0):
            h = b.astype(complex) - sign * 0.5j * m
            low = float(np.linalg.eigvalsh(h).min())
            if low < -CPT_TOL:
                raise ValueError(
                    f"triplet violates complete positivity (eigenvalue {low:.3e})"
                )
        object.__setattr__(self, "k_mat", k)
        object.__setattr__(self, "l_vec", l)
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class IsoChannel:
    """Isotropic family member: attenuation (k < 1) or amplification (k > 1)."""

    family: str
    k: float
    n0: float

    def __post_init__(self):
        k, n0 = float(self.k), float(self.n0)
        if self.family == "attenuation":
            if not 0.0 < k < 1.0:
                raise ValueError(f"attenuation requires 0 < k < 1, got {k}")
        elif self.family == "amplification":
            if not k > 1.0:
                raise ValueError(f"amplification requires k > 1, got {k}")
        else:
            raise ValueError(f"unknown family {self.family!r}")
        if n0 < 0.0:
            raise ValueError(f"added noise N0 must be nonnegative, got {n0}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n0", n0)

    def to_json(self) -> dict:
        return {"family": self.family, "k": self.k, "n0": self.n0}

    @classmethod
    def from_json(cls, data: dict) -> "IsoChannel":
        """Inverse of to_json; a missing field raises ``ValueError`` naming
        the family and the field."""
        family = str(_json_field(data, "isotropic Gaussian", "family"))
        k, n0 = (float(_json_field(data, family, name)) for name in ("k", "n0"))
        return cls(family, k, n0)


def attenuation(k: float, n0: float) -> IsoChannel:
    return IsoChannel("attenuation", k, n0)


def amplification(k: float, n0: float) -> IsoChannel:
    return IsoChannel("amplification", k, n0)


def to_triplet(c: IsoChannel) -> GaussianChannel:
    """Triplet form K = k 1, l = 0, beta = (N0 + |1 - k^2| / 2) 1."""
    scale = c.n0 + abs(1.0 - c.k * c.k) / 2.0
    return GaussianChannel(c.k * np.eye(2), np.zeros(2), scale * np.eye(2))


def compose_gaussian(first: GaussianChannel, second: GaussianChannel) -> GaussianChannel:
    """Gaussian channel equivalent to applying `first`, then `second`:

        K = K1 K2,   l = K2^T l1 + l2,   beta = K2^T beta1 K2 + beta2,

    where the subscript 1 denotes the channel applied first.
    """
    k = first.k_mat @ second.k_mat
    l = second.k_mat.T @ first.l_vec + second.l_vec
    b = second.k_mat.T @ first.beta @ second.k_mat + second.beta
    return GaussianChannel(k, l, (b + b.T) / 2)


def eb_split_feasible(c: GaussianChannel) -> bool:
    """Entanglement-breaking split test with the isotropic ansatz alpha = a 1.

    Exact for isotropic beta (where it reduces to b >= (1 + |det K|) / 2);
    merely sufficient for anisotropic beta, since the ansatz restricts alpha.
    The optimal a is the smallest admissible one, a = 1/2, because the
    remaining condition only tightens as a grows.
    """
    d = float(np.linalg.det(c.k_mat))
    b11, b22, b12 = c.beta[0, 0], c.beta[1, 1], c.beta[0, 1]
    if b11 < 0.5 - BOUNDARY_TOL or b22 < 0.5 - BOUNDARY_TOL:
        return False
    return (b11 - 0.5) * (b22 - 0.5) - b12 * b12 - d * d / 4.0 >= -BOUNDARY_TOL


def is_eb_iso(c: IsoChannel) -> bool:
    """Scalar criterion: N0 >= k^2 (attenuation) or N0 >= 1 (amplification)."""
    if c.family == "attenuation":
        return c.n0 >= c.k * c.k - BOUNDARY_TOL
    return c.n0 >= 1.0 - BOUNDARY_TOL


def _n_fold_threshold(family: str, k: float, n: int) -> float:
    """N0 above which the n-fold composition is entanglement breaking."""
    partial = sum(k ** (2 * j) for j in range(n))
    if family == "attenuation":
        return k ** (2 * n) / partial
    return 1.0 / partial


def _n_c_iso(family: str, k: float, n0: float, cap: int) -> NcResult:
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n0 == 0.0:
        # The threshold is strictly positive for every n, so a noiseless
        # channel in either family never breaks entanglement.
        return NcResult(None, cap, proven_divergent=True)
    for n in range(1, cap + 1):
        if n0 >= _n_fold_threshold(family, k, n) - BOUNDARY_TOL:
            return NcResult(n, cap)
    return NcResult(None, cap)


def n_c_attenuation(k: float, n0: float, cap: int = 64) -> NcResult:
    """Order of an attenuation channel: smallest n with
    N0 >= k^(2n) / sum_{j<n} k^(2j)."""
    c = attenuation(k, n0)
    return _n_c_iso(c.family, c.k, c.n0, cap)


def n_c_amplification(k: float, n0: float, cap: int = 64) -> NcResult:
    """Order of an amplification channel: smallest n with
    N0 >= 1 / sum_{j<n} k^(2j)."""
    c = amplification(k, n0)
    return _n_c_iso(c.family, c.k, c.n0, cap)


def n_c_iso(c: IsoChannel, cap: int = 64) -> NcResult:
    """Order of either isotropic family member."""
    return _n_c_iso(c.family, c.k, c.n0, cap)
