"""Isotropic one-mode Gaussian channels: entanglement breaking and order.

Two families are classified, in hbar = 1 units with vacuum quadrature
variance 1/2: attenuation (0 < k < 1) and amplification (k > 1), each with
added noise N0 >= 0, so the noise matrix is beta = (N0 + |1 - k^2| / 2) * 1.
Such a channel is entanglement breaking exactly when its scalar noise
satisfies b >= (1 + k^2) / 2, that is N0 >= k^2 (attenuation) and N0 >= 1
(amplification).  The n-fold composition stays in its family, with gain k^n
and added noise N0 sum_{j<n} k^(2j), so the order n_c is read off
closed-form bands in N0, closed within ``linalg.ROUND_TOL``.

The general triplet form (K, l, beta), its composition law and the
entanglement-breaking split test live in the test suite
(``tests/helpers.py``), where iterating them is the oracle for these bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import _json_field
from .linalg import ROUND_TOL
from .report import NcResult


@dataclass(frozen=True)
class IsoChannel:
    """Isotropic family member: attenuation (k < 1) or amplification (k > 1)."""

    family: str
    k: float
    n0: float

    def __post_init__(self):
        k, n0 = float(self.k), float(self.n0)
        if not (math.isfinite(k) and math.isfinite(n0)):
            raise ValueError(f"k and N0 must be finite, got k = {k}, N0 = {n0}")
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


def is_eb_iso(c: IsoChannel) -> bool:
    """Scalar criterion: N0 >= k^2 (attenuation) or N0 >= 1 (amplification)."""
    if c.family == "attenuation":
        return c.n0 >= c.k * c.k - ROUND_TOL
    return c.n0 >= 1.0 - ROUND_TOL


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
        if n0 >= _n_fold_threshold(family, k, n) - ROUND_TOL:
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
