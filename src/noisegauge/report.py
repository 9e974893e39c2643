"""Result types shared across the noise functionals.

``NcResult`` carries the entanglement-breaking iteration order of a channel:
either a finite order n (the n-th self-composition is the first
entanglement-breaking one) or the fact that no order up to ``cap`` was found.
An exceeded cap is an honest "inconclusive" unless ``proven_divergent`` is
set, which only happens where a closed form certifies that no finite order
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NcResult:
    """Entanglement-breaking order: Finite(n) or ExceedsCap(cap)."""

    n: int | None
    cap: int
    proven_divergent: bool = False

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.n is not None and not (1 <= self.n <= self.cap):
            raise ValueError(f"finite order {self.n} outside [1, cap={self.cap}]")
        if self.proven_divergent and self.n is not None:
            raise ValueError("a finite order cannot be proven divergent")

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    def order_key(self) -> float:
        """Total ordering with ExceedsCap greatest (treated as infinity)."""
        return math.inf if self.n is None else float(self.n)

    def to_json(self):
        return self.n if self.n is not None else "exceeds_cap"

    def __str__(self) -> str:
        if self.n is not None:
            return str(self.n)
        tag = "divergent" if self.proven_divergent else f"> {self.cap}"
        return tag


@dataclass(frozen=True)
class NoiseReport:
    """Joint noise summary: depolarizing threshold, order, EB^n flags.

    ``ebn[i]`` answers whether the (i+1)-fold self-composition is
    entanglement breaking, for i < cap; the EB^n families are nested, so the
    flags follow from the order.  ``mu_c`` is None only for channels where
    the mixing functional is not defined (one-mode Gaussian families).
    """

    mu_c: float | None
    n_c: NcResult

    def __post_init__(self):
        if self.mu_c is not None and (self.mu_c == 0.0) != (self.n_c.n == 1):
            raise ValueError("mu_c vanishes exactly when the channel is EB")

    @property
    def ebn(self) -> tuple:
        n = self.n_c.n
        return tuple(n is not None and k >= n for k in range(1, self.n_c.cap + 1))

    def to_json(self) -> dict:
        return {
            "mu_c": self.mu_c,
            "n_c": self.n_c.to_json(),
            "cap": self.n_c.cap,
            "ebn": list(self.ebn),
        }
