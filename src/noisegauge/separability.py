"""Two-qubit separability decisions on Choi matrices.

For 2 (x) 2 systems positivity of the partial transpose is necessary and
sufficient for separability, so the separability decision reduces to the
minimum eigenvalue of the partially transposed state.  The determinant of the
partial transpose carries the same information away from the boundary (a
two-qubit partial transpose has at most one negative eigenvalue) and is kept
available as an independent cross-check, but the eigenvalue bound is the
canonical decision: it degrades linearly near the boundary where the
determinant degrades quartically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    IDENTITY_2,
    PAULIS,
    UnitalChannel,
    choi,
    validate_density,
)
from .linalg import as_hermitian4, partial_transpose, trace_norm

SEP_TOL = 1e-10

# sigma_i (x) sigma_j / 4 in row 4i + j.
_PT_BASIS = np.array([np.kron(a, b) for a in PAULIS for b in PAULIS]).reshape(16, 16) / 4


@dataclass(frozen=True)
class ChoiState:
    """Validated two-qubit state: Hermitian, unit trace, PSD within tol."""

    g: np.ndarray
    tol: float = SEP_TOL

    def __post_init__(self):
        g = as_hermitian4(self.g)
        tr = complex(np.trace(g))
        if abs(tr - 1.0) > self.tol:
            raise ValueError(f"state trace is {tr}, expected 1")
        low = float(np.linalg.eigvalsh(g).min())
        if low < -self.tol:
            raise ValueError(f"state has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "g", g)


def choi_state(c: Channel, tol: float = SEP_TOL) -> ChoiState:
    """Choi matrix of a channel wrapped as a validated state."""
    return ChoiState(choi(c), tol)


def min_pt_eigenvalue(g) -> float:
    """Smallest eigenvalue of the partial transpose."""
    m = g.g if isinstance(g, ChoiState) else g
    return float(np.linalg.eigvalsh(partial_transpose(m)).min())


def ptm_partial_transpose(r) -> np.ndarray:
    """Partial transpose of the Choi matrix of a channel given by its PTM.

    With psi+ = (1/4) sum_j sigma_j (x) sigma_j^T the Choi matrix is
    (1/4) sum_ij R_ij sigma_i (x) sigma_j^T, so its partial transpose is the
    fixed linear image (1/4) sum_ij R_ij sigma_i (x) sigma_j.  Accepts a stack
    (..., 4, 4) of PTMs.
    """
    r = np.asarray(r, dtype=float)
    lead = r.shape[:-2]
    return (r.reshape(*lead, 16) @ _PT_BASIS).reshape(*lead, 4, 4)


def ptm_min_pt_eigenvalues(r) -> np.ndarray:
    """Smallest partial-transpose eigenvalue for each PTM of a stack."""
    return np.linalg.eigvalsh(ptm_partial_transpose(r))[..., 0]


def pt_determinant(g) -> float:
    """Determinant of the partial transpose (negative iff entangled, for
    valid states away from the boundary)."""
    m = g.g if isinstance(g, ChoiState) else g
    return float(np.real(np.linalg.det(partial_transpose(m))))


def is_separable(s: ChoiState, tol: float | None = None) -> bool:
    """PPT decision: separable iff min PT eigenvalue >= -tol.

    The boundary counts as separable (closed inequality).
    """
    if not isinstance(s, ChoiState):
        s = ChoiState(s)
    if tol is None:
        tol = s.tol
    return min_pt_eigenvalue(s) >= -tol


def noisy_choi(c: Channel, rho0, mu: float) -> ChoiState:
    """Choi matrix of the convex mixture with a state-preparation channel.

    Returns (1 - mu) * (Phi (x) I)[psi+] + mu * rho0 (x) 1/2, the Choi matrix
    of the channel mixed with probability mu into the map sending everything
    to rho0.
    """
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mixing probability mu = {mu} outside [0, 1]")
    r = validate_density(rho0)
    g = (1.0 - mu) * choi(c) + mu * np.kron(r, IDENTITY_2 / 2)
    return ChoiState((g + g.conj().T) / 2)


def is_eb(c: Channel, tol: float = SEP_TOL) -> bool:
    """Is the channel entanglement breaking?

    Unital channels are decided by the trace norm of their Bloch matrix,
    ||T||_1 <= 1 (boundary inclusive); everything else goes through PPT
    separability of the Choi matrix.  The two routes agree on unital channels
    that are completely positive.
    """
    if isinstance(c, UnitalChannel):
        return trace_norm(c.t) <= 1.0 + tol
    return is_separable(choi_state(c), tol)
