"""Two-qubit separability decisions on Choi matrices.

For 2 (x) 2 systems positivity of the partial transpose is necessary and
sufficient for separability, so the separability decision reduces to the
minimum eigenvalue of the partially transposed state.  For a channel that
partial transpose is a fixed linear image of its Pauli transfer matrix
(``ptm_partial_transpose``), so entanglement-breaking decisions never build a
Choi matrix.  The eigenvalue bound is the decision rather than the sign of the
determinant (a two-qubit partial transpose has at most one negative
eigenvalue, so both carry the same information away from the boundary): it
degrades linearly near the boundary where the determinant degrades
quartically.  The test suite keeps the determinant as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, PAULIS, UnitalChannel, choi, ptm
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


def is_separable(s: ChoiState, tol: float | None = None) -> bool:
    """PPT decision: separable iff min PT eigenvalue >= -tol.

    The boundary counts as separable (closed inequality).
    """
    if not isinstance(s, ChoiState):
        s = ChoiState(s)
    if tol is None:
        tol = s.tol
    return min_pt_eigenvalue(s) >= -tol


def is_eb(c: Channel) -> bool:
    """Is the channel entanglement breaking?

    Unital channels are decided by the trace norm of their Bloch matrix,
    ||T||_1 <= 1 (boundary inclusive); everything else by the smallest
    partial-transpose eigenvalue of the Choi matrix, computed from the Pauli
    transfer matrix.  The two routes agree on unital channels that are
    completely positive.
    """
    if isinstance(c, UnitalChannel):
        return trace_norm(c.t) <= 1.0 + SEP_TOL
    return bool(ptm_min_pt_eigenvalues(ptm(c)) >= -SEP_TOL)
