"""Two-qubit separability and the one entanglement-breaking rule.

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
Every entanglement-breaking decision on a channel is ``decide_eb``, with the
one slack ``EB_TOL``, except that ``is_eb`` decides a ``GadParams`` channel by
its closed-form band edge, as the order and the threshold of that
representation do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, GadParams, PAULIS, UnitalChannel, choi, ptm
from .gad import p_n
from .linalg import as_hermitian4, partial_transpose

EB_TOL = 1e-10

# sigma_i (x) sigma_j / 4 in row 4i + j.
_PT_BASIS = np.array([np.kron(a, b) for a in PAULIS for b in PAULIS]).reshape(16, 16) / 4


@dataclass(frozen=True)
class ChoiState:
    """Validated two-qubit state: Hermitian, unit trace, PSD within EB_TOL."""

    g: np.ndarray

    def __post_init__(self):
        g = as_hermitian4(self.g)
        tr = complex(np.trace(g))
        if abs(tr - 1.0) > EB_TOL:
            raise ValueError(f"state trace is {tr}, expected 1")
        low = float(np.linalg.eigvalsh(g).min())
        if low < -EB_TOL:
            raise ValueError(f"state has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "g", g)


def choi_state(c: Channel) -> ChoiState:
    """Choi matrix of a channel wrapped as a validated state."""
    return ChoiState(choi(c))


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


def decide_eb(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EB flags and tie-break margins for a (stack of) channel matrices.

    A 3x3 Bloch matrix T is EB when ||T||_1 <= 1 + EB_TOL, margin
    ||T||_1 - 1; a 4x4 PTM when its smallest partial-transpose eigenvalue is
    >= -EB_TOL, margin minus twice that eigenvalue.  Boundary inclusive.  On
    EB channels the margin lies in [-1, 0] and nears 0 at the boundary.
    """
    if stack.shape[-1] == 3:
        tn = np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
        return tn <= 1.0 + EB_TOL, np.maximum(-1.0, tn - 1.0)
    low = ptm_min_pt_eigenvalues(stack)
    return low >= -EB_TOL, -np.minimum(1.0, 2.0 * np.maximum(0.0, low))


def is_separable(s: ChoiState) -> bool:
    """PPT decision: separable iff min PT eigenvalue >= -EB_TOL.

    The boundary counts as separable (closed inequality).
    """
    if not isinstance(s, ChoiState):
        s = ChoiState(s)
    return min_pt_eigenvalue(s) >= -EB_TOL


def is_eb(c: Channel) -> bool:
    """Is the channel entanglement breaking?

    A damping channel is when p >= p_n(gamma, 1), the exact band comparison
    of ``gad.n_c_gad`` and ``gad.mu_c_gad``, so its three answers agree to the
    last bit.  Any other channel goes through ``decide_eb``: on the Bloch
    matrix of a unital channel (trace norm) and on the Pauli transfer matrix
    otherwise (partial-transpose eigenvalue).  The two routes agree on unital
    channels that are completely positive.
    """
    if isinstance(c, GadParams):
        return c.p >= p_n(c.gamma, 1)
    return bool(decide_eb(c.t if isinstance(c, UnitalChannel) else ptm(c))[0])
