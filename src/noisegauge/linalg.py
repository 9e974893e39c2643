"""Fixed-size dense linear-algebra kernels.

Everything in this module operates on 3x3 real matrices (Bloch-space channel
actions) or 4x4 Hermitian matrices (two-qubit operators).  The routines are
thin, validated wrappers around LAPACK via numpy; the point is a stable
contract (shapes, the two slacks, sign conventions) for the rest of the package.
"""

from __future__ import annotations

import numpy as np

# The tolerance policy: every slack in the package is one of these two.
# A given matrix or vector may miss its exact constraint (Hermitian, unit
# trace, PSD, contraction, completeness, orthogonal) by this much.
INPUT_TOL = 1e-10
# Numbers equal in exact arithmetic may differ by this much after rounding
# (the EB boundary, band edges, zero eigenvalues, discriminants, score ties).
ROUND_TOL = 1e-12


def as_real3(m) -> np.ndarray:
    """Coerce to a finite 3x3 float array, raising ValueError otherwise."""
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 real matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_hermitian4(g) -> np.ndarray:
    """Coerce to a 4x4 complex array, checking Hermiticity within ``INPUT_TOL``."""
    a = np.asarray(g, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    dev = np.abs(a - a.conj().T).max()
    if dev > INPUT_TOL:
        raise ValueError(f"matrix is not Hermitian (max |A - A^dag| = {dev:.3e})")
    return a


def trace_norm(m) -> float:
    """Sum of singular values of a 3x3 real matrix, Tr[sqrt(m^T m)]."""
    return float(np.linalg.svd(as_real3(m), compute_uv=False).sum())


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Factor m = orthogonal @ psd with psd = sqrt(m^T m) symmetric PSD.

    Both factors are built from the SVD m = U S V^T as orthogonal = U V^T and
    psd = V S V^T, so rank-deficient inputs still get a deterministic
    orthogonal completion.

    Returns:
        (orthogonal, psd) with orthogonal @ psd == m.
    """
    a = as_real3(m)
    u, s, vt = np.linalg.svd(a)
    orthogonal = u @ vt
    psd = vt.T @ np.diag(s) @ vt
    return orthogonal, psd


def partial_transpose(g) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 operator on C^2 (x) C^2.

    Index convention: row (i, j) = 2i + j, so the map sends
    M[(i,j),(k,l)] -> M[(i,l),(k,j)].  The operation is an involution and
    preserves trace and Hermiticity exactly.
    """
    a = as_hermitian4(g)
    return a.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
