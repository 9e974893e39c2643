"""Qubit channel input formats and the transfer matrix that carries the algebra.

Three input formats are accepted:

* ``UnitalChannel`` -- a 3x3 real matrix acting on Bloch vectors, v -> T v.
* ``KrausChannel``  -- a list of 2x2 complex operators, rho -> sum E rho E^dag.
* ``GadParams``     -- the (p, gamma) generalized amplitude-damping family.

Each converts to its real 4x4 Pauli transfer matrix (``ptm``), the affine Bloch
map R = [[1, 0], [t, T]] of King and Ruskai, and the algebra runs on it:
composition is the matrix product, and the Choi matrix is a fixed linear
image of R (``choi_from_ptm``).  Kraus form is an input and output format
only: a caller that needs a product back as a channel gets one Kraus set
extracted from that Choi matrix (``kraus_from_choi``).

The Choi matrix convention used throughout: the channel acts on the FIRST
tensor factor of the maximally entangled state, Gamma = (Phi (x) I)[psi+],
with psi+ built on the canonical basis.  With this convention the Choi matrix
of a Kraus channel is (1/2) sum_i vec(E_i) vec(E_i)^dag where vec() flattens
row-major, which is what ``kraus_from_choi`` inverts.

Note that the ``UnitalChannel`` invariant is the Bloch contraction condition
T^T T <= 1 only.  That admits maps which are not completely positive (their
Choi matrix has a negative eigenvalue); all entanglement-breaking logic for
unital channels therefore runs on trace norms of T, never on Choi positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_hermitian4, as_real3

CONTRACTION_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
DENSITY_TOL = 1e-10
# Choi eigenvalues below this are treated as zero when extracting Kraus sets.
KRAUS_PRUNE_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_STACK = np.array(PAULIS)

# sigma_i (x) sigma_j^T / 4 in row 4i + j: ``choi`` is R.reshape(16) @ this.
_CHOI_BASIS = np.array([np.kron(a, b.T) for a in PAULIS for b in PAULIS]).reshape(16, 16) / 4

_PSI_PLUS_VEC = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.outer(_PSI_PLUS_VEC, _PSI_PLUS_VEC.conj())

# Action of conjugation by sigma_i on sigma_j: sigma_i sigma_j sigma_i = M[i,j] sigma_j.
PAULI_MIX = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


def bloch_vector(v) -> np.ndarray:
    """Validate a Bloch vector: 3 finite reals with |v| <= 1 + 1e-12."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a length-3 Bloch vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("Bloch vector entries must be finite")
    norm = float(np.linalg.norm(a))
    if norm > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector lies outside the ball (|v| = {norm})")
    return a


def bloch_to_density(v) -> np.ndarray:
    """Density matrix (1 + v . sigma) / 2 for a Bloch vector v."""
    a = bloch_vector(v)
    return (IDENTITY_2 + a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z) / 2


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix."""
    r = np.asarray(rho, dtype=complex)
    return np.array([np.real(np.trace(s @ r)) for s in PAULIS[1:]])


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 2x2 density matrix,
    each within ``DENSITY_TOL``."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {r.shape}")
    if np.abs(r - r.conj().T).max() > DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(r).real - 1.0) > DENSITY_TOL or abs(np.trace(r).imag) > DENSITY_TOL:
        raise ValueError("density matrix does not have unit trace")
    if np.linalg.eigvalsh(r).min() < -DENSITY_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return r


@dataclass(frozen=True)
class UnitalChannel:
    """Unital qubit channel represented by its Bloch action v -> t v."""

    t: np.ndarray

    def __post_init__(self):
        t = as_real3(self.t)
        top = float(np.linalg.eigvalsh(t.T @ t)[-1])
        if top > 1.0 + CONTRACTION_TOL:
            raise ValueError(
                f"not a Bloch contraction: largest eigenvalue of T^T T is {top}"
            )
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class KrausChannel:
    """Channel as a list of 2x2 Kraus operators with sum E^dag E = 1."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(e, dtype=complex) for e in self.ops)
        if not ops:
            raise ValueError("Kraus channel needs at least one operator")
        for e in ops:
            if e.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {e.shape}")
            if not np.all(np.isfinite(e.view(float))):
                raise ValueError("Kraus operator entries must be finite")
        total = sum(e.conj().T @ e for e in ops)
        dev = np.abs(total - IDENTITY_2).max()
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated (max dev {dev:.3e})")
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class GadParams:
    """Generalized amplitude damping: decay strength p, bath bias gamma."""

    p: float
    gamma: float

    def __post_init__(self):
        p, gamma = float(self.p), float(self.gamma)
        check_unit_square(p, gamma)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)


def check_unit_square(p, gamma) -> tuple[np.ndarray, np.ndarray]:
    """p and gamma, scalars or arrays that broadcast together, as broadcast
    float arrays; ``ValueError`` naming the first pair outside the unit
    square."""
    p, gamma = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(gamma, dtype=float))
    inside = (0.0 <= p) & (p <= 1.0) & (0.0 <= gamma) & (gamma <= 1.0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(
            f"(p, gamma) = ({float(p.flat[i])}, {float(gamma.flat[i])}) outside the unit square"
        )
    return p, gamma


Channel = UnitalChannel | KrausChannel | GadParams


def compose_unital(c1: UnitalChannel, c2: UnitalChannel) -> UnitalChannel:
    """Composition c1 after c2 (c2 acts first); Bloch matrix T1 T2."""
    return UnitalChannel(c1.t @ c2.t)


def gad_kraus(g: GadParams) -> KrausChannel:
    """The four Kraus operators of the (p, gamma) damping channel.

    E1 = sqrt(gamma)   [[1, 0], [0, sqrt(1-p)]]
    E2 = sqrt(gamma)   [[0, sqrt(p)], [0, 0]]
    E3 = sqrt(1-gamma) [[sqrt(1-p), 0], [0, 1]]
    E4 = sqrt(1-gamma) [[0, 0], [sqrt(p), 0]]
    """
    p, gamma = g.p, g.gamma
    sp = np.sqrt(p)
    s1p = np.sqrt(1.0 - p)
    sg = np.sqrt(gamma)
    s1g = np.sqrt(1.0 - gamma)
    e1 = sg * np.array([[1, 0], [0, s1p]], dtype=complex)
    e2 = sg * np.array([[0, sp], [0, 0]], dtype=complex)
    e3 = s1g * np.array([[s1p, 0], [0, 1]], dtype=complex)
    e4 = s1g * np.array([[0, 0], [sp, 0]], dtype=complex)
    return KrausChannel((e1, e2, e3, e4))


def choi(c: Channel) -> np.ndarray:
    """Choi matrix (Phi (x) I)[psi+], channel acting on the first factor.

    Always Hermitian with unit trace; positive semidefinite exactly when the
    channel is completely positive (see the module docstring caveat for
    unital channels that only satisfy the contraction condition).
    """
    return choi_from_ptm(ptm(c))


def choi_from_ptm(r: np.ndarray) -> np.ndarray:
    """Choi matrix of the channel with PTM R: as psi+ = (1/4) sum_j sigma_j (x)
    sigma_j^T, it is the linear image (1/4) sum_ij R_ij sigma_i (x) sigma_j^T."""
    return (r.reshape(16) @ _CHOI_BASIS).reshape(4, 4)


def kraus_from_choi(g) -> KrausChannel:
    """Recover a minimal Kraus set from a Choi matrix.

    Eigenvectors with eigenvalue above ``KRAUS_PRUNE_TOL`` are kept and
    rescaled, giving at most four operators for a qubit channel.

    Raises:
        ValueError: if the Choi matrix is not positive semidefinite within
            tolerance (the map is not completely positive) or not
            trace-preserving.
    """
    a = as_hermitian4(g, tol=1e-9)
    w, u = np.linalg.eigh(a)
    if w.min() < -1e-9:
        raise ValueError(
            f"Choi matrix has negative eigenvalue {w.min():.3e}; "
            "the map is not completely positive"
        )
    ops = []
    for i in range(4):
        if w[i] > KRAUS_PRUNE_TOL:
            ops.append(np.sqrt(2.0 * w[i]) * u[:, i].reshape(2, 2))
    return KrausChannel(tuple(ops))


def compose_kraus(c1: KrausChannel, c2: KrausChannel) -> KrausChannel:
    """Composition c1 after c2 as Kraus sets, pruned back to <= 4 operators.

    No code in the package calls it: products run on ``ptm``.  The name is
    kept because the benchmark tracer (``perfbench/tracer.py``) requires it.
    """
    ops = tuple(a @ b for a in c1.ops for b in c2.ops)
    if len(ops) > 4:
        return kraus_from_choi(choi(KrausChannel(ops)))
    return KrausChannel(ops)


def as_kraus(c: Channel) -> KrausChannel:
    """Convert any channel to Kraus form (unital ones must be CP)."""
    if isinstance(c, KrausChannel):
        return c
    if isinstance(c, GadParams):
        return gad_kraus(c)
    return kraus_from_choi(choi(c))


def ptm(c: Channel) -> np.ndarray:
    """Real 4x4 Pauli transfer matrix R_ij = Tr(sigma_i Phi(sigma_j)) / 2.

    R = [[1, 0], [t, T]] maps (1, v) to (1, t + T v), so the PTM of a
    composition c1 after c2 is R1 @ R2.  Unital channels give t = 0 exactly;
    the damping channel has the closed form ``gad_ptm``.
    """
    if isinstance(c, UnitalChannel):
        r = np.eye(4)
        r[1:, 1:] = c.t
        return r
    if isinstance(c, GadParams):
        return gad_ptm(c.p, c.gamma)
    ops = np.array(c.ops)
    images = np.einsum("kab,jbc,kdc->jad", ops, _PAULI_STACK, ops.conj())
    return 0.5 * np.einsum("iab,jba->ij", _PAULI_STACK, images).real


def gad_ptm(p, gamma) -> np.ndarray:
    """PTM of the (p, gamma) damping channel: t = (0, 0, p (2 gamma - 1)),
    T = diag(sqrt(1-p), sqrt(1-p), 1-p).  Scalars give one 4x4 matrix and
    arrays that broadcast together a stack (..., 4, 4); the points are
    assumed to lie in the unit square."""
    p, gamma = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(gamma, dtype=float))
    r = np.zeros(p.shape + (4, 4))
    r[..., 0, 0] = 1.0
    r[..., 1, 1] = r[..., 2, 2] = np.sqrt(1.0 - p)
    r[..., 3, 0] = p * (2.0 * gamma - 1.0)
    r[..., 3, 3] = 1.0 - p
    return r


def pauli_decompose(lam) -> np.ndarray:
    """Mixing weights of sigma_i . sigma_i conjugations for a diagonal channel.

    A channel acting as sigma_j -> lam_j sigma_j (lam_0 = 1 on the identity)
    equals sum_i p_i sigma_i rho sigma_i with p = PAULI_MIX^{-1} (1, lam).
    Since PAULI_MIX squares to 4, the inverse is PAULI_MIX / 4.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ValueError("expected a triple of diagonal Bloch multipliers")
    return PAULI_MIX @ np.concatenate(([1.0], lam)) / 4.0


def channel_to_json(c: Channel) -> dict:
    """JSON-ready dict for a channel."""
    if isinstance(c, UnitalChannel):
        return {"kind": "unital", "t": [float(x) for x in c.t.ravel()]}
    if isinstance(c, GadParams):
        return {"kind": "gad", "p": c.p, "gamma": c.gamma}
    ops = [
        [[float(x.real), float(x.imag)] for x in e.ravel()]
        for e in c.ops
    ]
    return {"kind": "kraus", "ops": ops}


def channel_from_json(data: dict) -> Channel:
    """Inverse of channel_to_json. Raises ValueError on malformed payloads."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("channel JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "unital":
        t = np.asarray(data["t"], dtype=float)
        if t.size != 9:
            raise ValueError("unital channel needs 9 row-major entries in 't'")
        return UnitalChannel(t.reshape(3, 3))
    if kind == "gad":
        return GadParams(float(data["p"]), float(data["gamma"]))
    if kind == "kraus":
        ops = []
        for entry in data["ops"]:
            flat = np.asarray(entry, dtype=float)
            if flat.shape != (4, 2):
                raise ValueError("each Kraus operator needs 4 [re, im] pairs")
            ops.append((flat[:, 0] + 1j * flat[:, 1]).reshape(2, 2))
        return KrausChannel(tuple(ops))
    raise ValueError(f"unknown channel kind {kind!r}")
