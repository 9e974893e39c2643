"""Qubit channel representations and their algebra.

Three interchangeable representations are supported:

* ``UnitalChannel`` -- a 3x3 real matrix acting on Bloch vectors, v -> T v.
* ``KrausChannel``  -- a list of 2x2 complex operators, rho -> sum E rho E^dag.
* ``GadParams``     -- the (p, gamma) generalized amplitude-damping family.

Each converts to its real 4x4 Pauli transfer matrix (``ptm``), the affine Bloch
map R = [[1, 0], [t, T]] of King and Ruskai, under which composition is the
matrix product.

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


def validate_density(rho, tol: float = DENSITY_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 2x2 density matrix."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {r.shape}")
    if np.abs(r - r.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(r).real - 1.0) > tol or abs(np.trace(r).imag) > tol:
        raise ValueError("density matrix does not have unit trace")
    if np.linalg.eigvalsh(r).min() < -tol:
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
        if not (0.0 <= p <= 1.0 and 0.0 <= gamma <= 1.0):
            raise ValueError(f"(p, gamma) = ({p}, {gamma}) outside the unit square")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)


Channel = UnitalChannel | KrausChannel | GadParams


def apply_unital(c: UnitalChannel, v) -> np.ndarray:
    """Bloch-space action v -> T v."""
    return c.t @ bloch_vector(v)


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


def apply_kraus(c: KrausChannel, rho) -> np.ndarray:
    """Apply the channel to a density matrix: sum_i E_i rho E_i^dag."""
    r = validate_density(rho)
    out = sum(e @ r @ e.conj().T for e in c.ops)
    return np.asarray(out)


def _apply_unital_mat(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear extension of the unital channel to arbitrary 2x2 operators."""
    out = np.trace(x) / 2 * IDENTITY_2
    coeff = np.array([np.trace(s @ x) for s in PAULIS[1:]])
    img = t @ coeff
    for i, s in enumerate(PAULIS[1:]):
        out = out + img[i] * s / 2
    return out


def apply_channel_mat(c: Channel, x) -> np.ndarray:
    """Apply a channel to an arbitrary 2x2 operator (by linear extension)."""
    x = np.asarray(x, dtype=complex)
    if isinstance(c, UnitalChannel):
        return _apply_unital_mat(c.t, x)
    if isinstance(c, GadParams):
        c = gad_kraus(c)
    return sum(e @ x @ e.conj().T for e in c.ops)


def choi(c: Channel) -> np.ndarray:
    """Choi matrix (Phi (x) I)[psi+], channel acting on the first factor.

    Always Hermitian with unit trace; positive semidefinite exactly when the
    channel is completely positive (see the module docstring caveat for
    unital channels that only satisfy the contraction condition).
    """
    g = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for l in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[k, l] = 1.0
            g += np.kron(apply_channel_mat(c, unit), unit)
    g /= 2.0
    # Kill the O(eps) anti-Hermitian round-off so downstream eigensolves see
    # an exactly Hermitian matrix.
    return (g + g.conj().T) / 2.0


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


def compose_kraus(c1: KrausChannel, c2: KrausChannel, prune: bool = True) -> KrausChannel:
    """Composition c1 after c2 as Kraus sets, pruned back to <= 4 operators."""
    ops = tuple(a @ b for a in c1.ops for b in c2.ops)
    if prune and len(ops) > 4:
        return kraus_from_choi(choi(KrausChannel(ops)))
    return KrausChannel(ops)


def as_kraus(c: Channel) -> KrausChannel:
    """Convert any channel to Kraus form (unital ones must be CP)."""
    if isinstance(c, KrausChannel):
        return c
    if isinstance(c, GadParams):
        return gad_kraus(c)
    return kraus_from_choi(choi(c))


def compose(c1: Channel, c2: Channel) -> Channel:
    """Generic composition c1 after c2. Unital pairs stay unital."""
    if isinstance(c1, UnitalChannel) and isinstance(c2, UnitalChannel):
        return compose_unital(c1, c2)
    return compose_kraus(as_kraus(c1), as_kraus(c2))


def ptm(c: Channel) -> np.ndarray:
    """Real 4x4 Pauli transfer matrix R_ij = Tr(sigma_i Phi(sigma_j)) / 2.

    R = [[1, 0], [t, T]] maps (1, v) to (1, t + T v), so the PTM of a
    composition c1 after c2 is R1 @ R2.  Unital channels give t = 0 exactly.
    """
    if isinstance(c, UnitalChannel):
        r = np.eye(4)
        r[1:, 1:] = c.t
        return r
    ops = np.array(as_kraus(c).ops)
    images = np.einsum("kab,jbc,kdc->jad", ops, _PAULI_STACK, ops.conj())
    return 0.5 * np.einsum("iab,jba->ij", _PAULI_STACK, images).real


def channel_power(c: Channel, n: int) -> Channel:
    """n-fold self-composition in the channel's native representation."""
    if n < 1:
        raise ValueError("channel power requires n >= 1")
    if isinstance(c, UnitalChannel):
        return UnitalChannel(np.linalg.matrix_power(c.t, n))
    base = as_kraus(c)
    out = base
    for _ in range(n - 1):
        out = compose_kraus(base, out)
    return out


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
