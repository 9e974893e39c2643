"""Shared random generators and independent oracles for the test suite."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from noisegauge import UnitalChannel
from noisegauge.amend import AmendReport, FilterCandidate
from noisegauge.channels import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GadParams,
    KrausChannel,
    as_kraus,
    choi,
    compose_kraus,
    gad_kraus,
    validate_density,
)
from noisegauge.gad import p_n
from noisegauge.gaussian import IsoChannel
from noisegauge.linalg import EB_TOL, ROUND_TOL, partial_transpose, polar_decompose, trace_norm
from noisegauge.measures import (
    MuSearchResult,
    _fold,
    _mu_threshold,
    _threshold_table,
    mu_c_upper_bound,
    n_c,
)
from noisegauge.report import NcResult
from noisegauge.separability import ChoiState, min_pt_eigenvalue

PAULI_VECTOR = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def rotation_from_quaternion(q) -> np.ndarray:
    """Proper rotation of the (normalized) quaternion q = (w, x, y, z)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def unitary_from_quaternion(q) -> np.ndarray:
    """SU(2) element w 1 - i (x sigma_x + y sigma_y + z sigma_z) of the
    (normalized) quaternion q = (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return w * IDENTITY_2 - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def rotated_kraus(c, u, v) -> KrausChannel:
    """The channel rho -> u c(v rho v^dag) u^dag: Kraus operators u E v."""
    return KrausChannel(tuple(u @ e @ v for e in c.ops))


def kraus_from_isometry(z) -> KrausChannel:
    """The channel of the isometry Q of the QR decomposition of a (2r, 2)
    complex matrix z of rank 2: its r stacked 2x2 blocks are Kraus
    operators."""
    q, _ = np.linalg.qr(np.asarray(z, dtype=complex))
    return KrausChannel(tuple(q[2 * i:2 * i + 2] for i in range(len(q) // 2)))


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random proper rotation from a normalized quaternion."""
    return rotation_from_quaternion(rng.normal(size=4))


def in_cpt_tetrahedron(lam, tol: float = 0.0) -> bool:
    """|l1 + l2| <= 1 + l3 and |l1 - l2| <= 1 - l3 (diagonal-channel CP test)."""
    l1, l2, l3 = lam
    return abs(l1 + l2) <= 1 + l3 + tol and abs(l1 - l2) <= 1 - l3 + tol


def random_tetra_lambda(rng) -> np.ndarray:
    """Uniform sample from the CP tetrahedron of diagonal multipliers."""
    while True:
        lam = rng.uniform(-1, 1, 3)
        if in_cpt_tetrahedron(lam):
            return lam


def random_cp_unital(rng) -> UnitalChannel:
    """Random completely positive unital channel (rotations around a
    tetrahedron point)."""
    lam = random_tetra_lambda(rng)
    return UnitalChannel(random_rotation(rng) @ np.diag(lam) @ random_rotation(rng))


def random_density(rng) -> np.ndarray:
    """Random qubit density matrix, uniform Bloch-ball interior."""
    v = rng.normal(size=3)
    v *= rng.uniform() ** (1 / 3) / np.linalg.norm(v)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return (np.eye(2, dtype=complex) + v[0] * sx + v[1] * sy + v[2] * sz) / 2


def random_two_qubit_state(rng) -> np.ndarray:
    """Random full-rank 4x4 density matrix (Ginibre construction)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _qubit_sqrt(r: np.ndarray) -> np.ndarray:
    """Square root of a 2x2 PSD matrix: (r + sqrt(det r) 1) / sqrt(tr r + 2 sqrt(det r))."""
    s = np.sqrt(max(float((r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]).real), 0.0))
    return (r + s * IDENTITY_2) / np.sqrt(float(np.trace(r).real) + 2.0 * s)


def kron_threshold(ginv: np.ndarray, rho0) -> float:
    """Separability onset along (1-mu) G + mu rho0 (x) 1/2 from the inverse
    G^-1 of the partially transposed Choi matrix, by building S = sqrt(rho0)
    (x) 1/sqrt(2) and solving S G^-1 S directly; an oracle for the
    precomputed-table kernel in ``measures``.
    """
    half = np.kron(_qubit_sqrt(validate_density(rho0)), IDENTITY_2)
    nu = 0.5 * float(np.linalg.eigvalsh(half @ ginv @ half).min())
    return 1.0 / (1.0 - nu) if nu < 0.0 else 1.0


def coarse_bloch_grid() -> list[np.ndarray]:
    """26 points: 6 axis poles, 8 cube corners and 12 cube edge midpoints,
    the latter two rescaled to radius 0.7."""
    pts = []
    for i in range(3):
        for s in (1.0, -1.0):
            w = np.zeros(3)
            w[i] = s
            pts.append(w)
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                pts.append(0.7 * np.array([sx, sy, sz]) / np.sqrt(3))
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    w = np.zeros(3)
                    w[i], w[j] = si, sj
                    pts.append(0.7 * w / np.sqrt(2))
    return pts


def fold_search(c) -> MuSearchResult:
    """``mu_c_search`` by scipy's Nelder-Mead, one point per call, each
    scored by ``measures._mu_threshold`` at the folded Bloch vector
    sin(|x|) x / |x|.  An oracle for the local simplex port."""
    table = _threshold_table(c)
    if table is None:
        return MuSearchResult(0.0, np.zeros(3), 1)
    res = minimize(lambda x: _mu_threshold(table, _fold(x)), np.full(3, 0.01),
                   method="Nelder-Mead", options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 600})
    value, point = float(res.fun), np.array(_fold(res.x.tolist()))
    bound = mu_c_upper_bound(2)
    if value > bound:
        value, point = bound, np.zeros(3)
    return MuSearchResult(value, point, int(res.nfev))


def sdp_mu_c(c) -> tuple[float, float]:
    """Certified bounds (upper, lower) on mu_c from its convex program.

    With X = mu rho0 = (a + b.sigma)/2, the mixture with weight mu is EB
    exactly when M = (1 - a) G + X (x) 1/2 is PSD, G the partial transpose
    of the Choi matrix, and X is PSD, that is a >= |b|.  So mu_c is the least
    a over that set.  The barrier method (Boyd & Vandenberghe, ch. 11)
    minimizes t a - log det M - log(a^2 - |b|^2) by damped Newton steps, for
    t = 1, 10, ..., 1e11.  The barrier has parameter 4 + 2 = 6, so
    `lower` = a - 6/t lies below the optimum; `upper` is the exact threshold
    of ``measures._mu_threshold`` at the feasible Bloch vector w = b/a.  An EB
    channel gives (0, 0)."""
    table = _threshold_table(c)
    if table is None:
        return 0.0, 0.0
    g = partial_transpose(choi(c))
    # dM/dv for v = (a, b_x, b_y, b_z)
    basis = np.array([np.eye(4) / 4 - g] + [np.kron(s, IDENTITY_2) / 4 for s in PAULI_VECTOR])
    j = np.array([1.0, -1.0, -1.0, -1.0])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    t = 1.0
    while True:
        for _ in range(100):
            mb = np.linalg.inv(g + np.tensordot(v, basis, 1)) @ basis
            jv = j * v
            q = v @ jv
            grad = -np.einsum("kii->k", mb).real - 2 * jv / q
            grad[0] += t
            hess = (np.einsum("aij,bji->ab", mb, mb).real
                    - 2 * np.diag(j) / q + 4 * np.outer(jv, jv) / q**2)
            step = -np.linalg.solve(hess, grad)
            decrement = float(-grad @ step)
            if decrement < 1e-8:
                break
            # a damped step stays inside the domain of a self-concordant barrier
            v = v + (step / (1.0 + math.sqrt(decrement)) if decrement > 0.0625 else step)
        else:
            raise RuntimeError("barrier centering did not converge")
        if t >= 1e11:
            break
        t *= 10.0
    a, b = float(v[0]), v[1:]
    return _mu_threshold(table, b / a), a - 6.0 / t


def choi_state(c) -> ChoiState:
    """Choi matrix of a channel wrapped as a validated state."""
    return ChoiState(choi(c))


def is_separable(s) -> bool:
    """PPT decision on a two-qubit state: separable iff its smallest
    partial-transpose eigenvalue is >= -EB_TOL (boundary inclusive)."""
    if not isinstance(s, ChoiState):
        s = ChoiState(s)
    return min_pt_eigenvalue(s) >= -EB_TOL


def bisect_threshold(c, rho0, tol: float, sep_tol: float = EB_TOL) -> float:
    """Separability onset along (1-mu) G + mu rho0 (x) 1/2 by bisection over
    the PPT decision; an oracle for the exact solve in ``mu_given_rho0``.

    Valid because separability along the mixing segment is monotone (the
    separable set is convex and the endpoint is a product state).  A point
    counts as separable when its smallest PT eigenvalue is >= -sep_tol, so
    the result sits below the exact onset by about sep_tol divided by the
    slope of that eigenvalue along the segment.
    """
    gpt = partial_transpose(choi_state(c).g)
    ppt = np.kron(validate_density(rho0), IDENTITY_2 / 2)
    if float(np.linalg.eigvalsh(gpt).min()) >= -EB_TOL:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        m = (1.0 - mid) * gpt + mid * ppt
        if float(np.linalg.eigvalsh(m).min()) >= -sep_tol:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def su2(axis: int, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma_axis); conjugation rotates Bloch vectors by angle."""
    return math.cos(angle / 2) * IDENTITY_2 - 1j * math.sin(angle / 2) * PAULI_VECTOR[axis]


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


def filter_unitary(f: FilterCandidate) -> np.ndarray:
    """2x2 unitary realizing a filter, built from its kind and angles rather
    than its Bloch matrix; fails for improper rotations."""
    if f.kind in ("s1", "s2", "s3"):
        return PAULI_VECTOR[int(f.kind[1]) - 1].copy()
    if f.kind == "r2r1":
        return su2(1, math.pi / 2) @ su2(0, math.pi / 2)
    if f.kind == "euler":
        a, b, t = f.params
        return su2(2, a) @ su2(1, b) @ su2(2, t)
    m = f.bloch_matrix()
    if np.linalg.det(m) < 0:
        raise ValueError("improper orthogonal Bloch action has no unitary realization")
    return su2_from_so3(m)


def kraus_filtered(f, c):
    """The filtered channel f . c: the Bloch product O T for a unital channel,
    each Kraus operator multiplied by the filter's unitary otherwise; an
    oracle for the transfer-matrix product in ``amend.apply_filter``."""
    if isinstance(c, UnitalChannel):
        return UnitalChannel(f.bloch_matrix() @ c.t)
    u = filter_unitary(f)
    return KrausChannel(tuple(u @ e for e in as_kraus(c).ops))


def kraus_sandwich(c, f):
    """The two-use composition c . f . c: the Bloch product T O T for a
    unital channel, the pruned Kraus composition otherwise; an oracle for the
    transfer-matrix product in ``amend.sandwich``."""
    if isinstance(c, UnitalChannel):
        return UnitalChannel(c.t @ f.bloch_matrix() @ c.t)
    return compose_kraus(as_kraus(c), kraus_filtered(f, c))


def order_and_margin(c, f, cap: int) -> tuple:
    """Order of f . c plus its tie-break margin, one filter at a time: the
    trace-norm scan of the filtered Bloch matrix for unital channels, Kraus
    composition and the Choi matrix's partial transpose otherwise.  An oracle
    for the batched scan ``amend._order_scan``.
    """
    filtered = kraus_filtered(f, c)
    if isinstance(filtered, UnitalChannel):
        power = np.eye(3)
        for m in range(1, cap + 1):
            power = power @ filtered.t
            tn = trace_norm(power)
            if tn <= 1.0 + EB_TOL:
                return NcResult(m, cap), max(-1.0, tn - 1.0)
        return NcResult(None, cap), 0.0
    base = as_kraus(filtered)
    current = base
    for m in range(1, cap + 1):
        low = min_pt_eigenvalue(choi(current))
        if low >= -EB_TOL:
            return NcResult(m, cap), -min(1.0, 2.0 * max(0.0, low))
        if m < cap:
            current = compose_kraus(base, current)
    return NcResult(None, cap), 0.0


def loop_search_filter(c, cap: int, budget: int, seed: int) -> AmendReport:
    """``search_filter`` with every candidate built as a ``FilterCandidate``
    and scored on its own by ``order_and_margin``; an oracle for the batched
    search."""

    def score(f):
        result, margin = order_and_margin(c, f, cap)
        return result, (cap + 1.0 if result.n is None else float(result.n)) + margin

    candidates = [FilterCandidate.pauli(k) for k in (1, 2, 3)] + [FilterCandidate.r2r1()]
    if isinstance(c, UnitalChannel):
        candidates.append(FilterCandidate.orthogonal(polar_decompose(c.t)[0].T))
    rng = np.random.default_rng(seed)
    per_axis = max(k for k in range(1, budget + 1) if k ** 3 <= budget)
    spans = (2 * math.pi, math.pi, 2 * math.pi)
    offsets = [rng.uniform(0.0, span / per_axis) for span in spans]
    axes = [offsets[k] + np.arange(per_axis) * (spans[k] / per_axis) for k in range(3)]
    candidates.extend(
        FilterCandidate.euler(float(a), float(b), float(t))
        for a in axes[0] for b in axes[1] for t in axes[2]
    )
    scored = [(cand, *score(cand)) for cand in candidates]

    def first_max(entries):
        # scores within ROUND_TOL of the maximum tie; the first one wins
        top = max(value for _, _, value in entries)
        return next(e for e in entries if e[2] >= top - ROUND_TOL)

    best_filter, best_result, best_score = first_max(scored)
    best_euler = first_max([e for e in scored if e[0].kind == "euler"])[0]
    res = minimize(
        lambda angles: -score(FilterCandidate.euler(*angles))[1],
        np.asarray(best_euler.params, dtype=float),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 200},
    )
    if -res.fun > best_score + ROUND_TOL:
        best_filter = FilterCandidate.euler(*(float(a) for a in res.x))
        best_result = score(best_filter)[0]
    base_nc = n_c(c, cap)
    amendable = base_nc.is_finite and base_nc.n <= 2 < best_result.order_key()
    return AmendReport(base_nc, best_result, best_filter, amendable)


def apply_kraus(c, rho) -> np.ndarray:
    """Apply a Kraus channel to a density matrix: sum_i E_i rho E_i^dag."""
    r = validate_density(rho)
    return np.asarray(sum(e @ r @ e.conj().T for e in c.ops))


def kraus_choi(c) -> np.ndarray:
    """Choi matrix (1/2) sum_i vec(E_i) vec(E_i)^dag of a Kraus channel, vec()
    flattening row-major; built from the operators, not from the PTM."""
    v = np.array([e.reshape(4) for e in c.ops])
    return 0.5 * v.T @ v.conj()


def compose_unital(c1, c2) -> UnitalChannel:
    """Composition c1 after c2 (c2 acts first); Bloch matrix T1 T2."""
    return UnitalChannel(c1.t @ c2.t)


def channel_power(c, n: int):
    """n-fold self-composition: the Bloch matrix power of a unital channel,
    the pruned Kraus composition otherwise."""
    if n < 1:
        raise ValueError("channel power requires n >= 1")
    if isinstance(c, UnitalChannel):
        return UnitalChannel(np.linalg.matrix_power(c.t, n))
    base = as_kraus(c)
    out = base
    for _ in range(n - 1):
        out = compose_kraus(base, out)
    return out


def loop_n_c(c, cap: int) -> NcResult:
    """Order one use at a time: powers of the Bloch matrix judged by trace
    norms for a unital channel, otherwise Kraus sets composed and judged by
    the PPT test on their Choi matrices; an oracle for the transfer-matrix
    scan behind ``measures.n_c``."""
    if isinstance(c, UnitalChannel):
        power = np.eye(3)
        for n in range(1, cap + 1):
            power = power @ c.t
            if trace_norm(power) <= 1.0 + EB_TOL:
                return NcResult(n, cap)
        return NcResult(None, cap)
    base = as_kraus(c)
    current = base
    for n in range(1, cap + 1):
        if is_separable(ChoiState(kraus_choi(current))):
            return NcResult(n, cap)
        if n < cap:
            current = compose_kraus(base, current)
    return NcResult(None, cap)


def kraus_gad_amendable(p: float, gamma: float, f) -> bool:
    """``amend.gad_amendable`` through the Kraus sandwich and its Choi
    matrix; an oracle for the transfer-matrix product R F R."""
    if p >= p_n(gamma, 2):
        return False
    two_use = kraus_sandwich(gad_kraus(GadParams(p, gamma)), f)
    return is_separable(ChoiState(kraus_choi(two_use)))


def noisy_choi(c, rho0, mu: float) -> ChoiState:
    """Choi matrix (1 - mu) Gamma + mu rho0 (x) 1/2 of the channel mixed with
    probability mu into the map that prepares rho0."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mixing probability mu = {mu} outside [0, 1]")
    r = validate_density(rho0)
    g = (1.0 - mu) * choi(c) + mu * np.kron(r, IDENTITY_2 / 2)
    return ChoiState((g + g.conj().T) / 2)


def pt_determinant(g) -> float:
    """Determinant of the partial transpose: negative iff entangled, for
    valid states away from the boundary."""
    m = g.g if isinstance(g, ChoiState) else g
    return float(np.real(np.linalg.det(partial_transpose(m))))


# One-mode Gaussian channels as triplets (K, l, beta) acting on Weyl
# operators, hbar = 1, symplectic form DELTA, vacuum quadrature variance 1/2.
CPT_TOL = 1e-10
DELTA = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian channel triplet (k_mat, l_vec, beta), CPT-validated: complete
    positivity requires beta -/+ (i/2) (DELTA - K^T DELTA K) >= 0."""

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
    """Entanglement-breaking split test with the isotropic ansatz alpha = a 1:
    the channel is EB when beta splits as alpha + nu with alpha >= (i/2) DELTA
    and nu >= (i/2) K^T DELTA K.

    Exact for isotropic beta (where it reduces to b >= (1 + |det K|) / 2);
    merely sufficient for anisotropic beta, since the ansatz restricts alpha.
    The optimal a is the smallest admissible one, a = 1/2, because the
    remaining condition only tightens as a grows.
    """
    d = float(np.linalg.det(c.k_mat))
    b11, b22, b12 = c.beta[0, 0], c.beta[1, 1], c.beta[0, 1]
    if b11 < 0.5 - ROUND_TOL or b22 < 0.5 - ROUND_TOL:
        return False
    return (b11 - 0.5) * (b22 - 0.5) - b12 * b12 - d * d / 4.0 >= -ROUND_TOL


def n_c_iso_iterated(c, cap: int = 64) -> NcResult:
    """Order of an isotropic Gaussian channel by explicit composition and
    split testing; an oracle for the closed-form bands of ``n_c_iso``.

    Zero added noise is decided upfront: the n-fold composite then has zero
    added noise as well and sits strictly below every split threshold, which
    a tolerance-based test would eventually misclassify once the threshold
    decays under the tolerance.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if c.n0 == 0.0:
        return NcResult(None, cap, proven_divergent=True)
    base = to_triplet(c)
    current = base
    for n in range(1, cap + 1):
        if eb_split_feasible(current):
            return NcResult(n, cap)
        if n < cap:
            current = compose_gaussian(current, base)
    return NcResult(None, cap)
