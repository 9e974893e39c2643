"""Shared random generators and independent oracles for the test suite."""

import math

import numpy as np
from scipy.optimize import minimize

from noisegauge import UnitalChannel
from noisegauge.amend import SCORE_TIE, AmendReport, FilterCandidate
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
from noisegauge.gaussian import compose_gaussian, eb_split_feasible, to_triplet
from noisegauge.linalg import partial_transpose, polar_decompose, trace_norm
from noisegauge.measures import n_c
from noisegauge.report import NcResult
from noisegauge.separability import EB_TOL, ChoiState, choi_state, is_separable, min_pt_eigenvalue

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


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn,
    computed from traces alone; no eigensolver involved.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * a
        coeffs.append(-np.trace(m) / k)
    return np.asarray(coeffs)


def eigenvalues_by_charpoly(a: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues via companion-matrix roots of the
    characteristic polynomial; independent of eigvalsh."""
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(roots.real)


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
        # scores within SCORE_TIE of the maximum tie; the first one wins
        top = max(value for _, _, value in entries)
        return next(e for e in entries if e[2] >= top - SCORE_TIE)

    best_filter, best_result, best_score = first_max(scored)
    best_euler = first_max([e for e in scored if e[0].kind == "euler"])[0]
    res = minimize(
        lambda angles: -score(FilterCandidate.euler(*angles))[1],
        np.asarray(best_euler.params, dtype=float),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 200},
    )
    if -res.fun > best_score + SCORE_TIE:
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
