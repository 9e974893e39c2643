"""Shared random generators and independent oracles for the test suite."""

import math

import numpy as np
from scipy.optimize import minimize

from noisegauge import UnitalChannel
from noisegauge.amend import AmendReport, FilterCandidate, apply_filter
from noisegauge.channels import IDENTITY_2, as_kraus, choi, compose_kraus, validate_density
from noisegauge.linalg import partial_transpose, polar_decompose, trace_norm
from noisegauge.measures import EB_TOL, ebn_member, n_c
from noisegauge.report import NcResult
from noisegauge.separability import SEP_TOL, choi_state, min_pt_eigenvalue


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


def bisect_threshold(c, rho0, tol: float, sep_tol: float = SEP_TOL) -> float:
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
    if float(np.linalg.eigvalsh(gpt).min()) >= -SEP_TOL:
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


def order_and_margin(c, f, cap: int) -> tuple:
    """Order of f . c plus its tie-break margin, one filter at a time: the
    trace-norm scan of the filtered Bloch matrix for unital channels, Kraus
    composition and the Choi matrix's partial transpose otherwise.  An oracle
    for the batched scan ``amend._order_scan``.
    """
    filtered = apply_filter(f, c)
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
    best_filter, best_result, best_score = None, None, -math.inf
    best_euler, best_euler_score = None, -math.inf
    for cand in candidates:
        result, value = score(cand)
        if value > best_score:
            best_filter, best_result, best_score = cand, result, value
        if cand.kind == "euler" and value > best_euler_score:
            best_euler, best_euler_score = cand, value
    res = minimize(
        lambda angles: -score(FilterCandidate.euler(*angles))[1],
        np.asarray(best_euler.params, dtype=float),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 200},
    )
    if -res.fun > best_score:
        best_filter = FilterCandidate.euler(*(float(a) for a in res.x))
        best_result = score(best_filter)[0]
    amendable = ebn_member(c, 2) and best_result.order_key() > 2
    return AmendReport(n_c(c, cap), best_result, best_filter, amendable)
