"""Shared random generators and independent oracles for the test suite."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from scipy.optimize import minimize

from noisegauge import UnitalChannel
from noisegauge.amend import _REFINE_ROUNDS, AmendReport, FilterCandidate, _filter_matrix
from noisegauge.channels import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GadParams,
    KrausChannel,
    as_kraus,
    bloch_to_density,
    choi,
    choi_from_ptm,
    compose_kraus,
    gad_kraus,
    kraus_from_choi,
    ptm,
    validate_density,
)
from noisegauge.gad import p_n
from noisegauge.gaussian import IsoChannel
from noisegauge.linalg import ROUND_TOL, partial_transpose, polar_decompose, trace_norm
from noisegauge.measures import (
    MuSearchResult,
    _mu_threshold,
    _order_scan,
    _pt_choi,
    mu_c_upper_bound,
    n_c,
)
from noisegauge.report import NcResult
from noisegauge.separability import ChoiState, _scan_base, min_pt_eigenvalue

PAULI_VECTOR = (SIGMA_X, SIGMA_Y, SIGMA_Z)
QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


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


def axial_kraus(lam_perp, lam_z, t_z, q1, q2):
    """The axial channel in Kraus form, rotated on both sides."""
    r = np.zeros((4, 4))
    r[0, 0], r[1, 1], r[2, 2], r[3, 3], r[3, 0] = 1.0, lam_perp, lam_perp, lam_z, t_z
    c = kraus_from_choi(choi_from_ptm(r))
    return rotated_kraus(c, unitary_from_quaternion(q1), unitary_from_quaternion(q2))


def kraus_from_isometry(z) -> KrausChannel:
    """The channel of the isometry Q of the QR decomposition of a (2r, 2)
    complex matrix z of rank 2: its r stacked 2x2 blocks are Kraus
    operators."""
    q, _ = np.linalg.qr(np.asarray(z, dtype=complex))
    return KrausChannel(tuple(q[2 * i:2 * i + 2] for i in range(len(q) // 2)))


@st.composite
def kraus_channels(draw):
    """Channels of Kraus rank 1 to 4, from the isometry of a (2r, 2) complex
    matrix of rank 2."""
    rank = draw(st.integers(1, 4))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=8 * rank, max_size=8 * rank))
    z = np.reshape(entries, (2 * rank, 2, 2)) @ [1.0, 1j]
    assume(np.linalg.svd(z, compute_uv=False)[-1] > 1e-3)
    return kraus_from_isometry(z)


@st.composite
def near_eb_mixtures(draw):
    """Mixtures (1 - p) c + p D of a ``kraus_channels`` channel c with the
    depolarizing map D, at p = p* - d for d from 1e-2 to 1e-10, p* the
    weight at which the mixture turns entanglement breaking: the smallest
    partial-transpose eigenvalue lam of the Choi matrix moves as
    (1 - p) lam + p/4, so p* = -4 lam / (1 - 4 lam).  D has the Kraus
    operators sigma_j / 2."""
    c = draw(kraus_channels())
    lam = min_pt_eigenvalue(choi_state(c))
    assume(lam < -0.01)
    p = -4.0 * lam / (1.0 - 4.0 * lam) - 10.0 ** -draw(st.floats(2.0, 10.0))
    paulis = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
    return KrausChannel(tuple(math.sqrt(1.0 - p) * e for e in c.ops)
                        + tuple(math.sqrt(p) / 2 * s for s in paulis))


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


def _fold(x) -> list[float]:
    """The Bloch vector sin(|x|) x / |x| of a point x of R^3, and x at 0."""
    r = math.hypot(*x)
    if r == 0.0:
        return x
    s = math.sin(r) / r
    return [s * v for v in x]


def fold_search(c) -> MuSearchResult:
    """``mu_c_search`` by a derivative-free search over the Bloch ball: one
    run of scipy's Nelder-Mead from x = (0.01, 0.01, 0.01), each point
    scored by ``measures._mu_threshold`` at the folded Bloch vector
    w = sin(|x|) x / |x|.  One start suffices because the threshold is
    quasi-convex in rho0, and the fold maps R^3 onto the closed ball with no
    plateau, so a pure optimum is an interior minimum at |x| = pi/2.  Its
    `evaluations` count threshold solves, and it certifies no lower bound
    beyond 0.  An oracle for the barrier solve."""
    g = _pt_choi(ptm(c))
    if g is None:
        return MuSearchResult(0.0, np.zeros(3), 1, 0.0)
    ginv = np.linalg.inv(g)
    res = minimize(lambda x: _mu_threshold(ginv, _fold(x)), np.full(3, 0.01),
                   method="Nelder-Mead", options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 600})
    value, point = float(res.fun), np.array(_fold(res.x.tolist()))
    bound = mu_c_upper_bound(2)
    if value > bound:
        value, point = bound, np.zeros(3)
    return MuSearchResult(value, point, int(res.nfev), 0.0)


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
    pt = _pt_choi(ptm(c))
    if pt is None:
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
    return _mu_threshold(np.linalg.inv(pt), b / a), a - 6.0 / t


def eigenvector_dual_bound(c, value: float, bloch) -> float:
    """Weak-duality lower bound on mu_c from one eigenvector, valid for any
    claimed optimum (value, bloch).

    Take v, the eigenvector of the smallest eigenvalue of the onset matrix
    (1 - value) G + value rho0 (x) 1/2 at the Bloch vector `bloch`, G the
    partial transpose of the Choi matrix.  Let g_v = <v|G|v> and s the
    largest eigenvalue of tr_2 |v><v|.  For any feasible X = mu rho0,
    0 <= <v|(1 - tr X) G + X (x) 1/2|v> <= (1 - tr X) g_v + tr X s/2, so
    tr X >= -g_v / (s/2 - g_v) when g_v < 0 (Boyd & Vandenberghe, §5.2).
    Returns 0 when g_v >= 0.  The oracle of ``measures._dual_bound``, which
    reads G off the PTM."""
    g = partial_transpose(choi(c))
    prepared = np.kron(bloch_to_density(bloch), IDENTITY_2 / 2)
    v = np.linalg.eigh((1.0 - value) * g + value * prepared)[1][:, 0]
    g_v = float((v.conj() @ g @ v).real)
    if g_v >= 0.0:
        return 0.0
    half = v.reshape(2, 2)
    s = float(np.linalg.eigvalsh(half @ half.conj().T)[-1])
    return -g_v / (s / 2 - g_v)


def choi_state(c) -> ChoiState:
    """Choi matrix of a channel wrapped as a validated state."""
    return ChoiState(choi(c))


def is_separable(s) -> bool:
    """PPT decision on a two-qubit state: separable iff its smallest
    partial-transpose eigenvalue is >= -ROUND_TOL (boundary inclusive)."""
    if not isinstance(s, ChoiState):
        s = ChoiState(s)
    return min_pt_eigenvalue(s) >= -ROUND_TOL


def bisect_threshold(c, rho0, tol: float, sep_tol: float = ROUND_TOL) -> float:
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
    if float(np.linalg.eigvalsh(gpt).min()) >= -ROUND_TOL:
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


def filtered_scan(c, rotations, cap: int) -> tuple:
    """``measures._order_scan`` of the filtered steps of a stack of Bloch
    rotations, the way ``amend.search_filter`` scans them."""
    base = _scan_base(c)
    return _order_scan(_filter_matrix(rotations, base) @ base, cap)


def order_and_margin(c, f, cap: int) -> tuple:
    """Order of f . c plus its tie-break margin, one filter at a time: the
    trace-norm scan of the filtered Bloch matrix for unital channels, Kraus
    composition and the Choi matrix's partial transpose otherwise.  An oracle
    for the batched scan ``measures._order_scan``.
    """
    filtered = kraus_filtered(f, c)
    if isinstance(filtered, UnitalChannel):
        power = np.eye(3)
        for m in range(1, cap + 1):
            power = power @ filtered.t
            tn = trace_norm(power)
            if tn <= 1.0 + ROUND_TOL:
                return NcResult(m, cap), max(-1.0, tn - 1.0)
        return NcResult(None, cap), 0.0
    base = as_kraus(filtered)
    current = base
    for m in range(1, cap + 1):
        low = min_pt_eigenvalue(choi(current))
        if low >= -ROUND_TOL:
            return NcResult(m, cap), -min(1.0, 2.0 * max(0.0, low))
        if m < cap:
            current = compose_kraus(base, current)
    return NcResult(None, cap), 0.0


def loop_search_filter(c, cap: int, budget: int, seed: int) -> AmendReport:
    """``search_filter`` with every candidate built as a ``FilterCandidate``
    and scored on its own by ``order_and_margin``, the refinement's rounds
    of 27 candidates included; an oracle for the batched search.  A unital
    channel also scores the named filters and the lattice beside its
    inverse polar rotation, which the search scans alone, so there the
    oracle checks the best order, not which of the tied filters wins."""

    def score(f):
        result, margin = order_and_margin(c, f, cap)
        return result, (cap + 1.0 if result.n is None else float(result.n)) + margin

    def first_max(entries):
        # scores within ROUND_TOL of the maximum tie; the first one wins
        top = max(value for _, _, value in entries)
        return next(e for e in entries if e[2] >= top - ROUND_TOL)

    def euler_grid(axes):
        return [FilterCandidate.euler(float(a), float(b), float(t))
                for a in axes[0] for b in axes[1] for t in axes[2]]

    candidates = [FilterCandidate.pauli(k) for k in (1, 2, 3)] + [FilterCandidate.r2r1()]
    if isinstance(c, UnitalChannel):
        candidates.append(FilterCandidate.orthogonal(polar_decompose(c.t)[0].T))
    rng = np.random.default_rng(seed)
    per_axis = max(k for k in range(1, budget + 1) if k ** 3 <= budget)
    steps = [span / per_axis for span in (2 * math.pi, math.pi, 2 * math.pi)]
    offsets = [rng.uniform(0.0, step) for step in steps]
    axes = [offsets[k] + np.arange(per_axis) * steps[k] for k in range(3)]
    candidates.extend(euler_grid(axes))
    scored = [(cand, *score(cand)) for cand in candidates]
    best_filter, best_result, best_score = first_max(scored)
    if not isinstance(c, UnitalChannel):
        refined = first_max([e for e in scored if e[0].kind == "euler"])
        for _ in range(_REFINE_ROUNDS):
            steps = [step / 2 for step in steps]
            axes = [[x + k * step for k in (0.0, -1.0, 1.0)]
                    for x, step in zip(refined[0].params, steps)]
            refined = first_max([(cand, *score(cand)) for cand in euler_grid(axes)])
        if refined[2] > best_score + ROUND_TOL:
            best_filter, best_result, _ = refined
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
            if trace_norm(power) <= 1.0 + ROUND_TOL:
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


def loop_n_c_gad(p: float, gamma: float, cap: int) -> NcResult:
    """Damping order by testing p >= p_n(gamma, n) at every n from 1; an
    oracle for the band inversion of ``gad.n_c_gad``."""
    p, g = float(p), float(gamma)
    if g in (0.0, 1.0) and p < 1.0:
        return NcResult(None, cap, proven_divergent=True)
    for n in range(1, cap + 1):
        if p >= p_n(g, n):
            return NcResult(n, cap)
    return NcResult(None, cap)


def loop_ebn_order(lams, cap: int) -> NcResult:
    """fig1 order by testing sum |lambda_i|^n <= 1 + ROUND_TOL at every n
    from 1, with the exact edge at a largest modulus >= 1; an oracle for
    the bracketed search of ``cli._ebn_order_canonical``."""
    mags = np.sort(np.abs(np.asarray(lams, dtype=float)))[::-1]
    if mags[0] >= 1.0:
        if mags[0] <= 1.0 and mags[1] == 0.0:
            return NcResult(1, cap)
        return NcResult(None, cap, proven_divergent=True)
    for n in range(1, cap + 1):
        if float((mags**n).sum()) <= 1.0 + ROUND_TOL:
            return NcResult(n, cap)
    return NcResult(None, cap)


def kraus_gad_amendable(p: float, gamma: float, f) -> bool:
    """``amend.gad_amendable`` through the Kraus sandwich and its Choi
    matrix; an oracle for the transfer-matrix product R F R."""
    if p >= p_n(gamma, 2):
        return False
    two_use = kraus_sandwich(gad_kraus(GadParams(p, gamma)), f)
    return is_separable(ChoiState(kraus_choi(two_use)))


# The paper's two-branch damping threshold, an oracle for ``gad.mu_c_axial``.
# Every formula is stated for gamma <= 1/2; the channel at (p, 1 - gamma) is
# the one at (p, gamma) conjugated with sigma_x.


def mu_vs_vz(p: float, gamma: float, vz: float) -> float:
    """Minimal admixture of the (p, gamma) damping channel towards the
    z-axis state with bias vz, for gamma <= 1/2:

        mu = [p (4 p (g-1) g - 2 g vz + vz - 3) + 4 - sqrt(R)]
             / [4 p^2 (g-1) g + 2 p (-2 vz g + vz - 1) + vz^2 + 3],
        R  = p^2 (vz - 2g + 1)^2 + 4 p (vz^2 - 1) - 4 vz^2 + 4,

    clamped to [0, 1].  A negative R within ``ROUND_TOL`` of zero counts as
    zero (R vanishes exactly on region boundaries)."""
    p, g, vz = float(p), float(gamma), float(vz)
    if not (0.0 <= p <= 1.0 and 0.0 <= g <= 0.5 and -1.0 <= vz <= 1.0):
        raise ValueError(f"(p, gamma, vz) = ({p}, {g}, {vz}) outside [0, 1] x [0, 1/2] x [-1, 1]")
    rad = p * p * (vz - 2 * g + 1) ** 2 + 4 * p * (vz * vz - 1) - 4 * vz * vz + 4
    if rad < 0.0:
        if rad < -ROUND_TOL:
            raise ValueError(f"negative discriminant {rad} beyond guard")
        rad = 0.0
    num = p * (4 * p * (g - 1) * g - 2 * g * vz + vz - 3) + 4 - np.sqrt(rad)
    den = 4 * p * p * (g - 1) * g + 2 * p * (-2 * vz * g + vz - 1) + vz * vz + 3
    if den == 0.0:
        # only at (p, g, vz) = (1, 0, -1), where the map is the constant
        # excited-state preparation and the threshold is zero
        return 0.0
    return float(min(1.0, max(0.0, num / den)))


def pbar(gamma: float) -> float:
    """Threshold p below which the optimal v_z lies strictly inside (-1, 1):

        pbar = (sqrt(4 g^2 - 8 g + 5) - 1) / (2 (1 - g)^2)."""
    g = float(gamma)
    if not 0.0 <= g <= 0.5:
        raise ValueError(f"gamma = {g} outside [0, 1/2]")
    return float((np.sqrt(4 * g * g - 8 * g + 5) - 1) / (2 * (1 - g) ** 2))


def pbarbar(gamma: float) -> float:
    """Interior/endpoint threshold for the twice-applied channel, where
    p (2 - p) reaches pbar: pbarbar = 1 - sqrt(1 - pbar)."""
    return float(1.0 - np.sqrt(1.0 - pbar(gamma)))


def vbar(p: float, gamma: float) -> float:
    """Interior minimizer of mu_vs_vz over v_z, valid for p <= pbar(gamma):

        vbar = p (p + 2 sqrt(1-p)) (1 - 2g) / (4 - p (p + 4))."""
    p, g = float(p), float(gamma)
    if p > pbar(g):
        raise ValueError(f"p = {p} > pbar = {pbar(g)}: the minimum sits at the endpoint vz = 1")
    return float(p * (p + 2 * np.sqrt(1 - p)) * (1 - 2 * g) / (4 - p * (p + 4)))


def _mu_down(p: float) -> float:
    return (p * p + 3 * p + 2 * np.sqrt(1 - p) - 4) / (p * p + 2 * p - 3)


def _mu_up(p: float, g: float) -> float:
    return (p * (p * (g - 1) * g - 1) + 1) / (p * g * (p * (g - 1) - 1) + 1)


def two_branch_mu_c_gad(p: float, gamma: float) -> float:
    """The damping threshold as two branches meeting at pbar: below it the
    minimum over v_z is interior (and gamma drops out), above it the minimum
    sits at vz = 1.  Zero for p >= p_1, the smallest positive float where a
    branch rounds to zero or below it."""
    if p >= p_n(gamma, 1):
        return 0.0
    g = min(float(gamma), 1.0 - float(gamma))
    value = _mu_down(p) if p <= pbar(g) else _mu_up(p, g)
    return max(math.ulp(0.0), float(value))


def two_branch_mu_c_gad_squared(p: float, gamma: float) -> float:
    """``two_branch_mu_c_gad`` at p (2 - p), zero for p >= p_2."""
    if p >= p_n(gamma, 2):
        return 0.0
    return max(math.ulp(0.0), two_branch_mu_c_gad(p * (2 - p), gamma))


def explicit_mu_c_gad_squared(p: float, gamma: float) -> float:
    """Two-use damping threshold with both branches written out in p; an
    oracle for ``gad.mu_c_gad_squared``, which evaluates the one-use
    threshold at p (2 - p)."""
    g = min(gamma, 1.0 - gamma)
    if p <= (math.sqrt(4 * g * g - 8 * g + 5) + 2 * g - 3) / (2 * (g - 1)):
        value = (p * p - 4 * p + 2) / (p * p - 4 * p + 3)
    else:
        q = (p - 2) * p
        value = (q * (q * (g - 1) * g + 1) + 1) / (q * g * (q * (g - 1) + 1) + 1)
    return max(0.0, value)


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
