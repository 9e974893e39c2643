import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from helpers import (
    bisect_threshold,
    channel_power,
    choi_state,
    coarse_bloch_grid,
    compose_unital,
    fold_search,
    kraus_from_isometry,
    kron_threshold,
    loop_n_c,
    random_cp_unital,
    random_density,
    random_rotation,
    random_tetra_lambda,
    rotated_kraus,
    rotation_from_quaternion,
    sdp_mu_c,
    unitary_from_quaternion,
)
from noisegauge import (
    FilterCandidate,
    GadParams,
    NcResult,
    UnitalChannel,
    as_kraus,
    bloch_to_density,
    ebn_member,
    gad_amendable,
    gad_kraus,
    is_eb,
    mu_c,
    mu_c_gad,
    mu_c_search,
    mu_c_unital,
    mu_c_upper_bound,
    mu_given_rho0,
    mu_vs_vz,
    n_c,
    noise_report,
    sandwich,
)
from noisegauge.amend import _negated_score, _scan_base
from noisegauge.gad import p_n
from noisegauge.linalg import EB_TOL, partial_transpose, polar_decompose, trace_norm
from noisegauge.measures import FATOL, XATOL, _mu_threshold, _threshold_table, nelder_mead

LAM = np.diag([0.73, 0.5, 0.5])
QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


@st.composite
def kraus_channels(draw):
    """Channels of Kraus rank 1 to 4, from the isometry of a (2r, 2) complex
    matrix of rank 2."""
    rank = draw(st.integers(1, 4))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=8 * rank, max_size=8 * rank))
    z = np.reshape(entries, (2 * rank, 2, 2)) @ [1.0, 1j]
    assume(np.linalg.svd(z, compute_uv=False)[-1] > 1e-3)
    return kraus_from_isometry(z)


SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
T = SWAP_XY @ LAM
MIXED = np.eye(2) / 2
IDENTITY_CH = UnitalChannel(np.eye(3))


def _seeded_channel(kind, rng):
    """A seeded unital Kraus, damping Kraus or s1-filtered damping channel."""
    if kind == "unital":
        return as_kraus(random_cp_unital(rng))
    if kind == "damping":
        return gad_kraus(GadParams(rng.uniform(0, 0.9), rng.uniform()))
    s1 = FilterCandidate.pauli(1)
    return sandwich(gad_kraus(GadParams(rng.uniform(0, 0.9), rng.uniform(0, 0.5))), s1)


class TestMuGivenRho0:
    def test_isotropic_threshold(self):
        got = mu_given_rho0(IDENTITY_CH, MIXED)
        assert got == pytest.approx(2 / 3, abs=1e-5)

    def test_eb_channel_returns_zero(self):
        rng = np.random.default_rng(31)
        assert mu_given_rho0(UnitalChannel(np.zeros((3, 3))), random_density(rng)) == 0.0

    def test_matches_damping_closed_form(self):
        rho0 = np.diag([0.6, 0.4]).astype(complex)
        got = mu_given_rho0(GadParams(0.4, 0.3), rho0)
        assert got == pytest.approx(mu_vs_vz(0.4, 0.3, 0.2), abs=1e-5)

    def test_isotropic_threshold_is_exact(self):
        assert mu_given_rho0(IDENTITY_CH, MIXED) == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("kind,seed", [("unital", 41), ("damping", 42), ("filtered", 43)])
    @pytest.mark.parametrize("state", ["mixed", "pure", "maximally-mixed"])
    def test_matches_bisection_oracle(self, kind, seed, state):
        rng = np.random.default_rng(seed)
        # The oracle counts min eig >= -sep_tol as separable, so it stops short
        # of the onset by about sep_tol / slope.  For a pure rho0 the product
        # state is singular and the slope can fall to ~1e-5, which puts the
        # default oracle up to ~1e-5 low; there it decides by the exact sign.
        sep_tol = 0.0 if state == "pure" else EB_TOL
        for _ in range(12):
            c = _seeded_channel(kind, rng)
            if state == "mixed":
                rho0 = random_density(rng)
            elif state == "pure":
                v = rng.normal(size=3)
                rho0 = bloch_to_density(v / np.linalg.norm(v))
            else:
                rho0 = MIXED
            got = mu_given_rho0(c, rho0)
            assert got == pytest.approx(bisect_threshold(c, rho0, 1e-10, sep_tol), abs=1e-8)


def _bloch_point(state, rng):
    """A Bloch vector inside the ball (mixed), on it (pure), at its centre or
    beyond it (outside)."""
    v = rng.normal(size=3)
    if state == "mixed":
        return v * rng.uniform() / np.linalg.norm(v)
    if state == "pure":
        return v / np.linalg.norm(v)
    if state == "centre":
        return np.zeros(3)
    return v * rng.uniform(1.0, 3.0) / np.linalg.norm(v)


class TestThresholdKernel:
    """The table kernel against the direct S G^-1 S construction."""

    @pytest.mark.parametrize("kind,seed", [("unital", 51), ("damping", 52), ("filtered", 53)])
    @pytest.mark.parametrize("state", ["mixed", "pure", "centre", "outside"])
    def test_matches_kron_oracle(self, kind, seed, state):
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 12:
            c = _seeded_channel(kind, rng)
            table = _threshold_table(c)
            if table is None:
                continue
            checked += 1
            ginv = np.linalg.inv(partial_transpose(choi_state(c).g))
            for _ in range(3):
                w = _bloch_point(state, rng)
                projected = w / max(1.0, np.linalg.norm(w))
                expected = kron_threshold(ginv, bloch_to_density(projected))
                got = _mu_threshold(table, w)
                assert got == pytest.approx(expected, abs=1e-12)
                if state == "outside":  # constant along each ray beyond the ball
                    assert _mu_threshold(table, 4.0 * w) == got

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bloch_entry(self, bad):
        table = _threshold_table(IDENTITY_CH)
        for entry in range(3):
            w = [0.1, 0.2, 0.3]
            w[entry] = bad
            with pytest.raises(ValueError, match="finite"):
                _mu_threshold(table, w)


class TestMuCUnital:
    def test_rotation(self):
        rng = np.random.default_rng(32)
        assert mu_c_unital(UnitalChannel(random_rotation(rng))) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_eb_region_is_zero(self):
        assert mu_c_unital(UnitalChannel(np.diag([0.4, 0.3, 0.2]))) == 0.0

    def test_diagonal_fixture(self):
        assert mu_c_unital(UnitalChannel(LAM)) == pytest.approx(0.73 / 1.73, abs=1e-12)

    def test_zero_inside_the_eb_tolerance(self):
        # ||T||_1 = 1 + 5e-11 lies inside the EB slack: EB, so threshold 0
        c = UnitalChannel(np.diag([0.5, 0.25, 0.25 + 5e-11]))
        assert is_eb(c) and n_c(c).n == 1
        assert mu_c(c) == 0.0


class TestMuCDispatch:
    def test_swap_fixture(self):
        assert mu_c(UnitalChannel(T)) == pytest.approx(0.73 / 1.73, abs=1e-12)

    def test_gad_goes_through_closed_form(self):
        assert mu_c(GadParams(0.3, 0.2)) == mu_c_gad(0.3, 0.2)

    def test_eb_channel(self):
        assert mu_c(UnitalChannel(np.zeros((3, 3)))) == 0.0

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            assert mu_c(random_cp_unital(rng)) <= 2 / 3 + 1e-9


class TestMuCSearch:
    def test_matches_unital_closed_form(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            c = random_cp_unital(rng)
            got = mu_c_search(as_kraus(c)).value
            assert got == pytest.approx(mu_c_unital(c), abs=1e-3)

    def test_matches_damping_closed_form(self):
        for p, gamma in [(0.3, 0.2), (0.7, 0.45)]:
            got = mu_c_search(as_kraus(GadParams(p, gamma))).value
            assert got == pytest.approx(mu_c_gad(p, gamma), abs=1e-3)

    def test_separable_shortcut(self):
        res = mu_c_search(as_kraus(UnitalChannel(np.zeros((3, 3)))))
        assert res.value == 0.0 and res.evaluations == 1

    def test_unitary_channels_stay_at_the_bound(self):
        rng = np.random.default_rng(37)
        channels = [sandwich(gad_kraus(GadParams(0.0, 0.1)), FilterCandidate.pauli(1))]
        channels += [as_kraus(UnitalChannel(random_rotation(rng))) for _ in range(5)]
        for c in channels:
            value = mu_c_search(c).value
            assert 2 / 3 - 1e-9 <= value <= 2 / 3

    def test_unital_closed_form_to_1e9(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            c = random_cp_unital(rng)
            assert mu_c_search(as_kraus(c)).value == pytest.approx(mu_c_unital(c), abs=1e-9)

    def test_damping_closed_form_to_1e9(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            p, gamma = rng.uniform(), rng.uniform()
            got = mu_c_search(as_kraus(GadParams(p, gamma))).value
            assert got == pytest.approx(mu_c_gad(p, gamma), abs=1e-9)


def _mu_objective(c):
    table = _threshold_table(c)
    assert table is not None
    return lambda w: _mu_threshold(table, w)


def _negated_filter_score(c, cap=16):
    """The objective that ``search_filter`` refines: minus the order plus
    margin of each Euler filter, flat between the integer orders."""
    base = _scan_base(c)
    return lambda angles: _negated_score(base, angles, cap)


def _non_eb_channel(kind, rng):
    while True:
        c = _seeded_channel(kind, rng)
        if _threshold_table(c) is not None:
            return c


class TestNelderMead:
    """The local simplex method against scipy's, bit for bit."""

    @staticmethod
    def _both(f, x0, maxiter=600):
        """Run the port and scipy from x0 on the scalar objective f; require
        the same points evaluated in the same order and the same x, fun and
        nfev.  Returns scipy's result and the points."""
        def traced(seen):
            def g(x):
                seen.append(np.asarray(x, dtype=float).tobytes())
                return f(x)
            return g

        points, seen = [], []
        x, fun = nelder_mead(traced(points), x0, maxiter=maxiter)
        res = minimize(traced(seen), x0, method="Nelder-Mead",
                       options={"xatol": XATOL, "fatol": FATOL, "maxiter": maxiter})
        assert points == seen
        assert len(points) == res.nfev
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        return res, points

    @pytest.mark.parametrize("kind", ["damping", "unital"])
    def test_threshold_search_restarts(self, kind):
        rng = np.random.default_rng(61 if kind == "damping" else 62)
        grid = coarse_bloch_grid()
        for _ in range(5):
            f = _mu_objective(_non_eb_channel(kind, rng))
            ranking = np.argsort([f(w) for w in grid], kind="stable")
            for idx in ranking[:3]:
                self._both(f, grid[int(idx)])

    def test_filter_score_takes_the_shrink_path(self):
        rng = np.random.default_rng(63)
        channels = [random_cp_unital(rng) for _ in range(4)]
        for _ in range(3):
            gamma = rng.uniform(0.05, 0.95)
            channels.append(gad_kraus(GadParams(rng.uniform(p_n(gamma, 2), p_n(gamma, 1)), gamma)))
        shrinks = 0
        for c in channels:
            x0 = rng.uniform(0.0, [2 * np.pi, np.pi, 2 * np.pi])
            res, _ = self._both(_negated_filter_score(c), x0, maxiter=200)
            # without a shrink an iteration costs at most two evaluations
            shrinks += res.nfev > 4 + 2 * (res.nit - 1)
        assert shrinks > 0

    def test_zero_entries_start_at_the_small_step(self):
        f = _mu_objective(gad_kraus(GadParams(0.3, 0.2)))
        _, seen = self._both(f, np.array([0.0, 0.5, 0.0]))
        start = [np.frombuffer(b) for b in seen[1:4]]
        assert start[0].tolist() == [0.00025, 0.5, 0.0]
        assert start[1].tolist() == [0.0, 1.05 * 0.5, 0.0]
        assert start[2].tolist() == [0.0, 0.5, 0.00025]

    def test_stops_at_maxiter(self):
        f = _mu_objective(gad_kraus(GadParams(0.3, 0.2)))
        res, _ = self._both(f, coarse_bloch_grid()[7], maxiter=9)
        assert res.nit == 9 and res.status == 2

    def test_start_beyond_the_ball_matches_scipy(self):
        """Outside the ball the objective is constant along each ray, so the
        simplex meets exact ties; the vertex order must still be scipy's."""
        rng = np.random.default_rng(67)
        grid = coarse_bloch_grid()
        ties = 0
        for kind in ("damping", "unital", "filtered"):
            f = _mu_objective(_non_eb_channel(kind, rng))
            for idx in (0, 6, 14):
                _, points = self._both(f, 3.0 * grid[idx])
                start = [f(np.frombuffer(b)) for b in points[:4]]
                ties += len(set(start)) < 4
        assert ties > 0


class TestMuCSearchOracle:
    """``mu_c_search`` against scipy's Nelder-Mead on the one-point kernel
    (``helpers.fold_search``), bit for bit, and against the certified bounds
    of its convex program (``helpers.sdp_mu_c``)."""

    CASES = [("damping", 71), ("unital", 72), ("filtered", 73), ("damping", 74)]

    @pytest.mark.parametrize("kind,seed", CASES[:3])
    def test_matches_fold_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            c = _non_eb_channel(kind, rng)
            got, want = mu_c_search(c), fold_search(c)
            assert float(got.value).hex() == float(want.value).hex()
            assert got.bloch.tobytes() == want.bloch.tobytes()
            assert got.evaluations == want.evaluations

    def test_search_cost(self):
        """One start costs a median of at most 300 evaluations and never
        reaches the 600-iteration limit (the grid and three restarts took a
        median of 629)."""
        evaluations = []
        for kind, seed in self.CASES:
            rng = np.random.default_rng(seed)
            evaluations += [mu_c_search(_non_eb_channel(kind, rng)).evaluations for _ in range(4)]
        assert np.median(evaluations) <= 300
        assert max(evaluations) < 600

    @staticmethod
    def _within_bounds(c):
        upper, lower = sdp_mu_c(c)
        value = mu_c_search(c).value
        assert lower - 1e-12 <= value <= upper + 1e-10
        assert upper - lower < 1e-9  # the oracle itself is tight

    @settings(max_examples=40, deadline=None)
    @given(kraus_channels())
    def test_kraus_within_sdp_bounds(self, c):
        self._within_bounds(c)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), QUATERNIONS, QUATERNIONS)
    def test_rotated_damping_within_sdp_bounds(self, p, gamma, q1, q2):
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        c = gad_kraus(GadParams(p, gamma))
        self._within_bounds(rotated_kraus(c, unitary_from_quaternion(q1), unitary_from_quaternion(q2)))


class TestMuCSearchSymmetry:
    """The threshold depends on the channel only up to unitaries before and
    after it, and the damping family is symmetric under gamma -> 1 - gamma
    (conjugation by sigma_x)."""

    @settings(max_examples=40, deadline=None)
    @given(kraus_channels(), QUATERNIONS, QUATERNIONS)
    def test_unitary_invariance(self, c, q1, q2):
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        rotated = rotated_kraus(c, unitary_from_quaternion(q1), unitary_from_quaternion(q2))
        assert mu_c_search(rotated).value == pytest.approx(mu_c_search(c).value, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_damping_gamma_reflection(self, p, gamma):
        # gamma in {0, 1} is the zero-temperature edge, where order 64 turns
        # into certified divergence
        assume(1e-9 < gamma < 1.0 - 1e-9)
        edges = [p_n(g, n) for g in (gamma, 1.0 - gamma) for n in range(1, 65)]
        assume(all(abs(p - edge) > 1e-9 for edge in edges))
        for form in (lambda g: GadParams(p, g), lambda g: gad_kraus(GadParams(p, g))):
            c, reflected = form(gamma), form(1.0 - gamma)
            assert mu_c(reflected) == pytest.approx(mu_c(c), abs=1e-9)
            assert n_c(reflected) == n_c(c)


class TestRepresentationIndependence:
    # Pauli channels: convex weights on the vertices of the CP tetrahedron.
    VERTICES = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        QUATERNIONS,
        QUATERNIONS,
    )
    def test_kraus_search_matches_unital_closed_form(self, weights, q1, q2):
        assume(sum(weights) > 1e-3)
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        lam = np.asarray(weights) @ self.VERTICES / sum(weights)
        t = rotation_from_quaternion(q1) @ np.diag(lam) @ rotation_from_quaternion(q2)
        c = UnitalChannel(t)
        assume(trace_norm(c.t) > 1.0)
        got = mu_c_search(as_kraus(c)).value
        assert got == pytest.approx(mu_c_unital(c), abs=1e-9)


class TestThresholdVanishesAtOrderOne:
    """mu_c reads 0.0 exactly when n_c reads 1, even within the tolerance of
    the boundary: on the Kraus and unital routes both call ``decide_eb`` on
    the same matrix, and for damping parameters both compare p with p_1."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans(), st.floats(-1e-9, 1e-9))
    def test_damping_kraus(self, p, gamma, near_edge, shift):
        if near_edge:
            p = min(1.0, max(0.0, p_n(gamma, 1) + shift))
        c = gad_kraus(GadParams(p, gamma))
        assert (mu_c_search(c).value == 0.0) == (n_c(c).n == 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        QUATERNIONS,
        QUATERNIONS,
        st.floats(-1e-9, 1e-9),
    )
    def test_unital_kraus(self, weights, q1, q2, shift):
        assume(sum(weights) > 1e-3)
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        lam = np.asarray(weights) @ TestRepresentationIndependence.VERTICES / sum(weights)
        t = rotation_from_quaternion(q1) @ np.diag(lam) @ rotation_from_quaternion(q2)
        tn = trace_norm(t)
        if tn > 1.0 + 1e-6:
            t = t * ((1.0 + shift) / tn)  # onto the EB boundary, within 1e-9
        c = as_kraus(UnitalChannel(t))
        assert (mu_c_search(c).value == 0.0) == (n_c(c).n == 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        QUATERNIONS,
        QUATERNIONS,
        st.booleans(),
        st.floats(-1e-9, 1e-9) | st.floats(-2 * EB_TOL, 2 * EB_TOL),
    )
    def test_unital_closed_form(self, lam, q1, q2, near_edge, shift):
        # not necessarily completely positive: the unital route needs only
        # the Bloch contraction condition
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        t = rotation_from_quaternion(q1) @ np.diag(lam) @ rotation_from_quaternion(q2)
        if near_edge:
            tn = trace_norm(t)
            assume(tn > 1e-3)
            t = t * ((1.0 + shift) / tn)  # onto the EB boundary, within 1e-9
            assume(np.linalg.norm(t, 2) <= 1.0)
        c = UnitalChannel(t)
        assert (mu_c(c) == 0.0) == is_eb(c) == (n_c(c).n == 1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_damping_closed_form_near_first_edge(self, gamma):
        # every p within 16 ulps of p_1 on either side
        edge = p_n(gamma, 1)
        for direction in (-2.0, 2.0):
            p = edge
            for _ in range(17):
                c = GadParams(p, gamma)
                report = noise_report(c, cap=4)
                assert (mu_c(c) == 0.0) == (report.mu_c == 0.0) == report.ebn[0]
                p = min(1.0, math.nextafter(p, direction))

    def test_damping_closed_form_below_first_edge(self):
        # one ulp below p_1, where mu_c_gad once rounded to 0 at order 2
        c = GadParams(0.8763216380804028, 0.7982411825512649)
        assert c.p == math.nextafter(p_n(c.gamma, 1), 0.0)
        report = noise_report(c)
        assert 0.0 < report.mu_c == mu_c(c) < 1e-12
        assert report.n_c.n == 2

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(-1e-9, 1e-9), st.integers(-20, 20))
    def test_damping_is_eb_agrees_near_first_edge(self, gamma, shift, ulps):
        # p within 1e-9 of p_1, then a few ulps further either way
        p = min(1.0, max(0.0, p_n(gamma, 1) + shift))
        for _ in range(abs(ulps)):
            p = min(1.0, math.nextafter(p, math.copysign(2.0, ulps)))
        c = GadParams(p, gamma)
        assert is_eb(c) == (n_c(c).n == 1) == (mu_c(c) == 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.5, 0.7982411825512649, 1.0])
    def test_damping_is_eb_at_first_edge(self, gamma):
        edge = p_n(gamma, 1)
        below = [edge - 1e-11, math.nextafter(edge, 0.0)]
        above = [edge, math.nextafter(edge, 2.0)]
        for p in below + above:
            c = GadParams(min(1.0, p), gamma)
            assert is_eb(c) == (n_c(c).n == 1) == (mu_c(c) == 0.0)
        assert not any(is_eb(GadParams(p, gamma)) for p in below)
        assert is_eb(GadParams(edge, gamma))


class TestEbnMember:
    def test_swap_fixture(self):
        assert ebn_member(UnitalChannel(T), 2)
        assert not ebn_member(UnitalChannel(T), 1)

    def test_diagonal_fixture(self):
        assert not ebn_member(UnitalChannel(LAM), 2)
        assert ebn_member(UnitalChannel(LAM), 3)

    def test_eb_at_one(self):
        assert ebn_member(UnitalChannel(np.zeros((3, 3))), 1)

    def test_boundary_counts_as_member(self):
        # trace norm exactly 1 after one use
        c = UnitalChannel(np.diag([1.0, 0.0, 0.0]))
        assert ebn_member(c, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ebn_member(UnitalChannel(LAM), 0)


class TestNc:
    def test_fixtures(self):
        assert n_c(UnitalChannel(LAM)).n == 3
        assert n_c(UnitalChannel(T)).n == 2

    def test_rotation_exceeds_cap(self):
        rng = np.random.default_rng(35)
        result = n_c(UnitalChannel(random_rotation(rng)), cap=32)
        assert result.n is None and not result.proven_divergent

    def test_first_member_is_returned(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            c = random_cp_unital(rng)
            result = n_c(c, cap=40)
            if result.n is None:
                assert not ebn_member(c, 40)
            else:
                assert ebn_member(c, result.n)
                if result.n > 1:
                    assert not ebn_member(c, result.n - 1)

    def test_power_anti_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            c = random_cp_unital(rng)
            orders = [n_c(channel_power(c, k), cap=48).order_key() for k in (1, 2, 3)]
            assert orders[0] >= orders[1] >= orders[2]

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            c = random_cp_unital(rng)
            u = random_rotation(rng)
            conj = UnitalChannel(u @ c.t @ u.T)
            assert n_c(c, cap=48).order_key() == n_c(conj, cap=48).order_key()

    def test_polar_form_bound(self):
        # the positive factor of the polar decomposition breaks no earlier
        rng = np.random.default_rng(39)
        for _ in range(50):
            c = random_cp_unital(rng)
            _, lam = polar_decompose(c.t)
            polar = UnitalChannel(lam)
            assert n_c(polar, cap=48).order_key() >= n_c(c, cap=48).order_key()

    def test_gad_divergence_certificate(self):
        result = n_c(GadParams(0.5, 0.0), cap=16)
        assert result.n is None and result.proven_divergent

    @pytest.mark.parametrize("kind,seed", [("unital", 71), ("damping", 72), ("filtered", 73)])
    def test_matches_loop_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        orders = []
        for _ in range(30):
            c = _seeded_channel(kind, rng)
            result = n_c(c)
            assert result == loop_n_c(c, 64)
            orders.append(result.n)
        assert any(n != 1 for n in orders)

    def test_eb_at_one_use_matches_loop_oracle(self):
        channels = [
            as_kraus(UnitalChannel(np.diag(lam)))
            for lam in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [0.4, -0.3, 0.1])
        ]
        s1 = FilterCandidate.pauli(1)
        for gamma in (0.1, 0.3, 0.5, 0.8):
            for p in (p_n(gamma, 1), (p_n(gamma, 1) + 1.0) / 2, 1.0):
                channels += [gad_kraus(GadParams(p, gamma)), sandwich(gad_kraus(GadParams(p, gamma)), s1)]
        for c in channels:
            assert n_c(c) == loop_n_c(c, 64) == NcResult(1, 64)

    def test_unital_matches_loop_oracle(self):
        rng = np.random.default_rng(74)
        for cap in (1, 2, 64):
            for _ in range(30):
                c = random_cp_unital(rng)
                assert n_c(c, cap) == loop_n_c(c, cap)

    def test_dephasing_kraus_matches_loop_oracle(self):
        # ||T^n||_1 = 1 + 2 (0.7)^n never reaches 1, but falls inside the
        # absolute tolerance at n = 63 on the Kraus route (ROADMAP item 3).
        c = as_kraus(UnitalChannel(np.diag([1.0, 0.7, 0.7])))
        assert n_c(c) == loop_n_c(c, 64) == NcResult(63, 64)

    def test_kraus_route_matches_unital_route(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            c = random_cp_unital(rng)
            assert n_c(c, cap=10).n == n_c(as_kraus(c), cap=10).n


def test_orders_and_eb_decisions_never_compose_kraus_sets(monkeypatch):
    import noisegauge.amend
    import noisegauge.channels
    import noisegauge.separability

    c = gad_kraus(GadParams(0.3, 0.2))

    def forbidden(*args):
        raise AssertionError("a Kraus set was composed or extracted")

    for module in (noisegauge.amend, noisegauge.channels, noisegauge.separability):
        for name in ("compose_kraus", "kraus_from_choi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert n_c(c) == n_c(GadParams(0.3, 0.2)) == NcResult(6, 64)
    assert not ebn_member(c, 2)
    assert not is_eb(c)
    assert gad_amendable(0.65, 0.1, FilterCandidate.pauli(1))
    assert not gad_amendable(0.55, 0.1, FilterCandidate.pauli(1))


class TestUpperBound:
    def test_fixtures(self):
        assert mu_c_upper_bound(2) == pytest.approx(2 / 3)
        assert mu_c_upper_bound(3) == pytest.approx(0.75)

    def test_monotone_toward_one(self):
        values = [mu_c_upper_bound(d) for d in range(2, 100)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            mu_c_upper_bound(1)


class TestStructuralProperties:
    def test_concatenation_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            c1, c2 = random_cp_unital(rng), random_cp_unital(rng)
            both = mu_c_unital(compose_unital(c1, c2))
            assert both <= min(mu_c_unital(c1), mu_c_unital(c2)) + 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = random_cp_unital(rng)
            u, v = random_rotation(rng), random_rotation(rng)
            rotated = UnitalChannel(u @ c.t @ v)
            assert mu_c_unital(rotated) == pytest.approx(mu_c_unital(c), abs=1e-9)

    def test_ensemble_upper_bound(self):
        # the weighted bound sits between the mixture value and the largest
        # component value
        rng = np.random.default_rng(43)
        for _ in range(50):
            c1, c2 = random_cp_unital(rng), random_cp_unital(rng)
            w = rng.uniform(0.05, 0.95)
            mixed = UnitalChannel(w * c1.t + (1 - w) * c2.t)
            mu1, mu2 = mu_c_unital(c1), mu_c_unital(c2)
            mu_mix = mu_c_unital(mixed)
            weights = np.array([w, 1 - w])
            mus = np.array([mu1, mu2])
            upper = float((mus * weights / (1 - mus)).sum()
                          / (weights / (1 - mus)).sum())
            assert mu_mix <= upper + 1e-9
            assert upper <= max(mu1, mu2) + 1e-12

    def test_ensemble_bounds_two_sided_for_positive_forms(self):
        # when both members are positive semidefinite their trace norms mix
        # linearly, and the mixture threshold does sit between the extremes
        rng = np.random.default_rng(47)
        for _ in range(50):
            lam1 = np.sort(rng.uniform(0, 1, 3))[::-1]
            lam2 = np.sort(rng.uniform(0, 1, 3))[::-1]
            r1, r2 = random_rotation(rng), random_rotation(rng)
            a = UnitalChannel(r1 @ np.diag(lam1) @ r1.T)
            b = UnitalChannel(r2 @ np.diag(lam2) @ r2.T)
            w = rng.uniform(0.05, 0.95)
            mixed = UnitalChannel(w * a.t + (1 - w) * b.t)
            mu1, mu2 = mu_c_unital(a), mu_c_unital(b)
            mu_mix = mu_c_unital(mixed)
            weights = np.array([w, 1 - w])
            mus = np.array([mu1, mu2])
            upper = float((mus * weights / (1 - mus)).sum()
                          / (weights / (1 - mus)).sum())
            assert min(mu1, mu2) - 1e-9 <= mu_mix <= upper + 1e-9

    def test_mixture_can_undercut_both_components(self):
        # A symmetric lower bound min_j mu_j <= mu_c(mixture) does NOT hold:
        # averaging the sigma_x and sigma_y conjugations yields the Bloch
        # action diag(0, 0, -1), whose trace norm is 1, so the mixture is
        # already entanglement breaking while each component has mu_c = 2/3.
        s1 = UnitalChannel(np.diag([1.0, -1.0, -1.0]))
        s2 = UnitalChannel(np.diag([-1.0, 1.0, -1.0]))
        mixed = UnitalChannel(0.5 * s1.t + 0.5 * s2.t)
        assert mu_c_unital(s1) == pytest.approx(2 / 3)
        assert mu_c_unital(s2) == pytest.approx(2 / 3)
        assert mu_c_unital(mixed) == 0.0

    def test_mixing_threshold_convex_in_state(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            c = random_cp_unital(rng)
            rho_a, rho_b = random_density(rng), random_density(rng)
            w = rng.uniform(0.1, 0.9)
            mixed_rho = w * rho_a + (1 - w) * rho_b
            lhs = mu_given_rho0(c, mixed_rho)
            rhs = w * mu_given_rho0(c, rho_a) + (1 - w) * mu_given_rho0(
                c, rho_b
            )
            assert lhs <= rhs + 3e-5

    def test_polar_form_membership_closed_under_mixing(self):
        rng = np.random.default_rng(45)
        for n in (2, 3):
            done = 0
            while done < 30:
                lam1 = rng.uniform(0, 1, 3)
                lam2 = rng.uniform(0, 1, 3)
                if (lam1**n).sum() > 1 or (lam2**n).sum() > 1:
                    continue
                done += 1
                r1, r2 = random_rotation(rng), random_rotation(rng)
                a = r1 @ np.diag(lam1) @ r1.T
                b = r2 @ np.diag(lam2) @ r2.T
                w = rng.uniform(0, 1)
                mix = w * a + (1 - w) * b
                assert trace_norm(np.linalg.matrix_power(mix, n)) <= 1 + 1e-9

    def test_geometry_region(self):
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 60:
            lam = random_tetra_lambda(rng)
            c = UnitalChannel(np.diag(lam))
            for order in (1, 2, 3):
                total = float((np.abs(lam) ** order).sum())
                if abs(total - 1.0) < 1e-8:
                    continue
                assert ebn_member(c, order) == (total <= 1.0)
            checked += 1


class TestNoiseReport:
    def test_swap_fixture(self):
        report = noise_report(UnitalChannel(T), cap=8)
        assert report.n_c.n == 2
        assert report.ebn == (False, True, True, True, True, True, True, True)
        assert report.mu_c == pytest.approx(0.73 / 1.73, abs=1e-12)

    def test_json_schema(self):
        data = noise_report(UnitalChannel(T), cap=4).to_json()
        assert sorted(data) == ["cap", "ebn", "mu_c", "n_c"]
        assert data["n_c"] == 2 and data["cap"] == 4
        assert data["ebn"] == [False, True, True, True]

    def test_exceeds_cap_serialization(self):
        data = noise_report(IDENTITY_CH, cap=4).to_json()
        assert data["n_c"] == "exceeds_cap"
        assert data["mu_c"] == pytest.approx(2 / 3)

    def test_flag_invariants_enforced(self):
        with pytest.raises(ValueError):
            NcResult(5, 4)
