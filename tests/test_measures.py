import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    QUATERNIONS,
    axial_kraus,
    bisect_threshold,
    channel_power,
    choi_state,
    compose_unital,
    eigenvector_dual_bound,
    filtered_scan,
    fold_search,
    kraus_channels,
    kron_threshold,
    loop_n_c,
    mu_vs_vz,
    near_eb_mixtures,
    noisy_choi,
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
    amend_order,
    as_kraus,
    bloch_to_density,
    channel_to_json,
    ebn_member,
    gad_amendable,
    gad_kraus,
    is_eb,
    kraus_from_choi,
    mu_c,
    mu_c_axial,
    mu_c_gad,
    mu_c_search,
    mu_c_unital,
    mu_c_upper_bound,
    mu_given_rho0,
    n_c,
    noise_report,
    sandwich,
)
from noisegauge import measures
from noisegauge.amend import _euler_lattice, _filter_matrix
from noisegauge.channels import ptm
from noisegauge.cli import main
from noisegauge.gad import p_n
from noisegauge.linalg import ROUND_TOL, partial_transpose, polar_decompose, trace_norm
from noisegauge.measures import _mu_threshold, _order_result, _order_scan, _pt_choi
from noisegauge.separability import _scan_base

LAM = np.diag([0.73, 0.5, 0.5])

SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
T = SWAP_XY @ LAM
MIXED = np.eye(2) / 2
IDENTITY_CH = UnitalChannel(np.eye(3))


def _seeded_channel(kind, rng):
    """A seeded unital Kraus, damping Kraus, damping Kraus rotated on both
    sides (its optimal prepared state is pure) or s1-filtered damping
    channel."""
    if kind == "unital":
        return as_kraus(random_cp_unital(rng))
    if kind == "damping":
        return gad_kraus(GadParams(rng.uniform(0, 0.9), rng.uniform()))
    if kind == "rotated":
        c = gad_kraus(GadParams(rng.uniform(0, 0.9), rng.uniform()))
        u, v = (unitary_from_quaternion(rng.normal(size=4)) for _ in range(2))
        return rotated_kraus(c, u, v)
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
        sep_tol = 0.0 if state == "pure" else ROUND_TOL
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
    """The one-state kernel against the S G^-1 S construction of
    ``helpers.kron_threshold`` on the Choi-matrix route."""

    @pytest.mark.parametrize("kind,seed", [("unital", 51), ("damping", 52), ("filtered", 53)])
    @pytest.mark.parametrize("state", ["mixed", "pure", "centre", "outside"])
    def test_matches_kron_oracle(self, kind, seed, state):
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 12:
            c = _seeded_channel(kind, rng)
            g = _pt_choi(ptm(c))
            if g is None:
                continue
            kernel_ginv = np.linalg.inv(g)
            checked += 1
            ginv = np.linalg.inv(partial_transpose(choi_state(c).g))
            for _ in range(3):
                w = _bloch_point(state, rng)
                projected = w / max(1.0, np.linalg.norm(w))
                expected = kron_threshold(ginv, bloch_to_density(projected))
                got = _mu_threshold(kernel_ginv, w)
                assert got == pytest.approx(expected, abs=1e-12)
                if state == "outside":  # constant along each ray beyond the ball
                    assert _mu_threshold(kernel_ginv, 4.0 * w) == got

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bloch_entry(self, bad):
        ginv = np.linalg.inv(_pt_choi(ptm(IDENTITY_CH)))
        for entry in range(3):
            w = [0.1, 0.2, 0.3]
            w[entry] = bad
            with pytest.raises(ValueError, match="finite"):
                _mu_threshold(ginv, w)


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
        # ||T||_1 = 1 + 5e-13 lies inside the EB slack ROUND_TOL: EB, so
        # threshold 0; 1 + 5e-11 lies outside it
        c = UnitalChannel(np.diag([0.5, 0.25, 0.25 + 5e-13]))
        assert is_eb(c) and n_c(c).n == 1
        assert mu_c(c) == 0.0
        c = UnitalChannel(np.diag([0.5, 0.25, 0.25 + 5e-11]))
        assert not is_eb(c) and n_c(c).n == 2
        assert mu_c(c) > 0.0


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
        assert res.value == 0.0 and res.lower == 0.0 and res.evaluations == 0

    def test_unitary_channels_stay_at_the_bound(self):
        """Where the value is capped at 2/3, `lower` is the dual bound at the
        capped answer."""
        rng = np.random.default_rng(37)
        channels = [sandwich(gad_kraus(GadParams(0.0, 0.1)), FilterCandidate.pauli(1))]
        channels += [as_kraus(UnitalChannel(random_rotation(rng))) for _ in range(100)]
        for c in channels:
            got = mu_c_search(c)
            assert 2 / 3 - 1e-9 <= got.value <= 2 / 3
            g = _pt_choi(ptm(c))
            assert got.lower == min(got.value, measures._dual_bound(g, got.value, got.bloch))

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


def _non_eb_channel(kind, rng):
    while True:
        c = _seeded_channel(kind, rng)
        if _pt_choi(ptm(c)) is not None:
            return c


class TestMuCSearchOracle:
    """``mu_c_search`` against the folded Nelder-Mead search on the one-point
    kernel (``helpers.fold_search``), and against the certified bounds of
    its convex program (``helpers.sdp_mu_c``) and of one eigenvector
    (``helpers.eigenvector_dual_bound``)."""

    CASES = [("damping", 71), ("unital", 72), ("filtered", 73), ("damping", 74)]

    @pytest.mark.parametrize("kind,seed", CASES[:3] + [("rotated", 75)])
    def test_matches_fold_oracle(self, kind, seed):
        """Within 1e-11, and never above the search beyond rounding: the
        value is an exact solve at a state as good as the search's."""
        rng = np.random.default_rng(seed)
        for _ in range(4):
            c = _non_eb_channel(kind, rng)
            got, want = mu_c_search(c), fold_search(c)
            assert got.value == pytest.approx(want.value, abs=1e-11)
            assert got.lower <= got.value <= want.value + 1e-13

    def test_search_cost(self):
        """The barrier solve takes a median of at most 40 Newton steps and
        never exhausts its step budget (the Nelder-Mead search took a median
        of about 200 threshold solves).  It runs on the G of ``mu_c_search``,
        whose certified guess answers these channels without it."""
        steps = []
        for kind, seed in self.CASES:
            rng = np.random.default_rng(seed)
            steps += [measures._barrier_solve(_pt_choi(ptm(_non_eb_channel(kind, rng))))[1]
                      for _ in range(4)]
        assert np.median(steps) <= 40
        assert max(steps) < measures._NEWTON_STEPS

    @staticmethod
    def _within_bounds(c):
        """Inside the oracle's bounds, with one certificate: `lower` is the
        dual bound at the reported state, clamped to the value, on both
        routes.  On the barrier route the exact solve at b/a is at most a:
        feasibility of (a, b) means the mixture at weight a with rho0 = b/a
        is already PPT, so a itself never beats it."""
        upper, lower = sdp_mu_c(c)
        got = mu_c_search(c)
        assert lower - 1e-12 <= got.value <= upper + 1e-10
        assert upper - lower < 1e-9  # the oracle itself is tight
        assert got.lower <= got.value <= got.lower + 1e-9
        assert eigenvector_dual_bound(c, got.value, got.bloch) <= got.value + 1e-14
        g = _pt_choi(ptm(c))
        if g is None:
            assert (got.value, got.lower, got.evaluations) == (0.0, 0.0, 0)
            return
        assert got.lower == min(got.value, measures._dual_bound(g, got.value, got.bloch))
        if got.evaluations:
            v, steps = measures._barrier_solve(g)
            assert steps == got.evaluations
            assert _mu_threshold(np.linalg.inv(g), (v[1:] / v[0]).tolist()) <= v[0] + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(kraus_channels())
    def test_exhausted_step_budget_still_answers(self, c):
        """With one Newton step allowed, ``analyze`` still exits 0 with the
        value of ``mu_c_search``.  Where the barrier runs, it reports its
        first iterate, a feasible point, certified by the dual bound there;
        where the guess answers, its certificate holds."""
        upper, lower = sdp_mu_c(c)
        g = _pt_choi(ptm(c))
        out = io.StringIO()
        with mock.patch.object(measures, "_NEWTON_STEPS", 1):
            got = mu_c_search(c)
            with contextlib.redirect_stdout(out):
                rc = main(["analyze", json.dumps(channel_to_json(c))])
            barrier = None if g is None else measures._barrier_solve(g)
        assert rc == 0
        assert json.loads(out.getvalue())["mu_c"] == got.value
        assert got.value >= lower
        assert got.evaluations <= 1 and got.lower <= got.value
        if got.evaluations >= 1:
            assert barrier[1] == 1
            assert got.lower == min(got.value, measures._dual_bound(g, got.value, got.bloch))
            assert got.lower <= upper
        else:
            assert got.value - got.lower <= ROUND_TOL * got.value

    @settings(max_examples=40, deadline=None)
    @given(near_eb_mixtures())
    def test_near_eb_mixtures_within_sdp_bounds(self, c):
        self._within_bounds(c)

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


class TestNormalFormGuess:
    """Rotations of unital and axially symmetric channels are answered by the
    certified guess of ``mu_c_search``, with no Newton step.  The certificate
    is relative, ROUND_TOL * value, and its rounding is absolute, about
    1e-16, so channels within about 1e-4 of threshold 0 may fall back to
    the barrier; these draws keep a threshold of at least 1e-3."""

    @staticmethod
    def _answered_by_guess(c):
        got = mu_c_search(c)
        if got.value < 1e-3:
            return False
        assert got.evaluations == 0
        assert got.value - got.lower <= ROUND_TOL * got.value
        return True

    @pytest.mark.parametrize("kind,seed", [("unital", 81), ("damping", 82),
                                           ("rotated", 83), ("filtered", 84)])
    def test_seeded_kinds(self, kind, seed):
        rng = np.random.default_rng(seed)
        assert all(self._answered_by_guess(_non_eb_channel(kind, rng)) for _ in range(8))

    def test_rotated_axial(self):
        rng = np.random.default_rng(85)
        answered = 0
        while answered < 24:
            lz, t_frac, perp_frac = rng.uniform(-1.0, 1.0, 3)
            t_z = t_frac * (1.0 - abs(lz))
            lam_perp = perp_frac * math.sqrt((1.0 + lz) ** 2 - t_z * t_z) / 2.0
            if mu_c_axial(lam_perp, lz, t_z) >= 1e-3:
                c = axial_kraus(lam_perp, lz, t_z, rng.normal(size=4), rng.normal(size=4))
                answered += self._answered_by_guess(c)

    @pytest.mark.parametrize("kind,seed", [("unital", 86), ("rotated", 87), ("filtered", 88)])
    def test_dual_bound_matches_choi_route_oracle(self, kind, seed):
        """``measures._dual_bound`` on G against ``helpers.eigenvector_dual_bound``
        on the Choi matrix, at the answer of ``mu_c_search`` and at the exact
        threshold of random prepared states."""
        rng = np.random.default_rng(seed)
        for _ in range(6):
            c = _non_eb_channel(kind, rng)
            g = _pt_choi(ptm(c))
            best = mu_c_search(c)
            claims = [(best.value, best.bloch)]
            for _ in range(3):
                w = _bloch_point("mixed", rng)
                claims.append((mu_given_rho0(c, bloch_to_density(w)), w))
            for value, w in claims:
                got = measures._dual_bound(g, value, w)
                assert got == pytest.approx(eigenvector_dual_bound(c, value, w), abs=1e-14)


class TestMuCSearchSymmetry:
    """The threshold depends on the channel only up to unitaries before and
    after it, and the damping family is symmetric under gamma -> 1 - gamma
    (conjugation by sigma_x)."""

    @settings(max_examples=40, deadline=None)
    @given(kraus_channels(), QUATERNIONS, QUATERNIONS)
    def test_unitary_invariance(self, c, q1, q2):
        """The answers for U . c . V and c agree, each inside the other's
        certificate [lower, value] up to rounding."""
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        rotated = rotated_kraus(c, unitary_from_quaternion(q1), unitary_from_quaternion(q2))
        got, want = mu_c_search(rotated), mu_c_search(c)
        assert got.value == pytest.approx(want.value, abs=1e-9)
        for x, y in ((got, want), (want, got)):
            assert x.lower <= x.value
            assert x.lower <= y.value + 1e-14

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

    @staticmethod
    def _vanishes_at_order_one(c):
        got = mu_c_search(c)
        assert (got.value == 0.0) == (n_c(c).n == 1)
        assert got.lower <= got.value <= got.lower + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(kraus_channels(), st.floats(-1e-9, 1e-9))
    def test_kraus_mixed_onto_the_boundary(self, c, shift):
        """The channel mixed into the map that prepares its optimal state,
        with weight mu_c + shift: within 1e-9 of the EB boundary."""
        best = mu_c_search(c)
        assume(best.value > 0.0)
        mixed = noisy_choi(c, bloch_to_density(best.bloch), best.value + shift)
        self._vanishes_at_order_one(kraus_from_choi(mixed.g))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(-1e-9, 1e-9), QUATERNIONS, QUATERNIONS)
    def test_rotated_damping_at_the_edge(self, gamma, shift, q1, q2):
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        c = gad_kraus(GadParams(min(1.0, max(0.0, p_n(gamma, 1) + shift)), gamma))
        self._vanishes_at_order_one(
            rotated_kraus(c, unitary_from_quaternion(q1), unitary_from_quaternion(q2)))

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
        st.floats(-1e-9, 1e-9) | st.floats(-2 * ROUND_TOL, 2 * ROUND_TOL),
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

    def test_dephasing_exceeds_cap_in_both_forms(self):
        # ||T^n||_1 = 1 + 2 (0.7)^n never reaches 1; at n <= 64 it stays
        # above 1 + ROUND_TOL, so both representations read exceeds_cap
        c = UnitalChannel(np.diag([1.0, 0.7, 0.7]))
        assert n_c(c) == loop_n_c(c, 64) == NcResult(None, 64)
        k = as_kraus(c)
        assert n_c(k) == loop_n_c(k, 64) == NcResult(None, 64)

    @pytest.mark.parametrize("d", [1e-10, 1e-11])
    def test_damping_below_first_edge_matches_kraus_form(self, d):
        # a damping channel d below p_1 is not EB as GadParams; its Kraus
        # form, decided with the same slack, agrees
        g = GadParams(p_n(0.3, 1) - d, 0.3)
        k = as_kraus(g)
        assert is_eb(g) == is_eb(k) is False
        assert n_c(g) == n_c(k)
        assert (mu_c(g) == 0.0) == (mu_c(k) == 0.0) is False

    def test_kraus_route_matches_unital_route(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            c = random_cp_unital(rng)
            assert n_c(c, cap=10).n == n_c(as_kraus(c), cap=10).n


@st.composite
def unital_maps(draw):
    """Bloch matrices R diag(l) R' of contractions, proper or improper,
    from the zero map to rotations."""
    lam = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1.0])),
                        min_size=3, max_size=3))
    left, right = draw(QUATERNIONS), draw(QUATERNIONS)
    assume(np.linalg.norm(left) > 1e-3 and np.linalg.norm(right) > 1e-3)
    return UnitalChannel(rotation_from_quaternion(left) @ np.diag(lam) @ rotation_from_quaternion(right))


EULER_ANGLES = st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3)
SCAN_CAPS = st.integers(1, 64)


def _one_filter_matches_lattice_row(c, angles, cap) -> int:
    """An Euler filter's one-point lattice row and ``amend_order``, which
    scans the filter alone: the same bits and the same order."""
    base = _scan_base(c)
    orders, margins = filtered_scan(c, _euler_lattice(*np.reshape(angles, (3, 1))), cap)
    step = _filter_matrix(FilterCandidate.euler(*angles).bloch_matrix(), base) @ base
    alone = _order_scan(step[None], cap)
    assert (int(alone[0][0]), float(alone[1][0]).hex()) == (int(orders[0]), float(margins[0]).hex())
    assert amend_order(c, FilterCandidate.euler(*angles), cap) == _order_result(orders[0], cap)
    return int(orders[0])


class TestOneFilterScan:
    """A filter scanned alone, as ``amend_order`` scans it, scores the bits
    of its row in a stacked ``_order_scan``, and a channel scanned alone, as
    ``n_c`` scans it, scores the bits of its identity-filter step."""

    @settings(max_examples=150, deadline=None)
    @given(unital_maps(), EULER_ANGLES, SCAN_CAPS)
    @example(UnitalChannel(np.zeros((3, 3))), [0.3, -2.0, 7.5], 1)
    @example(IDENTITY_CH, [-40.0, 3.0, 91.0], 64)
    def test_unital_route(self, c, angles, cap):
        _one_filter_matches_lattice_row(c, angles, cap)

    @settings(max_examples=150, deadline=None)
    @given(kraus_channels(), EULER_ANGLES, SCAN_CAPS)
    @example(gad_kraus(GadParams(0.95, 0.5)), [0.3, -2.0, 7.5], 64)
    @example(as_kraus(IDENTITY_CH), [-40.0, 3.0, 91.0], 1)
    def test_ptm_route(self, c, angles, cap):
        _one_filter_matches_lattice_row(c, angles, cap)

    @pytest.mark.parametrize("c, cap, order", [
        (UnitalChannel(np.zeros((3, 3))), 1, 1),
        (IDENTITY_CH, 64, 65),
        (gad_kraus(GadParams(0.95, 0.5)), 64, 1),
        (as_kraus(IDENTITY_CH), 1, 2),
    ])
    def test_examples_cover_eb_at_one_and_exceeded_cap(self, c, cap, order):
        assert _one_filter_matches_lattice_row(c, [0.3, -2.0, 7.5], cap) == order

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(unital_maps(), kraus_channels()), SCAN_CAPS)
    @example(UnitalChannel(np.zeros((3, 3))), 1)
    @example(IDENTITY_CH, 64)
    @example(gad_kraus(GadParams(0.95, 0.5)), 64)
    @example(as_kraus(IDENTITY_CH), 1)
    def test_channel_alone_scores_as_the_identity_filter(self, c, cap):
        """``n_c`` scans the channel's own matrix: the identity filter's
        product, which it skips, changes no order and no margin bit."""
        orders, margins = _order_scan(_scan_base(c)[None], cap)
        expected = filtered_scan(c, np.eye(3)[None], cap)
        assert (int(orders[0]), float(margins[0]).hex()) == (
            int(expected[0][0]), float(expected[1][0]).hex())
        assert n_c(c, cap) == _order_result(orders[0], cap)

    def test_improper_rotation_only_on_the_unital_route(self):
        swap = FilterCandidate.orthogonal(SWAP_XY)
        assert amend_order(UnitalChannel(T), swap, 16).n == 3
        for c in (gad_kraus(GadParams(0.5, 0.3)), as_kraus(UnitalChannel(LAM))):
            with pytest.raises(ValueError, match="improper"):
                amend_order(c, swap, 16)

    def test_rejects_cap_below_one(self):
        with pytest.raises(ValueError, match="cap"):
            _order_scan(_scan_base(UnitalChannel(LAM))[None], 0)
        # the cap is checked before the filter, on either route
        swap = FilterCandidate.orthogonal(SWAP_XY)
        for c in (UnitalChannel(LAM), as_kraus(UnitalChannel(LAM))):
            with pytest.raises(ValueError, match="cap"):
                amend_order(c, swap, 0)


@st.composite
def filtered_stacks(draw, route):
    """A stack of 1 to 3 filtered steps F R, one channel and one filter per
    row: PTMs of ``kraus_channels`` beside proper rotations (route "ptm"),
    or Bloch matrices of ``unital_maps`` beside rotations of either sign of
    the determinant (route "bloch")."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(QUATERNIONS)
        assume(np.linalg.norm(q) > 1e-3)
        rotation = rotation_from_quaternion(q)
        if route == "bloch":
            c = draw(unital_maps())
            rotation = rotation * draw(st.sampled_from([1.0, -1.0]))
        else:
            c = draw(kraus_channels())
        base = _scan_base(c)
        rows.append(_filter_matrix(rotation, base) @ base)
    return np.array(rows)


class TestScanFromOrderTwo:
    """``_order_scan(steps, cap, 2)`` forms the powers the full scan forms and
    skips only the order-1 decisions: on a stack where the full scan finds
    no row of order 1, it gives every row the same order and margin bits."""

    @staticmethod
    def _check(steps, cap):
        orders, margins = _order_scan(steps, cap)
        assume((orders != 1).all())
        from_two = _order_scan(steps, cap, 2)
        assert np.array_equal(from_two[0], orders)
        assert from_two[1].tobytes() == margins.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(filtered_stacks("ptm"), SCAN_CAPS)
    def test_ptm_stacks(self, steps, cap):
        self._check(steps, cap)

    @settings(max_examples=100, deadline=None)
    @given(filtered_stacks("bloch"), SCAN_CAPS)
    def test_bloch_stacks(self, steps, cap):
        self._check(steps, cap)

    def test_rows_of_order_one_read_two(self):
        # the decision skipped at power 1 falls to power 2, where the
        # entanglement-breaking row stays EB
        steps = np.array([_scan_base(UnitalChannel(np.zeros((3, 3)))), T])
        assert _order_scan(steps, 16)[0].tolist() == [1, 2]
        assert _order_scan(steps, 16, 2)[0].tolist() == [2, 2]


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
