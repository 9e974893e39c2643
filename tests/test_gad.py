import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    QUATERNIONS,
    axial_kraus,
    explicit_mu_c_gad_squared,
    loop_n_c_gad,
    mu_vs_vz,
    pbar,
    pbarbar,
    two_branch_mu_c_gad,
    two_branch_mu_c_gad_squared,
    vbar,
)
from noisegauge import (
    GadParams,
    amend_boundary_s1,
    as_kraus,
    mu_c_axial,
    mu_c_gad,
    mu_c_search,
    mu_c_gad_squared,
    mu_given_rho0,
    n_c,
    n_c_gad,
    p_n,
)
from noisegauge.amend import FilterCandidate, sandwich
from noisegauge.channels import gad_kraus
from noisegauge.report import NcResult
from noisegauge.separability import is_eb

SQRT2 = math.sqrt(2.0)


class TestMuVsVz:
    def test_identity_limit(self):
        assert mu_vs_vz(0.0, 0.1, 0.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_vanishes_on_first_band_edge(self):
        for gamma in (0.1, 0.3, 0.5):
            assert mu_vs_vz(p_n(gamma, 1), gamma, 1.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "p,gamma,vz",
        [(0.4, 0.3, 0.2), (0.1, 0.05, -0.6), (0.6, 0.45, 0.9), (0.75, 0.25, 0.0)],
    )
    def test_matches_exact_solve(self, p, gamma, vz):
        rho0 = np.diag([(1 + vz) / 2, (1 - vz) / 2]).astype(complex)
        exact = mu_given_rho0(GadParams(p, gamma), rho0)
        assert mu_vs_vz(p, gamma, vz) == pytest.approx(exact, abs=1e-9)

    def test_rejects_reflected_gamma(self):
        with pytest.raises(ValueError):
            mu_vs_vz(0.3, 0.7, 0.0)


class TestVbar:
    def test_unbiased_bath(self):
        for p in (0.0, 0.3, 0.7):
            assert vbar(p, 0.5) == 0.0

    def test_no_damping(self):
        assert vbar(0.0, 0.2) == 0.0

    def test_matches_grid_argmin(self):
        p, gamma = 0.3, 0.2
        grid = np.linspace(-1, 1, 10001)
        values = [mu_vs_vz(p, gamma, v) for v in grid]
        assert vbar(p, gamma) == pytest.approx(grid[int(np.argmin(values))], abs=1e-3)

    def test_rejects_endpoint_regime(self):
        with pytest.raises(ValueError):
            vbar(0.95, 0.2)


class TestThresholdCurves:
    def test_pbar_fixtures(self):
        assert pbar(0.5) == pytest.approx(2 * (SQRT2 - 1), abs=1e-12)
        assert pbar(0.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_pbarbar_fixture(self):
        assert pbarbar(0.5) == pytest.approx(2 - SQRT2, abs=1e-12)

    def test_pbarbar_is_square_root_shift_of_pbar(self):
        # the twice-applied channel has effective decay 1 - (1-p)^2
        for gamma in np.linspace(0.0, 0.5, 11):
            assert 1 - (1 - pbarbar(gamma)) ** 2 == pytest.approx(
                pbar(gamma), abs=1e-12
            )


class TestMuCGad:
    def test_identity_limit(self):
        assert mu_c_gad(0.0, 0.37) == pytest.approx(2 / 3, abs=1e-12)

    def test_vanishing_point(self):
        assert mu_c_gad(pbar(0.5), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_continuous_at_pbar(self):
        for gamma in np.linspace(0.0, 0.5, 11):
            p = pbar(gamma)
            below = mu_c_gad(p - 1e-12, gamma)
            above = mu_c_gad(p + 1e-12, gamma)
            assert abs(below - above) < 1e-9

    def test_matches_vz_grid_minimum(self):
        for p in np.linspace(0.05, 0.95, 7):
            for gamma in np.linspace(0.0, 0.5, 5):
                grid = np.linspace(-1, 1, 4001)
                lowest = min(mu_vs_vz(p, gamma, v) for v in grid)
                assert mu_c_gad(p, gamma) == pytest.approx(lowest, abs=1e-4)

    def test_gamma_reflection(self):
        for p in (0.2, 0.6, 0.9):
            for gamma in (0.1, 0.35):
                assert mu_c_gad(p, gamma) == pytest.approx(
                    mu_c_gad(p, 1 - gamma), abs=1e-12
                )


class TestMuCAxial:
    @settings(max_examples=150, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           QUATERNIONS, QUATERNIONS)
    @example(0.5, 0.0, 1.0, [1, 0, 0, 0], [0, 1, 0, 0])
    @example(0.0, 0.0, -1.0, [1, 0, 0, 0], [1, 0, 0, 0])
    @example(0.3, 0.999999, 1.0, [1, 2, 3, 4], [4, 3, 2, 1])
    @example(-0.6, 0.3, 1 - 1e-9, [0, 0, 1, 0], [1, 1, 0, 0])
    def test_within_barrier_bounds(self, lz, t_frac, perp_frac, q1, q2):
        """(lz, t_frac, perp_frac) spans the CP axial channels: |t_z| <=
        1 - |lz| and 4 lam_perp^2 <= (1 + lz)^2 - t_z^2, both with sign."""
        assume(np.linalg.norm(q1) > 1e-3 and np.linalg.norm(q2) > 1e-3)
        t_z = t_frac * (1.0 - abs(lz))
        lam_perp = perp_frac * math.sqrt(max(0.0, (1.0 + lz) ** 2 - t_z * t_z)) / 2.0
        res = mu_c_search(axial_kraus(lam_perp, lz, t_z, q1, q2))
        got = mu_c_axial(lam_perp, lz, t_z)
        assert res.lower - 1e-13 <= got <= res.value + 1e-12

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the PTM route's fixed ROUND_TOL slack")
    def test_barrier_bounds_inside_the_slack(self):
        """The draw lz = 1e-12, t_z = 0, lam_perp = (1 + lz)/2 with identity
        rotations.  The Kraus form's smallest partial-transpose eigenvalue,
        about -5e-13, lies within ``ROUND_TOL``, so ``mu_c_search`` calls
        the channel entanglement breaking and reads 0.0, while
        ``mu_c_axial`` gives (d - 1)/d = 2.0e-12."""
        lz = 1e-12
        lam_perp = (1.0 + lz) / 2.0
        res = mu_c_search(axial_kraus(lam_perp, lz, 0.0, [1, 0, 0, 0], [1, 0, 0, 0]))
        got = mu_c_axial(lam_perp, lz, 0.0)
        assert res.lower - 1e-13 <= got <= res.value + 1e-12

    def test_complete_dephasing_corner(self):
        assert mu_c_axial(0.0, 1.0, 0.0) == 0.0

    def test_identity_and_replacement(self):
        assert mu_c_axial(1.0, 1.0, 0.0) == pytest.approx(2 / 3, abs=1e-15)
        assert mu_c_axial(0.0, 0.0, 1.0) == 0.0


def _near_edges(gamma, draws):
    """p at 10^-k and a few ulps from p_1, p_2, pbar and pbarbar."""
    g = min(gamma, 1.0 - gamma)
    anchors = [p_n(gamma, 1), p_n(gamma, 2), pbar(g), pbarbar(g)]
    points = list(draws)
    for a in anchors:
        points += [a + s * 10.0 ** -k for k in range(1, 17) for s in (-1, 1)]
        for direction in (0.0, 2.0):
            x = a
            for _ in range(8):
                x = math.nextafter(x, direction)
                points.append(x)
    return [min(1.0, max(0.0, p)) for p in points]


class TestTwoBranchOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_matches_two_branch_form(self, gamma, draws):
        for p in _near_edges(gamma, draws):
            for closed, oracle in ((mu_c_gad, two_branch_mu_c_gad),
                                   (mu_c_gad_squared, two_branch_mu_c_gad_squared)):
                got, want = closed(p, gamma), oracle(p, gamma)
                assert abs(got - want) <= 2e-15, (closed.__name__, p, gamma)
                assert (got == 0.0) == (want == 0.0), (closed.__name__, p, gamma)


class TestMuCGadSquared:
    def test_identity_limit(self):
        assert mu_c_gad_squared(0.0, 0.2) == pytest.approx(2 / 3, abs=1e-12)

    def test_vanishing_point(self):
        assert mu_c_gad_squared(2 - SQRT2, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_ulps_below_second_edge(self):
        """2 - sqrt 2 lies 2 ulps below p_n(0.5, 2), where p (2 - p) rounds
        onto p_1; the value there is 2.7343e-16 (50-digit arithmetic)."""
        got = mu_c_gad_squared(2 - SQRT2, 0.5)
        assert got != math.ulp(0.0)
        assert abs(got - 2.7343234630647685e-16) <= 1e-16

    def test_cross_identity(self):
        for gamma in np.linspace(0.02, 0.5, 20):
            assert mu_c_gad(pbar(gamma), gamma) == pytest.approx(
                mu_c_gad_squared(pbarbar(gamma), gamma), abs=1e-9
            )

    def test_continuous_at_pbarbar(self):
        for gamma in np.linspace(0.0, 0.5, 11):
            p = pbarbar(gamma)
            assert abs(mu_c_gad_squared(p - 1e-12, gamma)
                       - mu_c_gad_squared(p + 1e-12, gamma)) < 1e-9

    def test_never_above_single_use(self):
        for p in np.linspace(0.0, 1.0, 21):
            for gamma in np.linspace(0.0, 0.5, 6):
                assert mu_c_gad_squared(p, gamma) <= mu_c_gad(p, gamma) + 1e-12

    def test_composition_law_identity(self):
        # two uses at decay p equal one use at decay 1 - (1-p)^2
        for p in np.linspace(0.0, 1.0, 9):
            for gamma in (0.05, 0.3, 0.5):
                assert mu_c_gad_squared(p, gamma) == pytest.approx(
                    mu_c_gad(1 - (1 - p) ** 2, gamma), abs=1e-12
                )

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.one_of(
            st.floats(0.0, 1.0),
            st.tuples(st.integers(-8, 8), st.floats(-1e-9, 1e-9)),
        ),
    )
    @example(0.3, (0, 0.0))
    @example(0.5, (-1, 0.0))
    @example(0.5, (1, 0.0))
    @example(0.0, 0.5)
    @example(1.0, 0.5)
    def test_matches_explicit_two_use_form(self, gamma, where):
        """A float draws p from [0, 1]; a pair (k, d) puts p k ulps and d
        away from the second band edge p_n(gamma, 2)."""
        if isinstance(where, tuple):
            k, d = where
            p = p_n(gamma, 2) + d
            for _ in range(abs(k)):
                p = math.nextafter(p, math.copysign(math.inf, k))
            p = min(1.0, max(0.0, p))
        else:
            p = where
        got = mu_c_gad_squared(p, gamma)
        assert abs(got - explicit_mu_c_gad_squared(p, gamma)) <= 1e-14
        order = n_c_gad(p, gamma)
        assert (got == 0.0) == (order.n is not None and order.n <= 2)

    def test_ordering_matches_inset_sweep(self):
        gamma = 1 / 3
        for p in np.linspace(0, 1, 41):
            assert mu_c_gad_squared(p, gamma) <= mu_c_gad(p, gamma) + 1e-12


class TestBandMap:
    def test_band_edge_fixtures(self):
        assert p_n(0.5, 1) == pytest.approx(2 * (SQRT2 - 1), abs=1e-12)
        assert p_n(0.5, 2) == pytest.approx(2 - SQRT2, abs=1e-12)

    def test_zero_temperature_edges(self):
        for n in (1, 2, 5, 20):
            assert p_n(0.0, n) == 1.0
            assert p_n(1.0, n) == 1.0

    def test_symmetry(self):
        for gamma in np.linspace(0.0, 1.0, 17):
            for n in (1, 2, 3, 7):
                assert abs(p_n(gamma, n) - p_n(1 - gamma, n)) < 1e-12

    def test_order_fixtures(self):
        assert n_c_gad(0.9, 0.5).n == 1
        assert n_c_gad(0.7, 0.5).n == 2
        divergent = n_c_gad(0.5, 0.0)
        assert divergent.n is None and divergent.proven_divergent

    def test_full_decay_is_immediately_breaking(self):
        assert n_c_gad(1.0, 0.0).n == 1
        assert n_c_gad(1.0, 1.0).n == 1

    def test_matches_choi_iteration(self):
        for p in np.linspace(0.1, 0.95, 7):
            for gamma in np.linspace(0.05, 0.5, 5):
                if min(abs(p - p_n(gamma, n)) for n in range(1, 9)) < 1e-6:
                    continue
                closed = n_c_gad(p, gamma, cap=8)
                brute = n_c(as_kraus(GadParams(p, gamma)), cap=8)
                assert closed.n == brute.n


GAMMAS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.5, 1 - 1e-16]), st.floats(0.0, 1.0))
CAPS = st.sampled_from([1, 2, 3, 8, 64, 200])


class TestBandInversion:
    """``n_c_gad`` guesses the order from the inverted band edge and settles
    it by the exact comparison; the scan over every order is its oracle."""

    @settings(max_examples=600, deadline=None)
    @given(
        GAMMAS,
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-300, 1.0]),
            st.floats(0.0, 1.0),
            st.tuples(st.integers(1, 70), st.integers(-4, 4)),
        ),
        CAPS,
    )
    @example(0.3, 0.01, 64)
    @example(0.3, 0.01, 200)
    @example(0.5, 0.05, 8)
    @example(0.5, (35, 0), 64)
    @example(0.5, (35, -1), 64)
    @example(1e-17, 0.5, 64)
    @example(1e-17, 1.0, 64)
    @example(0.7, 5e-324, 200)
    def test_matches_the_scan(self, gamma, where, cap):
        """A float draws p; a pair (n, k) puts p k ulps from p_n(gamma, n)."""
        if isinstance(where, tuple):
            n, k = where
            p = p_n(gamma, n)
            for _ in range(abs(k)):
                p = math.nextafter(p, math.copysign(math.inf, k))
            p = min(1.0, max(0.0, p))
        else:
            p = where
        assert n_c_gad(p, gamma, cap) == loop_n_c_gad(p, gamma, cap)

    @pytest.mark.parametrize("cap", [0, -1, -64])
    @pytest.mark.parametrize("p, gamma", [(0.0, 0.5), (0.5, 0.3), (1.0, 0.2), (0.5, 0.0), (1.0, 1.0)])
    def test_cap_below_one_raises(self, p, gamma, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            n_c_gad(p, gamma, cap)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_max=True), CAPS)
    def test_zero_temperature_stays_divergent(self, gamma, p, cap):
        result = n_c_gad(p, gamma, cap)
        assert result == NcResult(None, cap, proven_divergent=True)

    @pytest.mark.xfail(strict=True, reason="p_n forms its band edge as 1 - 2 / (1 + s), "
                       "which cancels to 0 for 4 g (1 - g) below about 1.1e-16")
    @pytest.mark.parametrize("gamma, order", [(1e-16, 54), (1e-17, 57)])
    def test_tiny_gamma_order(self, gamma, order):
        """(1 - p)^n <= g (1 - g) to first order in g, so at p = 1/2 the order
        is ceil(log2(1 / g)); the oracle shares p_n and cannot see this."""
        assert n_c_gad(0.5, gamma, cap=200).n == order


class TestAmendBoundary:
    def test_limit_toward_zero(self):
        assert amend_boundary_s1(1e-6) == pytest.approx(
            (math.sqrt(5) - 1) / 2, abs=1e-3
        )

    def test_balanced_bath_value(self):
        assert amend_boundary_s1(0.5) == pytest.approx(2 - SQRT2, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            amend_boundary_s1(0.0)

    def test_matches_interleaved_eb_switch(self):
        # oracle: scan in p for the first point where damping . flip . damping
        # becomes entanglement breaking
        s1 = FilterCandidate.pauli(1)
        for gamma in (0.1, 0.25, 0.5):
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if is_eb(sandwich(gad_kraus(GadParams(mid, gamma)), s1)):
                    hi = mid
                else:
                    lo = mid
            assert amend_boundary_s1(gamma) == pytest.approx(
                0.5 * (lo + hi), abs=1e-7
            )
