import math

import numpy as np
import pytest

from noisegauge import (
    GadParams,
    amend_boundary_s1,
    as_kraus,
    mu_c_gad,
    mu_c_gad_squared,
    mu_given_rho0,
    mu_vs_vz,
    n_c,
    n_c_gad,
    p_n,
    pbar,
    pbarbar,
    vbar,
)
from noisegauge.amend import FilterCandidate, sandwich
from noisegauge.channels import gad_kraus
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


class TestMuCGadSquared:
    def test_identity_limit(self):
        assert mu_c_gad_squared(0.0, 0.2) == pytest.approx(2 / 3, abs=1e-12)

    def test_vanishing_point(self):
        assert mu_c_gad_squared(2 - SQRT2, 0.5) == pytest.approx(0.0, abs=1e-9)

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
