import numpy as np
import pytest

from helpers import (
    choi_state,
    is_separable,
    noisy_choi,
    pt_determinant,
    random_cp_unital,
    random_density,
    random_two_qubit_state,
)
from noisegauge import (
    ChoiState,
    GadParams,
    UnitalChannel,
    choi,
    is_eb,
    min_pt_eigenvalue,
)
from noisegauge.channels import PSI_PLUS, as_kraus, gad_kraus, ptm
from noisegauge.gad import p_n
from noisegauge.linalg import partial_transpose
from noisegauge.separability import ptm_min_pt_eigenvalues, ptm_partial_transpose

LAM = np.diag([0.73, 0.5, 0.5])
IDENTITY_CH = UnitalChannel(np.eye(3))
MIXED = np.eye(2) / 2


class TestChoiState:
    def test_rejects_negative(self):
        bad = np.diag([1.2, 0.1, -0.2, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            ChoiState(bad)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            ChoiState(np.eye(4, dtype=complex))

    def test_non_cp_channel_rejected(self):
        with pytest.raises(ValueError):
            choi_state(UnitalChannel(np.array([[0, 0.5, 0], [0.73, 0, 0], [0, 0, 0.5]])))


class TestIsSeparable:
    def test_max_entangled(self):
        assert not is_separable(ChoiState(PSI_PLUS))

    def test_maximally_mixed(self):
        assert is_separable(ChoiState(np.eye(4, dtype=complex) / 4))

    def test_isotropic_threshold(self):
        def werner(mu):
            return ChoiState((1 - mu) * PSI_PLUS + mu * np.eye(4) / 4)

        assert is_separable(werner(2 / 3))
        assert not is_separable(werner(0.66))

    def test_monotone_along_mixing_segment(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            c = random_cp_unital(rng)
            rho0 = random_density(rng)
            mus = np.linspace(0, 1, 21)
            flags = [is_separable(noisy_choi(c, rho0, m)) for m in mus]
            for a, b in zip(flags, flags[1:]):
                assert b or not a


class TestNoisyChoi:
    def test_endpoints(self):
        c = GadParams(0.4, 0.2)
        rho0 = random_density(np.random.default_rng(22))
        assert np.abs(noisy_choi(c, rho0, 0.0).g - choi(c)).max() < 1e-12
        assert np.abs(noisy_choi(c, rho0, 1.0).g - np.kron(rho0, MIXED)).max() < 1e-12

    def test_identity_boundary(self):
        state = noisy_choi(IDENTITY_CH, MIXED, 2 / 3)
        assert abs(min_pt_eigenvalue(state)) < 1e-10

    def test_rejects_mu_outside(self):
        with pytest.raises(ValueError):
            noisy_choi(IDENTITY_CH, MIXED, 1.2)
        with pytest.raises(ValueError):
            noisy_choi(IDENTITY_CH, MIXED, -0.1)


class TestDeterminantCrossCheck:
    def test_agreement_away_from_boundary(self):
        rng = np.random.default_rng(23)
        tested = 0
        while tested < 1000:
            rho = random_two_qubit_state(rng)
            det = pt_determinant(rho)
            if abs(det) <= 1e-8:
                continue
            tested += 1
            assert (det > 0) == is_separable(ChoiState(rho))


class TestIsEb:
    def test_diagonal_fixture_not_eb(self):
        assert not is_eb(UnitalChannel(LAM))

    def test_total_depolarizing(self):
        assert is_eb(UnitalChannel(np.zeros((3, 3))))

    def test_gad_first_band(self):
        for gamma in (0.2, 0.5, 0.8):
            edge = p_n(gamma, 1)
            assert is_eb(GadParams(min(1.0, edge + 1e-6), gamma))
            assert not is_eb(GadParams(edge - 1e-3, gamma))

    def test_norm_route_matches_choi_route(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            c = random_cp_unital(rng)
            by_norm = is_eb(c)
            by_choi = is_separable(choi_state(c))
            assert by_norm == by_choi


class TestPtmPartialTranspose:
    @staticmethod
    def channels():
        rng = np.random.default_rng(62)
        out = [UnitalChannel(np.array([[0, 0.5, 0], [0.73, 0, 0], [0, 0, 0.5]]))]  # not CP
        for _ in range(5):
            c = random_cp_unital(rng)
            out += [c, as_kraus(c), gad_kraus(GadParams(*rng.uniform(0, 1, 2)))]
        return out

    def test_matches_choi_route(self):
        for c in self.channels():
            assert np.abs(ptm_partial_transpose(ptm(c)) - partial_transpose(choi(c))).max() < 1e-14

    def test_stacked_min_eigenvalues(self):
        channels = self.channels()
        lows = ptm_min_pt_eigenvalues(np.array([ptm(c) for c in channels]))
        for low, c in zip(lows, channels):
            assert abs(low - min_pt_eigenvalue(choi(c))) < 1e-14
