import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import (
    apply_kraus,
    channel_power,
    compose_unital,
    in_cpt_tetrahedron,
    random_cp_unital,
    random_density,
)
from noisegauge import (
    FilterCandidate,
    GadParams,
    KrausChannel,
    UnitalChannel,
    as_kraus,
    bloch_vector,
    channel_from_json,
    channel_to_json,
    choi,
    compose_kraus,
    gad_kraus,
    kraus_from_choi,
    pauli_decompose,
    validate_density,
)
from noisegauge.channels import IDENTITY_2, PSI_PLUS, SIGMA_X, ptm
from noisegauge.gad import p_n
from noisegauge.linalg import partial_transpose, trace_norm

LAM = np.diag([0.73, 0.5, 0.5])
SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
T = SWAP_XY @ LAM

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


class TestInvariants:
    def test_unital_accepts_contraction(self):
        UnitalChannel(T)  # not completely positive, but a valid contraction

    def test_unital_rejects_expansion(self):
        with pytest.raises(ValueError):
            UnitalChannel(1.01 * np.eye(3))

    def test_kraus_rejects_incomplete(self):
        with pytest.raises(ValueError):
            KrausChannel((0.9 * IDENTITY_2,))

    def test_gad_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GadParams(1.2, 0.5)
        with pytest.raises(ValueError):
            GadParams(0.5, -0.1)

    def test_bloch_vector_outside_ball(self):
        with pytest.raises(ValueError):
            bloch_vector([1.0, 1.0, 0.0])

    def test_bloch_vector_within_input_tol(self):
        bloch_vector([1.0 + 5e-11, 0.0, 0.0])

    # Every comparison with NaN is False, so a check written as dev > tol
    # lets NaN through unless finiteness is checked first.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: validate_density([[np.nan, 0.0], [0.0, np.nan]]),
            lambda: FilterCandidate.orthogonal(np.full((3, 3), np.nan)),
            lambda: FilterCandidate.euler(np.nan, 0.0, 0.0),
        ],
        ids=["density", "orthogonal", "euler"],
    )
    def test_rejects_nan_input(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


def bloch_action(c, v) -> np.ndarray:
    """Bloch vector t + T v read off the PTM of the channel."""
    return (ptm(c) @ np.concatenate(([1.0], bloch_vector(v))))[1:]


class TestApplyCompose:
    def test_identity_action(self):
        v = np.array([0.2, -0.4, 0.1])
        assert np.allclose(bloch_action(UnitalChannel(np.eye(3)), v), v)

    def test_total_depolarizing_action(self):
        assert np.allclose(
            bloch_action(UnitalChannel(np.zeros((3, 3))), [0.3, 0.1, -0.7]), 0.0
        )

    def test_swap_fixture_action(self):
        assert np.allclose(
            bloch_action(UnitalChannel(T), [1.0, 0, 0]), [0.0, 0.73, 0.0]
        )

    def test_compose_identity(self):
        c = UnitalChannel(T)
        out = compose_unital(UnitalChannel(np.eye(3)), c)
        assert np.abs(out.t - T).max() == 0.0

    def test_compose_square_norm(self):
        c = UnitalChannel(T)
        assert trace_norm(compose_unital(c, c).t) == pytest.approx(0.98, abs=1e-12)

    def test_polar_factors_compose_to_fixture(self):
        out = compose_unital(UnitalChannel(SWAP_XY), UnitalChannel(LAM))
        assert np.abs(out.t - T).max() < 1e-15


class TestGadKraus:
    def test_no_damping_is_identity(self):
        ops = gad_kraus(GadParams(0.0, 0.3)).ops
        rng = np.random.default_rng(0)
        rho = random_density(rng)
        out = sum(e @ rho @ e.conj().T for e in ops)
        assert np.abs(out - rho).max() < 1e-12

    def test_full_decay_to_ground(self):
        c = gad_kraus(GadParams(1.0, 1.0))
        for rho in (KET0, KET1, np.eye(2, dtype=complex) / 2):
            assert np.abs(apply_kraus(c, rho) - KET0).max() < 1e-12

    def test_bath_bias_reflection(self):
        # conjugating by sigma_x swaps the roles of the two bath populations
        rng = np.random.default_rng(1)
        p, gamma = 0.37, 0.21
        direct = gad_kraus(GadParams(p, 1 - gamma))
        reflected = gad_kraus(GadParams(p, gamma))
        for _ in range(5):
            rho = random_density(rng)
            lhs = apply_kraus(direct, rho)
            rhs = SIGMA_X @ apply_kraus(reflected, SIGMA_X @ rho @ SIGMA_X) @ SIGMA_X
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_reflection_on_choi(self):
        p, gamma = 0.55, 0.15
        s = np.kron(SIGMA_X, SIGMA_X)
        lhs = choi(GadParams(p, 1 - gamma))
        rhs = s @ choi(GadParams(p, gamma)) @ s.conj().T
        assert np.abs(lhs - rhs).max() < 1e-10


class TestApplyKraus:
    def test_identity_channel(self):
        c = KrausChannel((IDENTITY_2,))
        rho = random_density(np.random.default_rng(2))
        assert np.abs(apply_kraus(c, rho) - rho).max() == 0.0

    def test_decay_on_excited(self):
        out = apply_kraus(gad_kraus(GadParams(1.0, 1.0)), KET1)
        assert np.abs(out - KET0).max() < 1e-12

    def test_unital_fixes_maximally_mixed(self):
        c = as_kraus(random_cp_unital(np.random.default_rng(3)))
        out = apply_kraus(c, np.eye(2) / 2)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-10

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            apply_kraus(gad_kraus(GadParams(0.5, 0.5)), np.diag([2.0, -1.0]))


class TestChoi:
    def test_identity_channel(self):
        assert np.abs(choi(UnitalChannel(np.eye(3))) - PSI_PLUS).max() < 1e-14

    def test_total_depolarizing(self):
        assert np.abs(choi(UnitalChannel(np.zeros((3, 3)))) - np.eye(4) / 4).max() < 1e-14

    def test_gad_pt_determinant_changes_sign_on_band_edge(self):
        for gamma in (0.1, 0.3, 0.5):
            def det_pt(p):
                g = choi(GadParams(p, gamma))
                return float(np.real(np.linalg.det(partial_transpose(g))))

            root = brentq(det_pt, 0.01, 0.999, xtol=1e-12)
            assert root == pytest.approx(p_n(gamma, 1), abs=1e-9)

    def test_kraus_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = as_kraus(random_cp_unital(rng))
            back = kraus_from_choi(choi(c))
            assert len(back.ops) <= 4
            assert np.abs(choi(back) - choi(c)).max() < 1e-10

    def test_rejects_non_cp(self):
        with pytest.raises(ValueError):
            kraus_from_choi(choi(UnitalChannel(T)))

    def test_rejects_negative_eigenvalue_beyond_input_tol(self):
        e11 = np.diag([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="not completely positive"):
            kraus_from_choi(PSI_PLUS - 5e-10 * e11)


class TestPtm:
    def test_unital_block(self):
        expected = np.eye(4)
        expected[1:, 1:] = T
        assert np.array_equal(ptm(UnitalChannel(T)), expected)

    def test_gad_closed_form(self):
        # t = (0, 0, p (2 gamma - 1)), T = diag(sqrt(1-p), sqrt(1-p), 1-p)
        p, gamma = 0.4, 0.3
        r = ptm(GadParams(p, gamma))
        expected = np.diag([1.0, np.sqrt(1 - p), np.sqrt(1 - p), 1 - p])
        expected[3, 0] = p * (2 * gamma - 1)
        assert np.abs(r - expected).max() < 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_gad_closed_form_matches_kraus_form(self, p, gamma):
        c = GadParams(p, gamma)
        assert np.abs(ptm(c) - ptm(gad_kraus(c))).max() <= 1e-15

    def test_kraus_form_of_unital_channel(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            c = random_cp_unital(rng)
            assert np.abs(ptm(as_kraus(c)) - ptm(c)).max() < 1e-12

    def test_composition_is_matrix_product(self):
        rng = np.random.default_rng(61)

        def draw():
            if rng.uniform() < 0.5:
                return gad_kraus(GadParams(*rng.uniform(0, 1, 2)))
            return as_kraus(random_cp_unital(rng))

        for _ in range(50):
            a, b = draw(), draw()
            assert np.abs(ptm(compose_kraus(a, b)) - ptm(a) @ ptm(b)).max() < 1e-14


class TestChannelPower:
    def test_first_power_is_identity_operation(self):
        c = UnitalChannel(T)
        assert np.abs(channel_power(c, 1).t - c.t).max() == 0.0

    def test_diagonal_cube_norm(self):
        out = channel_power(UnitalChannel(LAM), 3)
        assert trace_norm(out.t) == pytest.approx(0.73**3 + 2 * 0.5**3, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            channel_power(UnitalChannel(LAM), 0)

    def test_gad_square_matches_double_application(self):
        rng = np.random.default_rng(5)
        c = GadParams(0.45, 0.3)
        squared = channel_power(c, 2)
        kraus = gad_kraus(c)
        for _ in range(20):
            rho = random_density(rng)
            twice = apply_kraus(kraus, apply_kraus(kraus, rho))
            assert np.abs(apply_kraus(squared, rho) - twice).max() < 1e-10

    def test_power_keeps_kraus_small_and_complete(self):
        c = GadParams(0.3, 0.25)
        out = channel_power(c, 6)
        assert len(out.ops) <= 4
        total = sum(e.conj().T @ e for e in out.ops)
        assert np.abs(total - IDENTITY_2).max() < 1e-9

    def test_representation_consistency(self):
        # powering the Bloch matrix and powering the Kraus set give one Choi
        rng = np.random.default_rng(6)
        for _ in range(10):
            c = random_cp_unital(rng)
            kr = as_kraus(c)
            for n in (2, 3):
                via_t = choi(channel_power(c, n))
                via_k = choi(channel_power(kr, n))
                assert np.abs(via_t - via_k).max() < 1e-10


class TestCptTetrahedron:
    def test_diagonal_cp_iff_tetrahedron(self):
        # oracle: complete positivity of the diagonal channel == PSD Choi
        rng = np.random.default_rng(7)
        checked_in = checked_out = 0
        while checked_in < 40 or checked_out < 40:
            lam = rng.uniform(-1, 1, 3)
            inside = in_cpt_tetrahedron(lam, tol=-1e-9)
            outside = not in_cpt_tetrahedron(lam, tol=1e-9)
            if not (inside or outside):
                continue
            psd = np.linalg.eigvalsh(choi(UnitalChannel(np.diag(lam)))).min() > -1e-10
            assert psd == inside
            checked_in += inside
            checked_out += outside


class TestPauliDecompose:
    def test_identity(self):
        assert np.allclose(pauli_decompose((1.0, 1.0, 1.0)), [1, 0, 0, 0])

    def test_total_depolarizing(self):
        assert np.allclose(pauli_decompose((0.0, 0.0, 0.0)), [0.25] * 4)

    def test_z_projection(self):
        assert np.allclose(pauli_decompose((0.0, 0.0, 1.0)), [0.5, 0, 0, 0.5])

    def test_reconstruction_on_paulis(self):
        from noisegauge.channels import PAULIS

        rng = np.random.default_rng(8)
        for _ in range(100):
            lam = rng.uniform(-1, 1, 3)
            weights = pauli_decompose(lam)
            for j, sigma in enumerate(PAULIS):
                target = (1.0 if j == 0 else lam[j - 1]) * sigma
                recon = sum(
                    weights[i] * PAULIS[i] @ sigma @ PAULIS[i] for i in range(4)
                )
                assert np.abs(recon - target).max() < 1e-12


class TestJson:
    def test_unital_roundtrip(self):
        c = UnitalChannel(T)
        data = channel_to_json(c)
        assert data["kind"] == "unital" and len(data["t"]) == 9
        back = channel_from_json(data)
        assert np.abs(back.t - c.t).max() == 0.0

    def test_gad_roundtrip(self):
        data = channel_to_json(GadParams(0.25, 0.75))
        assert data == {"kind": "gad", "p": 0.25, "gamma": 0.75}
        back = channel_from_json(data)
        assert (back.p, back.gamma) == (0.25, 0.75)

    def test_kraus_roundtrip(self):
        c = gad_kraus(GadParams(0.3, 0.4))
        data = channel_to_json(c)
        assert data["kind"] == "kraus"
        assert all(len(op) == 4 and len(op[0]) == 2 for op in data["ops"])
        back = channel_from_json(data)
        assert all(
            np.abs(a - b).max() < 1e-15 for a, b in zip(back.ops, c.ops)
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            channel_from_json({"kind": "qutrit"})


def test_compose_kraus_matches_sequential_application():
    rng = np.random.default_rng(9)
    c1 = gad_kraus(GadParams(0.2, 0.6))
    c2 = gad_kraus(GadParams(0.7, 0.1))
    both = compose_kraus(c1, c2)
    for _ in range(10):
        rho = random_density(rng)
        assert np.abs(
            apply_kraus(both, rho) - apply_kraus(c1, apply_kraus(c2, rho))
        ).max() < 1e-10
