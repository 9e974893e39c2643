import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import random_rotation
import noisegauge
from noisegauge import partial_transpose, polar_decompose, trace_norm
from noisegauge.channels import PSI_PLUS
from noisegauge.linalg import as_hermitian4

LAM = np.diag([0.73, 0.5, 0.5])
SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
T = SWAP_XY @ LAM
TBAR = (T + T.T) / 2


class TestTraceNorm:
    def test_diagonal_fixture(self):
        assert trace_norm(LAM) == pytest.approx(1.73, abs=1e-12)

    def test_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_mixture_square(self):
        # diagonal of TBAR^2 is (0.615^2, 0.615^2, 0.25); rounds to 1.01
        expected = 2 * 0.615**2 + 0.25
        got = trace_norm(TBAR @ TBAR)
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 2) == 1.01

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.normal(size=(3, 3))
            left, right = random_rotation(rng), random_rotation(rng)
            assert trace_norm(left @ m @ right) == pytest.approx(
                trace_norm(m), abs=1e-10
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            trace_norm(np.full((3, 3), np.nan))


class TestPolarDecompose:
    def test_swap_fixture(self):
        orth, psd = polar_decompose(T)
        assert np.abs(orth - SWAP_XY).max() < 1e-12
        assert np.abs(psd - LAM).max() < 1e-12

    def test_identity(self):
        orth, psd = polar_decompose(np.eye(3))
        assert np.abs(orth - np.eye(3)).max() < 1e-12
        assert np.abs(psd - np.eye(3)).max() < 1e-12

    def test_reflection(self):
        refl = np.diag([-1.0, 1.0, 1.0])
        orth, psd = polar_decompose(refl)
        assert np.abs(orth - refl).max() < 1e-12
        assert np.abs(psd - np.eye(3)).max() < 1e-12

    def test_rank_deficient_is_consistent(self):
        m = np.array([[1.0, 0, 0], [0, 0.5, 0], [0, 0, 0]])
        orth, psd = polar_decompose(m)
        assert np.abs(orth @ orth.T - np.eye(3)).max() < 1e-10
        assert np.abs(orth @ psd - m).max() < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)))
    def test_reconstruction(self, m):
        orth, psd = polar_decompose(m)
        assert np.abs(orth @ psd - m).max() < 1e-10
        assert np.abs(orth @ orth.T - np.eye(3)).max() < 1e-10
        assert np.linalg.eigvalsh(psd).min() > -1e-10


class TestPartialTranspose:
    def test_max_entangled_eigenvalues(self):
        # oracle: PT of psi+ is half the swap operator
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1.0
        expected = np.sort(np.linalg.eigvalsh(swap / 2))
        got = np.sort(np.linalg.eigvalsh(partial_transpose(PSI_PLUS)))
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sig = b @ b.conj().T
        sig /= np.trace(sig)
        assert np.abs(
            partial_transpose(np.kron(rho, sig)) - np.kron(rho, sig.T)
        ).max() < 1e-14

    def test_maximally_mixed(self):
        assert np.abs(partial_transpose(np.eye(4) / 4) - np.eye(4) / 4).max() == 0.0

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            pt = partial_transpose(h)
            assert np.abs(partial_transpose(pt) - h).max() == 0.0
            assert np.trace(pt) == np.trace(h)
            assert np.abs(pt - pt.conj().T).max() == 0.0


class TestAsHermitian4:
    def test_accepts_deviation_within_input_tol(self):
        g = np.eye(4, dtype=complex) / 4
        g[0, 1] += 5e-11
        assert np.array_equal(as_hermitian4(g), g)



def _small_literals(tree: ast.AST) -> list:
    """Float literals in (0, 1e-8] under `tree`."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < node.value <= 1e-8
    ]


class TestTolerancePolicy:
    """Every slack in the package is one of three names in ``linalg``."""

    MODULES = sorted(Path(noisegauge.__file__).parent.glob("*.py"))

    def test_only_linalg_names_slacks(self):
        for path in self.MODULES:
            names = {
                node.id for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id.endswith(("_TOL", "_GUARD", "_TIE"))
            }
            expected = {"INPUT_TOL", "EB_TOL", "ROUND_TOL"} if path.stem == "linalg" else set()
            assert names == expected, path.name

    def test_no_small_float_literal_outside_policy(self):
        """Allowed: ``linalg`` itself, the stopping rule ``measures.FATOL``,
        and the test tolerances of the fixture table ``cli._verify_fixtures``."""
        for path in self.MODULES:
            if path.stem == "linalg":
                continue
            tree = ast.parse(path.read_text())
            allowed = set()
            for node in ast.walk(tree):
                fatol = path.stem == "measures" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "FATOL" for t in node.targets)
                fixtures = path.stem == "cli" and isinstance(node, ast.FunctionDef) \
                    and node.name == "_verify_fixtures"
                if fatol or fixtures:
                    allowed.update(map(id, _small_literals(node)))
            stray = [n.lineno for n in _small_literals(tree) if id(n) not in allowed]
            assert stray == [], f"{path.name}: float literals <= 1e-8 on lines {stray}"
