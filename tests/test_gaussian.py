import math

import numpy as np
import pytest

from helpers import (
    GaussianChannel,
    compose_gaussian,
    eb_split_feasible,
    n_c_iso_iterated,
    to_triplet,
)
from noisegauge import (
    IsoChannel,
    amplification,
    attenuation,
    is_eb_iso,
    n_c_amplification,
    n_c_attenuation,
    n_c_iso,
)

SQRT2 = math.sqrt(2.0)


def random_cpt_triplet(rng) -> GaussianChannel:
    k = rng.normal(scale=0.8, size=(2, 2))
    l = rng.normal(size=2)
    b = rng.normal(size=(2, 2))
    b = b @ b.T  # symmetric PSD core
    # pad the noise until the positivity condition comfortably holds
    need = abs(1 - np.linalg.det(k)) / 2
    b = b + (need + rng.uniform(0.05, 1.0)) * np.eye(2)
    return GaussianChannel(k, l, b)


class TestTriplets:
    def test_attenuation_fixture(self):
        c = to_triplet(attenuation(0.5, 0.0))
        assert np.allclose(c.beta, 0.375 * np.eye(2))
        assert np.allclose(c.k_mat, 0.5 * np.eye(2))
        assert np.allclose(c.l_vec, 0.0)

    def test_amplification_fixture(self):
        c = to_triplet(amplification(2.0, 0.0))
        assert np.allclose(c.beta, 1.5 * np.eye(2))

    def test_identity_limit(self):
        for k in (0.999999, 1.000001):
            family = "attenuation" if k < 1 else "amplification"
            c = to_triplet(IsoChannel(family, k, 0.0))
            assert np.abs(c.beta).max() < 1e-5

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            attenuation(1.2, 0.1)
        with pytest.raises(ValueError):
            amplification(0.9, 0.1)
        with pytest.raises(ValueError):
            attenuation(0.5, -0.1)
        with pytest.raises(ValueError):
            IsoChannel("thermal", 0.5, 0.1)

    def test_cpt_validation(self):
        # zero noise with non-symplectic K violates complete positivity
        with pytest.raises(ValueError):
            GaussianChannel(0.5 * np.eye(2), np.zeros(2), np.zeros((2, 2)))

    def test_json_roundtrip(self):
        c = attenuation(0.25, 0.7)
        assert IsoChannel.from_json(c.to_json()) == c


class TestCompose:
    def test_identity_neutral(self):
        identity = GaussianChannel(np.eye(2), np.zeros(2), np.zeros((2, 2)))
        c = to_triplet(attenuation(0.7, 0.3))
        for pair in ((identity, c), (c, identity)):
            out = compose_gaussian(*pair)
            assert np.allclose(out.k_mat, c.k_mat)
            assert np.allclose(out.beta, c.beta)

    def test_attenuation_self_composition(self):
        k, n0 = 0.7, 0.3
        out = compose_gaussian(to_triplet(attenuation(k, n0)), to_triplet(attenuation(k, n0)))
        expected = to_triplet(attenuation(k * k, n0 * (1 + k * k)))
        assert np.allclose(out.k_mat, expected.k_mat, atol=1e-14)
        assert np.allclose(out.beta, expected.beta, atol=1e-14)

    def test_n_fold_attenuation_parameters(self):
        k, n0, n = 0.6, 0.2, 5
        current = to_triplet(attenuation(k, n0))
        base = to_triplet(attenuation(k, n0))
        for _ in range(n - 1):
            current = compose_gaussian(current, base)
        geo = sum(k ** (2 * j) for j in range(n))
        expected = to_triplet(attenuation(k**n, n0 * geo))
        assert np.allclose(current.k_mat, expected.k_mat, atol=1e-12)
        assert np.allclose(current.beta, expected.beta, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            a, b, c = (random_cpt_triplet(rng) for _ in range(3))
            left = compose_gaussian(compose_gaussian(a, b), c)
            right = compose_gaussian(a, compose_gaussian(b, c))
            assert np.abs(left.k_mat - right.k_mat).max() < 1e-12
            assert np.abs(left.l_vec - right.l_vec).max() < 1e-12
            assert np.abs(left.beta - right.beta).max() < 1e-12


class TestEbCriteria:
    def test_attenuation_boundary_inclusive(self):
        assert is_eb_iso(attenuation(0.5, 0.25))
        assert not is_eb_iso(attenuation(0.5, 0.2))

    def test_amplification_boundary(self):
        for k in (1.5, 2.0, 10.0):
            assert is_eb_iso(amplification(k, 1.0))
            assert not is_eb_iso(amplification(k, 0.999))

    def test_split_test_matches_scalar_criterion(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            if rng.uniform() < 0.5:
                c = attenuation(rng.uniform(0.05, 0.95), rng.uniform(0, 1.2))
            else:
                c = amplification(rng.uniform(1.05, 3.0), rng.uniform(0, 1.5))
            assert eb_split_feasible(to_triplet(c)) == is_eb_iso(c)


class TestOrderBands:
    def test_attenuation_fixtures(self):
        assert n_c_attenuation(0.5, 0.25, 16).n == 1
        assert n_c_attenuation(0.5, 0.05, 16).n == 2
        zero = n_c_attenuation(0.5, 0.0, 16)
        assert zero.n is None and zero.proven_divergent

    def test_amplification_fixtures(self):
        assert n_c_amplification(SQRT2, 1.0, 16).n == 1
        assert n_c_amplification(SQRT2, 1.0 / 3.0, 16).n == 2
        assert n_c_amplification(2.0, 0.5, 16).n == 2

    def test_closed_form_matches_iteration(self):
        for k in np.linspace(0.08, 0.92, 12):
            for n0 in np.linspace(0.0, 1.0, 12):
                c = attenuation(float(k), float(n0))
                assert n_c_iso(c, 16).n == n_c_iso_iterated(c, 16).n
        for k in np.linspace(1.08, 2.9, 12):
            for n0 in np.linspace(0.0, 1.2, 12):
                c = amplification(float(k), float(n0))
                assert n_c_iso(c, 16).n == n_c_iso_iterated(c, 16).n

    def test_bands_tile_noise_axis(self):
        # thresholds strictly decrease with n, so bands partition (0, inf)
        for family, k in (("attenuation", 0.6), ("amplification", 1.7)):
            partials = [sum(k ** (2 * j) for j in range(n)) for n in range(1, 17)]
            tops = [k ** (2 * n) if family == "attenuation" else 1.0 for n in range(1, 17)]
            cuts = [top / partial for top, partial in zip(tops, partials)]
            assert all(a > b for a, b in zip(cuts, cuts[1:]))
            for n0 in np.linspace(1e-4, 1.4, 57):
                orders = n_c_iso(IsoChannel(family, k, float(n0)), 64)
                assert orders.n is not None

    @pytest.mark.parametrize("family,k,n0,order", [
        ("amplification", 1e10, 1e-30, 3),
        ("amplification", 1.5, 1e-30, None),
        ("attenuation", 1e-7, 1e-15, 2),
    ])
    def test_tiny_thresholds_are_compared_relatively(self, family, k, n0, order):
        # thresholds far below ROUND_TOL: an absolute slack would absorb them
        assert n_c_iso(IsoChannel(family, k, n0), 64).n == order

    def test_amplification_boundary_limits(self):
        # strong amplification: the order-2 onset collapses to zero noise
        assert 1.0 / (1.0 + 1000.0**2) < 1e-6
        # weak amplification: the order-n onset approaches 1/n
        k = 1.0 + 1e-9
        for n in (1, 2, 3, 6):
            onset = 1.0 / sum(k ** (2 * j) for j in range(n))
            assert onset == pytest.approx(1.0 / n, abs=1e-6)

    def test_iterated_route_flags_noiseless_divergence(self):
        res = n_c_iso_iterated(attenuation(0.5, 0.0), 8)
        assert res.n is None and res.proven_divergent
