"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass line on success; a failed assertion is the fail
line.  Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import math

import numpy as np

from helpers import channel_power, n_c_iso_iterated, random_cp_unital, random_density, random_rotation
from noisegauge import (
    FilterCandidate,
    GadParams,
    UnitalChannel,
    amend_boundary_s1,
    amend_order,
    amplification,
    as_kraus,
    attenuation,
    ebn_member,
    gad_amendable,
    gad_kraus,
    mu_c_gad,
    mu_c_gad_squared,
    mu_c_search,
    mu_c_unital,
    mu_given_rho0,
    mu_vs_vz,
    n_c,
    n_c_iso,
    p_n,
    pauli_decompose,
    pbar,
    pbarbar,
    sandwich,
)
from noisegauge.cli import main
from noisegauge.linalg import polar_decompose, trace_norm

SQRT2 = math.sqrt(2.0)
LAM = np.diag([0.73, 0.5, 0.5])
SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
T = SWAP_XY @ LAM
TBAR = (T + T.T) / 2
LAM3 = np.diag([0.91, 0.6, 0.55])
T3 = SWAP_XY @ LAM3
T3BAR = (T3 + T3.T) / 2


def _done(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_trace_norm_fixtures():
    cases = [
        (trace_norm(LAM), 1.73, 1e-9),
        (trace_norm(LAM @ LAM), 1.0329, 1e-4),
        (trace_norm(np.linalg.matrix_power(LAM, 3)), 0.6389, 1e-3),
        (trace_norm(T @ T), 0.98, 1e-9),
        (trace_norm(TBAR @ TBAR), 1.0065, 1e-4),
        (trace_norm(np.linalg.matrix_power(T3, 3)), 0.9908, 1e-3),
        (trace_norm(np.linalg.matrix_power(T3BAR, 3)), 1.0269, 1e-2),
    ]
    for got, expected, tol in cases:
        assert abs(got - expected) <= tol, (got, expected, tol)
    _done(1, "seven trace-norm fixtures at stated tolerances")


def test_criterion_02_isotropic_threshold_exact_solve():
    got = mu_given_rho0(UnitalChannel(np.eye(3)), np.eye(2) / 2)
    assert abs(got - 2 / 3) <= 1e-5
    _done(2, "identity-channel threshold 2/3 via the partial-transpose route")


def test_criterion_03_unital_closed_form_vs_search():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        c = random_cp_unital(rng)
        expected = mu_c_unital(c)
        got = mu_c_search(as_kraus(c)).value
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-3, worst
    _done(3, f"closed form vs multistart search on 200 channels (worst {worst:.2e})")


def test_criterion_04_upper_bound():
    rng = np.random.default_rng(4)
    bound = 2 / 3 + 1e-6
    for _ in range(200):
        assert mu_c_unital(random_cp_unital(rng)) <= bound
    for _ in range(100):
        assert mu_c_gad(rng.uniform(), rng.uniform()) <= bound
    for _ in range(20):
        c = random_cp_unital(rng)
        assert mu_c_search(as_kraus(c)).value <= bound
    for _ in range(50):
        rotation = UnitalChannel(random_rotation(rng))
        assert abs(mu_c_unital(rotation) - 2 / 3) <= 1e-5
    _done(4, "no random channel exceeds 2/3 + 1e-6; rotations reach 2/3")


def test_criterion_05_order_fixtures_and_polar_bound():
    assert n_c(UnitalChannel(LAM), cap=64).n == 3
    assert n_c(UnitalChannel(T), cap=64).n == 2
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert n_c(UnitalChannel(random_rotation(rng)), cap=64).n is None
    for _ in range(200):
        c = random_cp_unital(rng)
        _, positive = polar_decompose(c.t)
        assert (
            n_c(UnitalChannel(positive), cap=48).order_key()
            >= n_c(c, cap=48).order_key()
        )
    _done(5, "order fixtures (3, 2, unbounded) and polar-form bound on 200 channels")


def test_criterion_06_non_convexity_witnesses():
    # order-2 witness pair and its escaping mixture
    assert ebn_member(UnitalChannel(T), 2)
    assert ebn_member(UnitalChannel(T.T), 2)
    assert not ebn_member(UnitalChannel(TBAR), 2)
    # order-3 witness pair
    assert ebn_member(UnitalChannel(T3), 3)
    assert ebn_member(UnitalChannel(T3.T), 3)
    assert not ebn_member(UnitalChannel(T3BAR), 3)
    # mixtures of positive-semidefinite members stay members
    rng = np.random.default_rng(6)
    for order in (2, 3):
        done = 0
        while done < 100:
            lam_a, lam_b = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
            if (lam_a**order).sum() > 1 or (lam_b**order).sum() > 1:
                continue
            done += 1
            ra, rb = random_rotation(rng), random_rotation(rng)
            a = ra @ np.diag(lam_a) @ ra.T
            b = rb @ np.diag(lam_b) @ rb.T
            w = rng.uniform()
            mix = np.linalg.matrix_power(w * a + (1 - w) * b, order)
            assert trace_norm(mix) <= 1 + 1e-9
    _done(6, "order-2/3 witnesses plus positive-form mixing closure, 100 pairs each")


def test_criterion_07_damping_closed_forms_vs_oracles():
    vz = np.linspace(-1.0, 1.0, 801)
    worst_search = 0.0
    worst_grid = 0.0
    for p in np.linspace(0.0, 1.0, 40):
        for gamma in np.linspace(0.0, 0.5, 20):
            closed = mu_c_gad(float(p), float(gamma))
            grid_min = min(mu_vs_vz(float(p), float(gamma), float(v)) for v in vz)
            worst_grid = max(worst_grid, abs(grid_min - closed))
            got = mu_c_search(as_kraus(GadParams(float(p), float(gamma)))).value
            worst_search = max(worst_search, abs(got - closed))
    assert worst_search <= 1e-3, worst_search
    assert worst_grid <= 1e-4, worst_grid
    assert mu_c_gad(2 * (SQRT2 - 1), 0.5) <= 1e-6
    assert mu_c_gad_squared(2 - SQRT2, 0.5) <= 1e-6
    for gamma in np.linspace(0.02, 0.5, 20):
        assert abs(
            mu_c_gad(pbar(float(gamma)), float(gamma))
            - mu_c_gad_squared(pbarbar(float(gamma)), float(gamma))
        ) <= 1e-9
    _done(
        7,
        f"40x20 closed-vs-search (worst {worst_search:.2e}), axis-minimization "
        f"(worst {worst_grid:.2e}), vanishing points, 20-point cross-identity",
    )


def test_criterion_08_damping_band_map():
    from noisegauge import choi
    from noisegauge.separability import EB_TOL, min_pt_eigenvalue

    disagreements = 0
    for p in np.linspace(0.0, 1.0, 25):
        for gamma in np.linspace(0.0, 1.0, 25):
            edges = [p_n(float(gamma), n) for n in range(1, 9)]
            if min(abs(float(p) - e) for e in edges) <= 1e-6:
                continue
            closed = n_c(GadParams(float(p), float(gamma)), cap=8)
            brute = n_c(as_kraus(GadParams(float(p), float(gamma))), cap=8)
            if closed.n == brute.n:
                continue
            if closed.proven_divergent and brute.n is not None:
                # On the zero-temperature edge the iterates approach the
                # breaking limit without reaching it; a finite answer there is
                # admissible only as a boundary call inside the tolerance.
                low = min_pt_eigenvalue(choi(channel_power(
                    GadParams(float(p), float(gamma)), brute.n)))
                if -EB_TOL <= low < 0.0:
                    continue
            disagreements += 1
    assert disagreements == 0
    for gamma in np.linspace(0.0, 1.0, 21):
        for n in (1, 2, 3, 5, 8):
            assert abs(p_n(float(gamma), n) - p_n(float(1 - gamma), n)) <= 1e-12
    _done(8, "closed bands match iterated route on 25x25 grid; band symmetry 1e-12")


def test_criterion_09_amendability():
    # fixture: swap-composed channel, inverse-rotation filter
    base = n_c(UnitalChannel(T), cap=16)
    filtered = amend_order(UnitalChannel(T), FilterCandidate.orthogonal(SWAP_XY), cap=16)
    assert (base.n, filtered.n) == (2, 3)

    # search region covers the closed-form flip-filter band
    s1 = FilterCandidate.pauli(1)
    r2r1 = FilterCandidate.r2r1()
    gammas = np.linspace(0.5 / 60, 0.5, 60)
    ps = np.linspace(0.0, 1.0, 60)
    region_cells = 0
    missed = 0
    for gamma in gammas:
        low = amend_boundary_s1(float(gamma))
        high = p_n(float(gamma), 2)
        for p in ps:
            if not (low <= float(p) < high):
                continue
            region_cells += 1
            found = gad_amendable(float(p), float(gamma), s1) or gad_amendable(
                float(p), float(gamma), r2r1
            )
            missed += not found
    assert region_cells > 0
    assert missed <= 0.02 * region_cells, (missed, region_cells)

    assert abs(amend_boundary_s1(1e-6) - (math.sqrt(5) - 1) / 2) <= 1e-3

    # interleaved-filter threshold never exceeds the two-use threshold
    slack = 5e-5  # accuracy margin of the Bloch-ball search
    for gamma, filt in ((0.1, s1), (0.4, r2r1)):
        for p in np.linspace(0.0, 1.0, 21):
            filtered_channel = sandwich(gad_kraus(GadParams(float(p), gamma)), filt)
            lhs = mu_c_search(filtered_channel).value
            rhs = mu_c_gad_squared(float(p), gamma)
            assert lhs <= rhs + slack, (gamma, p, lhs, rhs)
    _done(
        9,
        f"order 2 -> 3 fixture; region coverage ({missed}/{region_cells} boundary "
        "misses); boundary limit; interleaved threshold ordering",
    )


def test_criterion_10_gaussian_bands():
    for k in np.linspace(0.02, 0.98, 50):
        for n0 in np.linspace(0.0, 1.2, 50):
            c = attenuation(float(k), float(n0))
            assert n_c_iso(c, 16).n == n_c_iso_iterated(c, 16).n
    for k in np.linspace(1.02, 3.0, 50):
        for n0 in np.linspace(0.0, 1.2, 50):
            c = amplification(float(k), float(n0))
            assert n_c_iso(c, 16).n == n_c_iso_iterated(c, 16).n
    for k in (0.3, 0.5, 0.85):
        assert n_c_iso(attenuation(k, k * k), 16).n == 1
        assert n_c_iso(attenuation(k, k**4 / (1 + k * k)), 16).n == 2
    for k in (1.3, SQRT2, 2.5):
        assert n_c_iso(amplification(k, 1.0), 16).n == 1
        assert n_c_iso(amplification(k, 1.0 / (1 + k * k)), 16).n == 2
    _done(10, "closed bands equal iterate-and-test on two 50x50 grids; boundary fixtures")


def test_criterion_11a_threshold_convex_in_prepared_state():
    rng = np.random.default_rng(111)
    done = 0
    while done < 100:
        c = random_cp_unital(rng)
        if mu_c_unital(c) == 0.0:
            continue
        done += 1
        rho_a, rho_b = random_density(rng), random_density(rng)
        w = rng.uniform()
        lhs = mu_given_rho0(c, w * rho_a + (1 - w) * rho_b)
        rhs = w * mu_given_rho0(c, rho_a) + (1 - w) * mu_given_rho0(
            c, rho_b
        )
        assert lhs <= rhs + 3e-5
    _done("11a", "threshold convex in the prepared state on 100 instances")


def test_criterion_11b_conjugation_weight_reconstruction():
    from noisegauge.channels import PAULIS

    rng = np.random.default_rng(112)
    for _ in range(100):
        lam = rng.uniform(-1, 1, 3)
        weights = pauli_decompose(lam)
        for j, sigma in enumerate(PAULIS):
            target = (1.0 if j == 0 else lam[j - 1]) * sigma
            recon = sum(weights[i] * PAULIS[i] @ sigma @ PAULIS[i] for i in range(4))
            assert np.abs(recon - target).max() <= 1e-12
    _done("11b", "diagonal-channel weight reconstruction exact on 100 triples")


def test_criterion_11c_ensemble_bounds():
    # As stated this asserts min_j mu_j <= mu_c(mixture) <= weighted bound.
    # The upper bound holds; the lower bound is FALSE in general: mixing the
    # sigma_x and sigma_y conjugations (each with threshold 2/3) yields the
    # Bloch action diag(0, 0, -1), which is already entanglement breaking.
    # Random ensembles reproduce such violations, so this check fails; it is
    # kept in its stated form deliberately rather than weakened.
    rng = np.random.default_rng(113)
    for _ in range(100):
        c1, c2 = random_cp_unital(rng), random_cp_unital(rng)
        w = rng.uniform()
        mixed = UnitalChannel(w * c1.t + (1 - w) * c2.t)
        mu1, mu2 = mu_c_unital(c1), mu_c_unital(c2)
        mu_mix = mu_c_unital(mixed)
        weights = np.array([w, 1 - w])
        mus = np.array([mu1, mu2])
        upper = float(
            (mus * weights / (1 - mus)).sum() / (weights / (1 - mus)).sum()
        )
        assert mu_mix <= upper + 1e-9, "upper ensemble bound violated"
        assert min(mu1, mu2) - 1e-9 <= mu_mix, (
            "lower ensemble bound violated (expected: see the sigma_x/sigma_y "
            f"mixing counterexample): min={min(mu1, mu2):.6f} mix={mu_mix:.6f}"
        )
    _done("11c", "two-sided ensemble bounds on 100 ensembles")


def test_criterion_12_determinism(tmp_path, capsys):
    sweep_args = [
        "sweep", "fig3", "--out", "", "--steps", "8",
    ]
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"sweep_{tag}.csv"
        sweep_args[3] = str(path)
        assert main(list(sweep_args)) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

    channel = json.dumps({"kind": "unital", "t": [0, 0.5, 0, 0.73, 0, 0, 0, 0, 0.5]})
    amend_outs = []
    for _ in range(2):
        assert main(["amend", channel, "--budget", "27", "--seed", "9", "--cap", "8"]) == 0
        amend_outs.append(capsys.readouterr().out)
    assert amend_outs[0] == amend_outs[1]
    _done(12, "sweep and amend outputs byte-identical across reruns")
