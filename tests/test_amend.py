import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    QUATERNIONS,
    channel_power,
    filter_unitary,
    filtered_scan,
    in_cpt_tetrahedron,
    kraus_channels,
    kraus_filtered,
    kraus_gad_amendable,
    kraus_sandwich,
    loop_search_filter,
    near_eb_mixtures,
    order_and_margin,
    random_cp_unital,
    random_rotation,
    rotated_kraus,
    rotation_from_quaternion,
    su2_from_so3,
)
from noisegauge import (
    FilterCandidate,
    GadParams,
    KrausChannel,
    UnitalChannel,
    amend_order,
    apply_filter,
    gad_amendable,
    gad_kraus,
    is_amendable2,
    is_eb,
    n_c,
    sandwich,
    search_filter,
)
import noisegauge.amend as amend_module
from noisegauge.amend import _axis_rotations, _cube_root_floor, _euler_lattice, _filter_matrix
from noisegauge.channels import PAULIS, as_kraus, ptm
from noisegauge.gad import amend_boundary_s1, p_n
from noisegauge.linalg import ROUND_TOL, polar_decompose
from noisegauge.measures import _order_scan
from noisegauge.separability import _scan_base, decide_eb, ptm_min_pt_eigenvalues

LAM = np.diag([0.73, 0.5, 0.5])
SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
T = SWAP_XY @ LAM
SWAP_FILTER = FilterCandidate.orthogonal(SWAP_XY)


def rot(axis, angle):
    """Right-handed rotation about a coordinate axis (0=x, 1=y, 2=z)."""
    return _axis_rotations(axis, [angle])[0]


def rotated_damping(rng, band: int):
    """A damping channel of order `band`, rotated on both sides by random
    SU(2) elements and given in Kraus form."""
    gamma = rng.uniform(0.05, 0.95)
    p = rng.uniform(p_n(gamma, band), p_n(gamma, band - 1))
    u, v = (su2_from_so3(random_rotation(rng)) for _ in range(2))
    return rotated_kraus(gad_kraus(GadParams(p, gamma)), u, v)


NEAR_EDGE = st.one_of(st.integers(-4, 4), st.sampled_from(
    [sign * d for sign in (-1.0, 1.0) for d in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13)]))


def _off_edge(x: float, where) -> float:
    """x moved k ulps for an int `where`, by `where` itself for a float."""
    if isinstance(where, float):
        return x + where
    for _ in range(abs(where)):
        x = math.nextafter(x, math.copysign(math.inf, where))
    return x


@st.composite
def near_order_one(draw):
    """A channel within a few ulps, or 1e-9 to 1e-13, of the order-1 edge:
    the damping channel at p_n(gamma, 1) or the unital channel diag(0.5,
    0.3, 0.2) scaled to trace norm 1, as ``GadParams`` or ``UnitalChannel``,
    in Kraus form, or in Kraus form rotated on both sides."""
    where = draw(NEAR_EDGE)
    if draw(st.booleans()):
        gamma = draw(st.floats(0.05, 0.95))
        c = GadParams(min(1.0, _off_edge(p_n(gamma, 1), where)), gamma)
    else:
        c = UnitalChannel(np.diag([0.5, 0.3, 0.2]) * _off_edge(1.0, where))
    form = draw(st.sampled_from(["params", "kraus", "rotated"]))
    if form == "params":
        return c
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v = (su2_from_so3(random_rotation(rng)) for _ in range(2))
    return as_kraus(c) if form == "kraus" else rotated_kraus(as_kraus(c), u, v)


def named_and_lattice(budget: int, seed: int) -> np.ndarray:
    """The Bloch rotations that ``search_filter`` scans before it refines,
    for a channel given in Kraus form: the named filters, then the seeded
    Euler lattice."""
    rng = np.random.default_rng(seed)
    k = _cube_root_floor(budget)
    axes = [rng.uniform(0.0, span / k) + np.arange(k) * (span / k)
            for span in (2 * math.pi, math.pi, 2 * math.pi)]
    named = [FilterCandidate(kind).bloch_matrix() for kind in ("s1", "s2", "s3", "r2r1")]
    return np.concatenate([named, _euler_lattice(*axes)])


def bloch_of_unitary(u):
    m = np.zeros((3, 3))
    for j, s in enumerate(PAULIS[1:]):
        img = u @ s @ u.conj().T
        for i, si in enumerate(PAULIS[1:]):
            m[i, j] = np.real(np.trace(si @ img)) / 2
    return m


class TestFilterCandidate:
    @pytest.mark.parametrize(
        "filt",
        [
            FilterCandidate.pauli(1),
            FilterCandidate.pauli(2),
            FilterCandidate.pauli(3),
            FilterCandidate.r2r1(),
            FilterCandidate.euler(0.3, 1.1, -0.7),
        ],
    )
    def test_unitary_matches_bloch_action(self, filt):
        assert np.abs(bloch_of_unitary(filter_unitary(filt)) - filt.bloch_matrix()).max() < 1e-12

    def test_r2r1_composition_order(self):
        # x quarter turn applied first, then y quarter turn
        expected = rot(1, np.pi / 2) @ rot(0, np.pi / 2)
        assert np.abs(FilterCandidate.r2r1().bloch_matrix() - expected).max() == 0.0

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3", "r2r1"])
    def test_bloch_matrix_is_a_fresh_array(self, kind):
        filt = FilterCandidate(kind)
        first = filt.bloch_matrix()
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(filt.bloch_matrix(), expected)
        assert filt.bloch_matrix() is not filt.bloch_matrix()

    @pytest.mark.parametrize("channel", [UnitalChannel(LAM), GadParams(0.61, 0.25)],
                             ids=["unital", "gad"])
    def test_search_scores_the_named_filters_first(self, monkeypatch, channel):
        # the scan of search_filter opens with s1, s2, s3, r2r1, in that
        # order; a unital channel scans its inverse polar rotation alone
        stacks, firsts = [], []

        def recording_scan(steps, cap, first=1):
            stacks.append(steps.copy())
            firsts.append(first)
            return _order_scan(steps, cap, first)

        monkeypatch.setattr(amend_module, "_order_scan", recording_scan)
        search_filter(channel, budget=8)
        base = _scan_base(channel)
        if isinstance(channel, UnitalChannel):
            polar = polar_decompose(base)[0].T
            assert [stack.tolist() for stack in stacks] == [[(polar @ base).tolist()]]
            assert firsts == [2]
            return
        named = [FilterCandidate(kind).bloch_matrix() for kind in ("s1", "s2", "s3", "r2r1")]
        assert np.array_equal(stacks[0][:4], _filter_matrix(np.array(named), base) @ base)
        # then one 3x3x3 stack per refinement round
        assert [len(stack) for stack in stacks[1:]] == [27] * amend_module._REFINE_ROUNDS
        # the channel is not EB, so no filtered step is, and every scan starts at order 2
        assert firsts == [2] * (1 + amend_module._REFINE_ROUNDS)

    @pytest.mark.parametrize("channel", [GadParams(0.9, 0.25), as_kraus(GadParams(0.9, 0.25))],
                             ids=["gad", "kraus"])
    def test_search_runs_no_scan_on_eb_channels(self, monkeypatch, channel):
        # a unitary filter keeps the order-1 decision, so every filter ties
        # at order 1 and the first named one wins without a scan
        def forbidden(*args, **kwargs):
            raise AssertionError("an EB channel needs no order scan")

        monkeypatch.setattr(amend_module, "_order_scan", forbidden)
        for budget in (8, 1000):
            report = search_filter(channel, cap=16, budget=budget)
            assert report.filter == FilterCandidate.pauli(1)
            assert (report.base_nc.n, report.filtered_nc.n, report.amendable) == (1, 1, False)
            assert amend_order(channel, FilterCandidate.euler(0.3, 1.1, -0.7), cap=16).n == 1

    def test_orthogonal_roundtrip(self):
        rng = np.random.default_rng(51)
        r = random_rotation(rng)
        filt = FilterCandidate.orthogonal(r)
        assert np.abs(bloch_of_unitary(filter_unitary(filt)) - r).max() < 1e-12

    def test_su2_from_so3_random(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            r = random_rotation(rng)
            u = su2_from_so3(r)
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
            assert np.abs(bloch_of_unitary(u) - r).max() < 1e-12

    def test_improper_orthogonal_has_no_unitary(self):
        with pytest.raises(ValueError):
            filter_unitary(SWAP_FILTER)
        kraus = as_kraus(UnitalChannel(LAM))
        for build in (lambda: apply_filter(SWAP_FILTER, kraus), lambda: sandwich(kraus, SWAP_FILTER)):
            with pytest.raises(ValueError, match="improper"):
                build()

    def test_improper_composes_with_unital(self):
        out = apply_filter(SWAP_FILTER, UnitalChannel(T))
        assert np.abs(out.t - LAM).max() < 1e-14

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            FilterCandidate.orthogonal(np.eye(3) * 1.1)

    def test_json_roundtrip(self):
        filt = FilterCandidate.euler(0.1, 0.2, 0.3)
        back = FilterCandidate.from_json(json.loads(json.dumps(filt.to_json())))
        assert back == filt


class TestIsAmendable2:
    def test_swap_fixture(self):
        assert is_amendable2(UnitalChannel(T), SWAP_FILTER)

    def test_unitary_never_amendable(self):
        rng = np.random.default_rng(53)
        c = UnitalChannel(random_rotation(rng))
        assert not is_amendable2(c, FilterCandidate.pauli(1))

    def test_gad_band_point(self):
        # gamma = 0.25: flip-filter band is [0.5924, p_2 = 0.6272)
        assert gad_amendable(0.61, 0.25, FilterCandidate.pauli(1))
        assert not gad_amendable(0.55, 0.25, FilterCandidate.pauli(1))
        assert not gad_amendable(0.75, 0.25, FilterCandidate.pauli(1))

    def test_gad_region_equals_filtered_channel_membership(self):
        # the region shortcut agrees with the literal two-use test on the
        # precomposed channel with the inverse filter
        rng = np.random.default_rng(56)
        for filt in (FilterCandidate.pauli(1), FilterCandidate.r2r1()):
            for _ in range(25):
                p, gamma = rng.uniform(0, 1), rng.uniform(0, 1)
                base = gad_kraus(GadParams(p, gamma))
                u = filter_unitary(filt)
                precomposed = KrausChannel(tuple(e @ u for e in base.ops))
                inverse = FilterCandidate.orthogonal(filt.bloch_matrix().T)
                assert gad_amendable(p, gamma, filt) == is_amendable2(precomposed, inverse)

    def test_gad_rotation_pair_sliver(self):
        # gamma = 0.4: the quarter-turn-pair band starts near 0.575, below
        # the flip-filter boundary (0.5868); both end at p_2 = 0.5918
        assert gad_amendable(0.58, 0.4, FilterCandidate.r2r1())
        assert not gad_amendable(0.58, 0.4, FilterCandidate.pauli(1))
        assert not gad_amendable(0.57, 0.4, FilterCandidate.r2r1())
        assert not gad_amendable(0.595, 0.4, FilterCandidate.r2r1())


class TestGadAmendableArrays:
    FILTERS = (FilterCandidate.pauli(1), FilterCandidate.r2r1())

    @staticmethod
    def points():
        ps, gs = [], []
        for gamma in (0.0, 0.5, 1.0):
            for p in (0.0, 1.0):
                ps.append(p)
                gs.append(gamma)
        for gamma in (0.05, 0.25, 0.4, 0.5, 0.8):
            edge = p_n(gamma, 2)
            for p in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)):
                ps.append(p)
                gs.append(gamma)
        for gamma in (0.05, 0.25, 0.4, 0.6):
            low = amend_boundary_s1(gamma)
            for p in (math.nextafter(low, 0.0), low, math.nextafter(low, 2.0)):
                ps.append(p)
                gs.append(gamma)
        return np.array(ps), np.array(gs)

    @pytest.mark.parametrize("filt", FILTERS)
    def test_matches_scalar_and_kraus_oracle(self, filt):
        ps, gs = self.points()
        stacked = gad_amendable(ps, gs, filt)
        assert stacked.dtype == bool and stacked.shape == ps.shape
        scalar = [gad_amendable(p, g, filt) for p, g in zip(ps.tolist(), gs.tolist())]
        oracle = [kraus_gad_amendable(p, g, filt) for p, g in zip(ps.tolist(), gs.tolist())]
        assert stacked.tolist() == scalar == oracle

    def test_band_edges(self):
        ps, gs = self.points()
        amendable = gad_amendable(ps, gs, FilterCandidate.pauli(1))
        edge = np.array([p_n(g, 2) for g in gs])
        assert not amendable[ps >= edge].any()
        assert not amendable[(gs == 0.0) | (gs == 1.0)].any()
        # the s1 band [amend_boundary_s1, p_2) holds its lower edge
        for gamma in (0.05, 0.25, 0.4, 0.6):
            low = amend_boundary_s1(gamma)
            assert gad_amendable(math.nextafter(low, 2.0), gamma, FilterCandidate.pauli(1))

    def test_broadcast_shape(self):
        ps = np.linspace(0.5, 0.7, 5)
        gs = np.linspace(0.1, 0.4, 3)
        grid = gad_amendable(ps[:, None], gs[None, :], FilterCandidate.pauli(1))
        assert grid.shape == (5, 3)
        for i, p in enumerate(ps.tolist()):
            for j, g in enumerate(gs.tolist()):
                assert grid[i, j] == gad_amendable(p, g, FilterCandidate.pauli(1))
        assert gad_amendable(np.array([]), 0.3, FilterCandidate.pauli(1)).shape == (0,)

    def test_scalar_returns_bool(self):
        for p in (0.61, np.float64(0.61), np.array(0.61), 0.3, 1.0):
            assert type(gad_amendable(p, 0.25, FilterCandidate.pauli(1))) is bool

    @pytest.mark.parametrize("bad", [(1.0 + 1e-12, 0.3), (0.5, -1e-12), (0.5, 1.5), (math.nan, 0.3)])
    def test_one_entry_out_of_range_raises(self, bad):
        ps = np.array([0.2, 0.6, bad[0], 0.9])
        gs = np.array([0.3, 0.3, bad[1], 0.3])
        with pytest.raises(ValueError, match="outside the unit square") as array_err:
            gad_amendable(ps, gs, FilterCandidate.pauli(1))
        with pytest.raises(ValueError) as point_err:
            GadParams(*bad)
        assert str(array_err.value) == str(point_err.value)

    @pytest.mark.parametrize("p", [0.3, 0.61, 0.99])
    def test_improper_filter_raises(self, p):
        improper = FilterCandidate.orthogonal(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError, match="improper"):
            gad_amendable(p, 0.25, improper)
        with pytest.raises(ValueError, match="improper"):
            gad_amendable(np.array([p, 0.5]), 0.25, improper)


class TestAmendOrder:
    def test_swap_fixture_reaches_three(self):
        assert amend_order(UnitalChannel(T), SWAP_FILTER).n == 3

    def test_identity_filter_keeps_order(self):
        identity = FilterCandidate.euler(0.0, 0.0, 0.0)
        assert amend_order(UnitalChannel(T), identity).n == n_c(UnitalChannel(T)).n

    def test_gad_band_reaches_higher_order(self):
        # gamma = 0.05, p = 0.63 sits between the flip boundary (0.6104) and
        # the order-2 band edge; the plain channel needs 4 uses
        p, gamma = 0.63, 0.05
        assert amend_boundary_s1(gamma) < p < p_n(gamma, 2)
        base = gad_kraus(GadParams(p, gamma))
        u = filter_unitary(FilterCandidate.pauli(1))
        precomposed = KrausChannel(tuple(e @ u for e in base.ops))
        filtered = amend_order(precomposed, FilterCandidate.pauli(1), cap=8)
        assert n_c(precomposed, cap=8).n == 2
        assert filtered.n == n_c(GadParams(p, gamma), cap=8).n == 4


class TestSearchFilter:
    def test_swap_fixture(self):
        report = search_filter(UnitalChannel(T), cap=16, budget=64, seed=42)
        assert report.base_nc.n == 2
        assert report.filtered_nc.order_key() >= 3
        assert report.amendable

    def test_total_depolarizing_not_amendable(self):
        report = search_filter(UnitalChannel(np.zeros((3, 3))), cap=8, budget=8, seed=1)
        assert report.base_nc.n == 1
        assert not report.amendable

    def test_eb_channels_stay_order_one(self):
        rng = np.random.default_rng(54)
        found = 0
        while found < 10:
            c = random_cp_unital(rng)
            if n_c(c, cap=4).n != 1:
                continue
            found += 1
            for filt in (FilterCandidate.pauli(2), FilterCandidate.euler(1.0, 0.5, 0.2)):
                assert amend_order(c, filt, cap=4).n == 1

    def test_ties_go_to_the_first_candidate(self):
        # EB at one use: every filter has order 1 and the same margin in exact
        # arithmetic, so the first named filter wins in either representation
        rng = np.random.default_rng(59)
        found = 0
        while found < 5:
            c = random_cp_unital(rng)
            if n_c(c, cap=4).n != 1:
                continue
            found += 1
            for channel in (c, as_kraus(c)):
                report = search_filter(channel, cap=4, budget=8, seed=found)
                assert report.filter == FilterCandidate.pauli(1)

    def test_deterministic_given_seed(self):
        a = search_filter(UnitalChannel(T), cap=16, budget=27, seed=7)
        b = search_filter(UnitalChannel(T), cap=16, budget=27, seed=7)
        assert a == b

    def test_rejects_unitary_input(self):
        with pytest.raises(ValueError):
            search_filter(UnitalChannel(np.eye(3)))

    @pytest.mark.parametrize(
        "channel",
        [
            GadParams(0.0, 0.3),
            KrausChannel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2))),
            UnitalChannel(bloch_of_unitary(filter_unitary(FilterCandidate.euler(0.4, 1.2, 2.5)))),
            KrausChannel(
                tuple(np.sqrt(0.5) * filter_unitary(FilterCandidate.euler(0.4, 1.2, 2.5)) for _ in range(2))
            ),
        ],
        ids=["gad-p0", "kraus2-identity", "unital-rotation", "kraus2-rotation"],
    )
    def test_rejects_unitary_channel_in_every_form(self, channel):
        # unitarity is read off the PTM, so every representation is rejected
        # (the unital identity is test_rejects_unitary_input)
        with pytest.raises(ValueError, match="unitary"):
            search_filter(channel, budget=8)

    @pytest.mark.parametrize(
        "budget, per_axis",
        [(1, 1), (7, 1), (8, 2), (27, 3), (64, 4), (125, 5), (999, 9), (1000, 10)],
    )
    def test_budget_rounds_to_a_cube(self, budget, per_axis):
        assert _cube_root_floor(budget) == per_axis

    def test_cube_root_floor_matches_integer_search(self):
        k = 1
        for n in range(1, 30000):
            k += (k + 1) ** 3 <= n
            assert _cube_root_floor(n) == k, n

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.lists(st.floats(-1, 1), min_size=8, max_size=8),
    )
    # diagonal T: s1 ties the polar rotation (the identity) exactly
    @example([0.73, 0.5, 0.5], [1, 0, 0, 0, 1, 0, 0, 0])
    def test_unital_order_is_the_horn_order(self, lam, quaternions):
        # Horn: ||(O T)^m||_1 <= sum_i s_i^m for every orthogonal O, with
        # equality at the inverse polar rotation, so the best filtered order
        # is the smallest m with sum_i s_i^m <= 1.  The draws cover CP
        # channels and non-CP contractions; unitary ones are rejected.
        q1, q2 = np.reshape(quaternions, (2, 4))
        assume(min(np.linalg.norm(q1), np.linalg.norm(q2)) > 0.1)
        assume(np.abs(np.abs(lam) - 1.0).max() > 1e-9)
        t = rotation_from_quaternion(q1) @ np.diag(lam) @ rotation_from_quaternion(q2)
        s = np.linalg.svd(t, compute_uv=False)
        cap = 64
        sums = [float((s ** m).sum()) for m in range(1, cap + 1)]
        assume(all(abs(v - 1.0) >= 1e-9 for v in sums))
        horn = next((m for m, v in enumerate(sums, start=1) if v <= 1.0), None)
        c = UnitalChannel(t)
        report = search_filter(c, cap=cap)
        assert report.filtered_nc.n == horn
        assert report.filtered_nc == amend_order(c, report.filter, cap)
        if report.base_nc.n != 1:
            # the one filter scanned is the inverse polar rotation O_p^T
            polar = FilterCandidate.orthogonal(polar_decompose(t)[0].T)
            assert report.filter == polar
            # a CP channel that is not EB has det T > 0: its filter is proper
            if in_cpt_tetrahedron(lam):
                assert np.linalg.det(report.filter.bloch_matrix()) > 0

    @pytest.mark.parametrize("budget", [8, 27, 64])
    def test_json_matches_loop_oracle(self, budget):
        rng = np.random.default_rng(57)
        kraus_unital = as_kraus(
            UnitalChannel(random_rotation(rng) @ np.diag([0.85, 0.7, 0.6]) @ random_rotation(rng))
        )
        channels = [UnitalChannel(T), random_cp_unital(rng), kraus_unital]
        channels += [as_kraus(random_cp_unital(rng)) for _ in range(2)]
        channels += [gad_kraus(GadParams(p, 0.3)) for p in (0.55, 0.7)]
        for c in channels:
            report = search_filter(c, cap=16, budget=budget, seed=11)
            oracle = loop_search_filter(c, cap=16, budget=budget, seed=11)
            if not isinstance(c, UnitalChannel):
                assert json.dumps(report.to_json()) == json.dumps(oracle.to_json())
                continue
            # a unital channel scans its inverse polar rotation alone: it
            # reaches the oracle's best order over the five candidates and
            # the lattice, and scores that best in the oracle
            assert (report.base_nc, report.filtered_nc, report.amendable) == (
                oracle.base_nc, oracle.filtered_nc, oracle.amendable)
            best = order_and_margin(c, oracle.filter, 16)
            mine = order_and_margin(c, report.filter, 16)
            assert mine[0] == best[0]
            assert abs(mine[1] - best[1]) <= ROUND_TOL

    def test_filtered_nc_equals_amend_order(self):
        rng = np.random.default_rng(58)
        channels = [random_cp_unital(rng) for _ in range(3)]
        channels += [as_kraus(random_cp_unital(rng)) for _ in range(3)]
        channels += [gad_kraus(GadParams(rng.uniform(0.4, 0.8), rng.uniform(0, 1))) for _ in range(3)]
        for seed, c in enumerate(channels):
            report = search_filter(c, cap=16, budget=8, seed=seed)
            assert report.filtered_nc == amend_order(c, report.filter, cap=16)
        # the refined order comes from the refining scan
        for band in (2, 3, 4):
            for seed in range(2):
                c = rotated_damping(rng, band)
                for budget in (1, 1000):
                    report = search_filter(c, cap=16, budget=budget, seed=seed)
                    assert report.filtered_nc == amend_order(c, report.filter, cap=16)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            kraus_channels(),
            near_eb_mixtures(),
            st.builds(lambda seed, band: rotated_damping(np.random.default_rng(seed), band),
                      st.integers(0, 2 ** 32 - 1), st.integers(1, 3)),
        ),
        st.sampled_from([1, 8]),
        st.integers(0, 2 ** 32 - 1),
    )
    @example(GadParams(0.9, 0.25), 8, 0)
    @example(gad_kraus(GadParams(0.9, 0.25)), 8, 0)
    @example(gad_kraus(GadParams(p_n(0.3, 1) - 1e-9, 0.3)), 8, 0)
    def test_filtered_nc_equals_amend_order_everywhere(self, c, budget, seed):
        """On EB channels (the short cut), near-EB mixtures and damping
        channels of bands 1 to 3, rotated, where filters amend."""
        assume(not amend_module._is_unitary_channel(_scan_base(c)))
        report = search_filter(c, cap=16, budget=budget, seed=seed)
        assert report.filtered_nc == amend_order(c, report.filter, cap=16)

    @settings(max_examples=150, deadline=None)
    @given(near_order_one(), st.sampled_from([1, 2, 8, 64]), st.sampled_from([1, 8]),
           st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
    @example(GadParams(p_n(0.3, 1) - 1e-12, 0.3), 64, 8, (0.3, 1.1, -0.7))
    @example(GadParams(p_n(0.3, 1) - 1e-13, 0.3), 64, 1, (0.3, 1.1, -0.7))
    @example(GadParams(p_n(0.3, 1) + 1e-12, 0.3), 64, 8, (0.3, 1.1, -0.7))
    @example(UnitalChannel(np.diag([0.5, 0.3, 0.2]) * (1 + 1e-9)), 8, 8, (0.3, 1.1, -0.7))
    def test_order_one_is_the_channels_own(self, c, cap, budget, angles):
        """Filters keep the order-1 decision, so the search and
        ``amend_order`` answer order 1 exactly where ``is_eb`` and ``n_c``
        do, in every form of the channel, however close to the edge."""
        eb = is_eb(c)
        report = search_filter(c, cap=cap, budget=budget)
        assert report.base_nc == n_c(c, cap)
        assert (report.filtered_nc.n == 1) == (report.base_nc.n == 1) == eb
        assert report.filtered_nc == amend_order(c, report.filter, cap)
        assert (amend_order(c, FilterCandidate.euler(*angles), cap).n == 1) == eb

    def test_damping_parameters_below_the_edge_keep_order_two(self):
        """Just below p_1 the band gives order 2, while the filtered steps'
        smallest partial-transpose eigenvalue, about -0.8 d, lies inside the
        slack of ``decide_eb``; the channel's own order decides."""
        for d in (1e-12, 1e-13):
            c = GadParams(p_n(0.3, 1) - d, 0.3)
            report = search_filter(c)
            assert (report.base_nc.n, report.filtered_nc.n) == (2, 2)
            assert report.filtered_nc == amend_order(c, report.filter)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.sampled_from([1, 8, 64]), st.integers(0, 2 ** 32 - 1))
    def test_refinement_never_loses_to_the_lattice(self, band, budget, seed):
        """The winning filter, re-scored alone, scores at least the best named
        or lattice filter, up to the ``ROUND_TOL`` of a tie."""
        c = rotated_damping(np.random.default_rng(seed), band)
        report = search_filter(c, cap=16, budget=budget, seed=seed)
        order, margin = filtered_scan(c, report.filter.bloch_matrix()[None], 16)
        orders, margins = filtered_scan(c, named_and_lattice(budget, seed), 16)
        assert order[0] + margin[0] >= (orders + margins).max() - ROUND_TOL

    def test_refinement_finds_what_the_lattice_misses(self):
        """A rotated damping channel of order 2 that no named filter and no
        point of the seeded 10x10x10 lattice lifts above order 2; the
        halving-lattice refinement from the best lattice point reaches
        order 3."""
        euler = FilterCandidate.euler(3.239124460046525, 1.6372916822486154, 5.633130245903468)
        c = apply_filter(euler, gad_kraus(GadParams(0.5872318330764819, 0.45003038868240186)))
        report = search_filter(c, cap=64, budget=1000, seed=42)
        assert (report.base_nc.n, report.filtered_nc.n, report.amendable) == (2, 3, True)
        orders, _ = filtered_scan(c, named_and_lattice(1000, 42), 64)
        assert orders.max() == 2

    def test_report_json_schema(self):
        report = search_filter(UnitalChannel(T), cap=16, budget=8, seed=3)
        data = report.to_json()
        assert sorted(data) == ["amendable", "base_nc", "filter", "filtered_nc"]
        assert sorted(data["filter"]) == ["kind", "params"]


def _scan_cases():
    """(channel, rotations, cap) cases for the batched order scan: unital,
    Kraus-unital and damping channels, EB at one use and beyond the cap."""
    rng = np.random.default_rng(59)
    polar = polar_decompose(T)[0].T
    assert np.linalg.det(polar) < 0  # the swap fixture's polar candidate is improper
    named = [FilterCandidate.pauli(k).bloch_matrix() for k in (1, 2, 3)]
    named.append(FilterCandidate.r2r1().bloch_matrix())
    axes = [rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, np.pi, 3), rng.uniform(0, 2 * np.pi, 3)]
    proper = np.concatenate([np.array(named), _euler_lattice(*axes)])
    improper = np.concatenate([proper, [polar, SWAP_XY]])
    dephasing = UnitalChannel(np.diag([0.7, 0.7, 1.0]))
    cases = [
        (UnitalChannel(T), improper, 16),
        (UnitalChannel(np.zeros((3, 3))), improper, 4),
        (dephasing, improper, 5),
        (as_kraus(dephasing), proper, 5),
        (gad_kraus(GadParams(0.95, 0.5)), proper, 8),
    ]
    for _ in range(3):
        c = random_cp_unital(rng)
        cases += [(c, improper, 16), (as_kraus(c), proper, 16)]
    for _ in range(3):
        cases.append((gad_kraus(GadParams(rng.uniform(0.3, 0.8), rng.uniform(0, 1))), proper, 16))
    return cases


class TestOrderScan:
    @pytest.mark.parametrize("c, rotations, cap", _scan_cases())
    def test_matches_loop_oracle(self, c, rotations, cap):
        orders, margins = filtered_scan(c, rotations, cap)
        for o, margin, rot in zip(orders, margins, rotations):
            result, expected = order_and_margin(c, FilterCandidate.orthogonal(rot), cap)
            assert (None if o > cap else o) == result.n
            if isinstance(c, UnitalChannel):
                assert margin == expected
            else:
                assert abs(margin - expected) <= 1e-12

    @pytest.mark.parametrize("c, rotations, cap", _scan_cases())
    def test_rows_match_one_filter_scans(self, c, rotations, cap):
        """A filter scores the same, to the bit, in any stack and alone: on
        the PTM route a (k, 16) partial-transpose product would round rows of
        a stack differently from one row.  ``amend_order`` scans the filter
        alone."""
        orders, margins = filtered_scan(c, rotations, cap)
        for o, m, rot in zip(orders, margins, rotations):
            one_row = filtered_scan(c, rot[None], cap)
            assert (int(o), float(m).hex()) == (int(one_row[0][0]), float(one_row[1][0]).hex())
            expected = None if o > cap else int(o)
            assert amend_order(c, FilterCandidate.orthogonal(rot), cap).n == expected

    @pytest.mark.parametrize("unital", [True, False])
    def test_cases_cover_eb_at_one_and_exceeded_cap(self, unital):
        scans = [
            (filtered_scan(c, rotations, cap)[0], cap)
            for c, rotations, cap in _scan_cases()
            if isinstance(c, UnitalChannel) == unital
        ]
        assert any((orders == 1).any() for orders, _ in scans)
        assert any((orders > cap).any() for orders, cap in scans)

    def test_improper_rotation_rejected_off_unital_route(self):
        c = gad_kraus(GadParams(0.5, 0.3))
        with pytest.raises(ValueError, match="improper"):
            amend_order(c, SWAP_FILTER)
        with pytest.raises(ValueError, match="improper"):
            amend_order(as_kraus(UnitalChannel(LAM)), SWAP_FILTER)

    def test_lattice_matches_single_filters(self):
        axes = [np.array([0.1, 2.0]), np.array([0.3, 1.7, 2.9]), np.array([4.0, 5.5])]
        lattice = _euler_lattice(*axes)
        points = [(a, b, t) for a in axes[0] for b in axes[1] for t in axes[2]]
        assert len(lattice) == len(points)
        for m, (a, b, t) in zip(lattice, points):
            assert np.array_equal(m, FilterCandidate.euler(a, b, t).bloch_matrix())
            assert np.array_equal(m, rot(2, a) @ rot(1, b) @ rot(2, t))


class TestInvariance:
    def test_conjugate_filter_identity(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            c = random_cp_unital(rng)
            f = FilterCandidate.orthogonal(random_rotation(rng))
            u = random_rotation(rng)
            conj_channel = UnitalChannel(u @ c.t @ u.T)
            conj_filter = FilterCandidate.orthogonal(u @ f.bloch_matrix() @ u.T)
            assert amend_order(c, f, cap=32).order_key() == amend_order(
                conj_channel, conj_filter, cap=32
            ).order_key()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(kraus_channels(), near_eb_mixtures()), QUATERNIONS)
    def test_filter_keeps_the_order_one_decision(self, c, q):
        """F R has the partial-transpose spectrum of R (Horodecki, Shor and
        Ruskai, Rev. Math. Phys. 15, 2003), so both decide EB alike, except
        within rounding of the slack edge -``ROUND_TOL``."""
        assume(np.linalg.norm(q) > 1e-3)
        r = ptm(c)
        low = ptm_min_pt_eigenvalues(r)
        assume(not -2 * ROUND_TOL <= low <= 0.0)
        filtered = _filter_matrix(rotation_from_quaternion(q), r) @ r
        assert decide_eb(filtered)[0] == decide_eb(r)[0]

    def test_order_not_invariant_under_one_sided_rotation(self):
        # composing with the inverse polar rotation changes the order: the
        # swap fixture has order 2 but its positive factor has order 3
        base = n_c(UnitalChannel(T)).n
        filtered = n_c(apply_filter(SWAP_FILTER, UnitalChannel(T))).n
        assert (base, filtered) == (2, 3)


def test_sandwich_matches_power_when_filter_is_identity():
    c = gad_kraus(GadParams(0.4, 0.3))
    identity = FilterCandidate.euler(0.0, 0.0, 0.0)
    from noisegauge import choi

    direct = choi(channel_power(c, 2))
    viafilter = choi(sandwich(c, identity))
    assert np.abs(direct - viafilter).max() < 1e-10


def _filter_oracle_cases():
    """Seeded damping, unital and random Kraus channels, each with the named
    filters and seeded Euler filters."""
    rng = np.random.default_rng(60)
    channels = [gad_kraus(GadParams(rng.uniform(), rng.uniform())) for _ in range(3)]
    channels += [as_kraus(random_cp_unital(rng)) for _ in range(3)]
    for _ in range(3):
        ops = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        w, v = np.linalg.eigh(sum(e.conj().T @ e for e in ops))
        norm = v @ np.diag(w ** -0.5) @ v.conj().T
        channels.append(KrausChannel(tuple(e @ norm for e in ops)))
    filters = [FilterCandidate.pauli(k) for k in (1, 2, 3)] + [FilterCandidate.r2r1()]
    filters += [FilterCandidate.euler(*rng.uniform(0, 2 * np.pi, 3)) for _ in range(3)]
    return [(c, f) for c in channels for f in filters]


@pytest.mark.parametrize("c, f", _filter_oracle_cases())
def test_filtered_channels_match_kraus_oracle(c, f):
    assert np.abs(ptm(apply_filter(f, c)) - ptm(kraus_filtered(f, c))).max() <= 1e-14
    assert np.abs(ptm(sandwich(c, f)) - ptm(kraus_sandwich(c, f))).max() <= 1e-14


def test_filters_never_compose_kraus_sets(monkeypatch):
    import noisegauge.amend
    import noisegauge.channels

    def forbidden(*args):
        raise AssertionError("Kraus sets were composed")

    for module in (noisegauge.amend, noisegauge.channels):
        if hasattr(module, "compose_kraus"):
            monkeypatch.setattr(module, "compose_kraus", forbidden)
    s1 = FilterCandidate.pauli(1)
    c = gad_kraus(GadParams(0.61, 0.25))
    rescued = KrausChannel(tuple(e @ filter_unitary(s1) for e in c.ops))
    assert isinstance(sandwich(c, s1), KrausChannel)
    assert isinstance(apply_filter(s1, c), KrausChannel)
    assert is_amendable2(rescued, FilterCandidate.orthogonal(s1.bloch_matrix().T))
    assert gad_amendable(0.61, 0.25, s1)
    assert search_filter(rescued, cap=8, budget=8, seed=1).amendable
