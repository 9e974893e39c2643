"""The four seeded workloads and the checks on their answers.

A workload is a fixed list of CLI calls (one pass) built from the seed.  The
runner repeats whole passes.  For ``analyze-mix`` and ``amend-search`` an op
is one call; for the two sweep workloads an op is one CSV row.

Why these workloads: ``analyze-mix`` is the per-channel question and mixes
closed-form requests (CLI-bound) with Kraus requests (numeric search);
``sweep-closed`` runs only closed forms, so it bypasses every numeric kernel;
``sweep-filtered`` is the only caller of ``gad_amendable`` and runs full
threshold searches per fig4 row; ``amend-search`` is the only caller of the
filter search and makes no threshold solve.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle

CAP = 64  # the CLI default for analyze, sweep and amend
GRID = np.linspace(0.0, 1.0, 200)  # the default sweep axis
FIG4_GAMMA = 0.1  # fig4 default

SIGMAS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the checks need to know about it."""

    argv: tuple
    kind: str
    params: dict = field(default_factory=dict)
    rows: int = 1  # CSV rows expected (sweeps); requests are one op


@dataclass
class Workload:
    name: str
    per_row: bool  # op = CSV row (sweeps) rather than one call
    calls: list
    warmup: list
    twins: dict = field(default_factory=dict)  # call index -> same channel, other form
    probes: list = field(default_factory=list)  # known-defect inputs, run untimed


# ---------------------------------------------------------------------------
# channel constructors (independent of noisegauge)
# ---------------------------------------------------------------------------

def _su2(rng) -> np.ndarray:
    w, x, y, z = rng.normal(size=4)
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w * SIGMAS[0] - 1j * (x * SIGMAS[1] + y * SIGMAS[2] + z * SIGMAS[3])) / norm


def _bloch_matrix(ops) -> np.ndarray:
    """T_ab = (1/2) sum_i Tr(sigma_a E_i sigma_b E_i^dag) of a unital channel."""
    t = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            img = sum(e @ SIGMAS[b + 1] @ e.conj().T for e in ops)
            t[a, b] = 0.5 * np.trace(SIGMAS[a + 1] @ img).real
    return t


def _pauli_lambdas(q) -> np.ndarray:
    q0, q1, q2, q3 = q
    return np.array([q0 + q1 - q2 - q3, q0 - q1 + q2 - q3, q0 - q1 - q2 + q3])


def _cp_unital(rng, eb: bool | None = None):
    """Kraus ops and Bloch matrix of U1 . (Pauli mixture) . U2.

    ``eb`` selects channels whose trace norm sits below (True) or above
    (False) one by at least 1e-3; None accepts any.
    """
    while True:
        q = rng.dirichlet(np.ones(4))
        tn = float(np.abs(_pauli_lambdas(q)).sum())
        if eb is None or (eb and tn < 0.999) or (not eb and tn > 1.001):
            break
    u1, u2 = _su2(rng), _su2(rng)
    ops = [math.sqrt(qi) * u1 @ s @ u2 for qi, s in zip(q, SIGMAS)]
    return ops, _bloch_matrix(ops)


def _gad_ops(p: float, gamma: float):
    sp, s1p = math.sqrt(p), math.sqrt(1.0 - p)
    sg, s1g = math.sqrt(gamma), math.sqrt(1.0 - gamma)
    return [
        sg * np.array([[1, 0], [0, s1p]], dtype=complex),
        sg * np.array([[0, sp], [0, 0]], dtype=complex),
        s1g * np.array([[s1p, 0], [0, 1]], dtype=complex),
        s1g * np.array([[0, 0], [sp, 0]], dtype=complex),
    ]


def _kraus_json(ops) -> str:
    return json.dumps({"kind": "kraus", "ops": [
        [[float(x.real), float(x.imag)] for x in e.ravel()] for e in ops]})


def _unital_json(t) -> str:
    return json.dumps({"kind": "unital", "t": [float(x) for x in np.ravel(t)]})


def _gad_json(p: float, gamma: float) -> str:
    return json.dumps({"kind": "gad", "p": p, "gamma": gamma})


def _in_band(rng, gamma: float, n: int) -> float:
    """p drawn uniformly from the band where the order is exactly n."""
    return float(rng.uniform(oracle.p_n(gamma, n), oracle.p_n(gamma, n - 1)))


# ---------------------------------------------------------------------------
# analyze-mix
# ---------------------------------------------------------------------------

DEPHASING_T = np.diag([1.0, 0.7, 0.7])
DEPHASING_OPS = [math.sqrt(0.85) * SIGMAS[0], math.sqrt(0.15) * SIGMAS[1]]
# 1 ulp below p_1: the closed-form threshold clamps to 0 while the band map
# says "not EB", and the CLI exits 3 (ROADMAP open item 4).
ROADMAP_EDGE = (0.8763216380804028, 0.7982411825512649)
EDGE_KINDS = ("below-p2", "at-p2", "at-p1", "above-p1", "below-p3")


def _analyze(kind: str, text: str, **params) -> Call:
    return Call(("analyze", text), kind, params)


def _gad_call(p: float, gamma: float, kind: str = "gad") -> Call:
    return _analyze(kind, _gad_json(p, gamma), p=p, gamma=gamma)


def _edge_p(gamma: float, edge: str) -> float:
    n = int(edge[-1])
    p = oracle.p_n(gamma, n)
    if edge.startswith("below"):
        return math.nextafter(p, 0.0)
    if edge.startswith("above"):
        return math.nextafter(p, 1.0)
    return p


def _gauss_call(family: str, k: float, n0: float) -> Call:
    text = json.dumps({"family": family, "k": k, "n0": n0})
    return _analyze("gauss", text, family=family, k=k, n0=n0)


def _gauss_calls(rng, family: str, lo: float, hi: float) -> list:
    calls = []
    for i in range(10):
        k = float(rng.uniform(lo, hi))
        if i == 0:
            n0 = 0.0  # never EB in either family
        elif i < 3:
            n0 = oracle.gauss_threshold(family, k, int(rng.integers(1, 4)))  # on a band edge
        else:  # inside band n; band 1 reaches 1.5 above its edge
            n = int(rng.integers(1, 7))
            low = oracle.gauss_threshold(family, k, n)
            top = oracle.gauss_threshold(family, k, n - 1) if n > 1 else low + 1.5
            n0 = float(rng.uniform(low, top))
        calls.append(_gauss_call(family, k, n0))
    return calls


def analyze_mix(seed: int) -> Workload:
    """100 analyze requests: 35 damping, 25 unital, 20 Gaussian, 20 Kraus.

    The 18 non-EB Kraus requests run the threshold search (about 100 times
    the cost of the rest); they are 18% of the ops, so the median and the
    tail percentile each sit inside one mode.
    """
    rng = np.random.default_rng(seed)
    calls, twins = [], {}
    for _ in range(25):
        calls.append(_gad_call(float(rng.uniform()), float(rng.uniform())))
    for i in range(10):
        gamma = float(rng.uniform(0.02, 0.98))
        calls.append(_gad_call(_edge_p(gamma, EDGE_KINDS[i % 5]), gamma))
    calls.append(_analyze("unital", _unital_json(DEPHASING_T), t=DEPHASING_T))
    for _ in range(24):
        _, t = _cp_unital(rng)
        calls.append(_analyze("unital", _unital_json(t), t=t))
    calls += _gauss_calls(rng, "attenuation", 0.2, 0.95)
    calls += _gauss_calls(rng, "amplification", 1.05, 2.0)
    for i in range(10):
        gamma = float(rng.uniform(0.02, 0.98))
        p = float(rng.uniform(oracle.p_n(gamma, 1), 1.0)) if i == 0 else \
            float(rng.uniform(0.0, oracle.p_n(gamma, 1)))
        twins[len(calls)] = ("analyze", _gad_json(p, gamma))
        calls.append(_analyze("kraus-gad", _kraus_json(_gad_ops(p, gamma)), p=p, gamma=gamma))
    for i in range(10):
        ops, t = _cp_unital(rng, eb=(i == 0))
        twins[len(calls)] = ("analyze", _unital_json(t))
        calls.append(_analyze("kraus-unital", _kraus_json(ops), t=t))
    order = rng.permutation(len(calls))
    calls = [calls[i] for i in order]
    twins = {int(np.flatnonzero(order == i)[0]): argv for i, argv in twins.items()}

    probes = [_gad_call(*ROADMAP_EDGE, kind="probe-gad-below-p1"),
              _analyze("probe-kraus-dephasing", _kraus_json(DEPHASING_OPS), t=DEPHASING_T)]
    for _ in range(20):
        gamma = float(rng.uniform(0.02, 0.98))
        probes.append(_gad_call(math.nextafter(oracle.p_n(gamma, 1), 0.0), gamma,
                                kind="probe-gad-below-p1"))
    warmup = list({c.kind: c for c in calls}.values())
    return Workload("analyze-mix", False, calls, warmup, twins, probes)


# ---------------------------------------------------------------------------
# amend-search
# ---------------------------------------------------------------------------

def _amend_unital(rng):
    """A CP unital channel near one Pauli-diagonal profile (trace norm about
    1.4), so the search cost varies with the seeded rotations rather than
    with a long order scan."""
    q = rng.dirichlet(100.0 * np.array([0.6, 0.2, 0.12, 0.08]))
    u1, u2 = _su2(rng), _su2(rng)
    return _bloch_matrix([math.sqrt(qi) * u1 @ s @ u2 for qi, s in zip(q, SIGMAS)])


def amend_search(seed: int) -> Workload:
    """40 CP unital channels at the default budget and 15 damping channels of
    order 2 in Kraus form at budget 8.  The Kraus requests cost about twice
    as much, so the median sits among the unital requests and the tail
    percentile (the 11th-slowest op) among the Kraus ones.  The unital cost
    has a long upper tail (the Nelder-Mead pass), so the unital share is
    large enough to keep the median away from it."""
    rng = np.random.default_rng(seed)
    calls = []
    for _ in range(40):
        t = _amend_unital(rng)
        calls.append(Call(("amend", _unital_json(t), "--seed", str(int(rng.integers(1 << 30)))),
                          "amend-unital", {"t": t}))
    for _ in range(15):
        gamma = float(rng.uniform(0.05, 0.95))
        p = _in_band(rng, gamma, 2)
        calls.append(Call(("amend", _kraus_json(_gad_ops(p, gamma)), "--budget", "8",
                           "--seed", str(int(rng.integers(1 << 30)))),
                          "amend-kraus-gad", {"p": p, "gamma": gamma}))
    calls = [calls[i] for i in rng.permutation(len(calls))]
    warmup = list({c.kind: c for c in calls}.values())
    return Workload("amend-search", False, calls, warmup)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep(fig: str, *flags: str, rows: int, **params) -> Call:
    return Call(("sweep", fig, "--out", f"{fig}.csv") + flags, fig, params, rows)


def sweep_closed(seed: int) -> Workload:
    """fig1, fig2, fig2-inset and fig5 at the default 200-point grids."""
    rng = np.random.default_rng(seed)
    lam3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.6))
    gamma = float(rng.uniform(0.05, 0.95))
    family = str(rng.choice(["attenuation", "amplification"]))
    calls = [
        _sweep("fig1", "--fixed", f"lambda3={lam3!r}", rows=200 * 200, lambda3=lam3),
        _sweep("fig2", rows=200 * 200),
        _sweep("fig2-inset", "--fixed", f"gamma={gamma!r}", rows=200, gamma=gamma),
        _sweep("fig5", "--fixed", f"family={family}", rows=200 * 200),
    ]
    warmup = [Call(c.argv + ("--steps", "3"), c.kind, c.params) for c in calls]
    return Workload("sweep-closed", True, calls, warmup)


def _window(axis: str, start: int, size: int) -> tuple:
    lo, hi = float(GRID[start]), float(GRID[start + size - 1])
    return ("--grid", f"{axis}={lo!r}:{hi!r}:{size}")


def sweep_filtered(seed: int) -> Workload:
    """fig3 on sixteen 4x4 windows and fig4 on ten 2-point windows.

    The fig3 windows sit one in each 50x50 block of the default grid and the
    fig4 windows eight below and two above the s1 boundary at gamma = 0.1, so
    every pass has the same mix of full searches and early exits.
    """
    rng = np.random.default_rng(seed)
    calls = []
    for bp in range(4):
        for bg in range(4):
            i = 50 * bp + int(rng.integers(0, 47))
            j = 50 * bg + int(rng.integers(0, 47))
            calls.append(_sweep("fig3", *_window("p", i, 4), *_window("gamma", j, 4), rows=16))
    edge = int(np.searchsorted(GRID, oracle.s1_boundary(FIG4_GAMMA)))
    for lo, hi, count in ((0, edge, 8), (edge, len(GRID), 2)):
        bounds = np.linspace(lo, hi, count + 1).astype(int)
        for a, b in zip(bounds[:-1], bounds[1:]):
            calls.append(_sweep("fig4", *_window("p", int(rng.integers(a, b - 1)), 2), rows=2))
    calls = [calls[i] for i in rng.permutation(len(calls))]
    warmup = list({c.kind: c for c in calls}.values())
    return Workload("sweep-filtered", True, calls, warmup)


BUILDERS = {
    "analyze-mix": analyze_mix,
    "sweep-closed": sweep_closed,
    "sweep-filtered": sweep_filtered,
    "amend-search": amend_search,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_report(call: Call, rep: dict) -> list:
    errs = []
    n = oracle.parse_order(rep["n_c"])
    flags = rep["ebn"]
    if len(flags) != CAP or flags != [n is not None and k + 1 >= n for k in range(CAP)]:
        errs.append("EB^n flags are not the monotone image of n_c")
    p = call.params
    if call.kind == "gauss":
        slack, margin, expected_mu = oracle.gauss_slack(p["family"], p["k"], p["n0"]), oracle.BAND_MARGIN, None
        if rep["mu_c"] is not None:
            errs.append("Gaussian mu_c must be null")
    elif "gamma" in p:
        slack, margin = oracle.gad_slack(p["p"], p["gamma"]), 0.0
        expected_mu = oracle.mu_c_gad(p["p"], p["gamma"])
    else:
        slack, margin = oracle.unital_slack(p["t"]), oracle.BAND_MARGIN
        expected_mu = oracle.mu_c_unital(p["t"])
    if not oracle.order_ok(n, slack, CAP, margin):
        errs.append(f"n_c {rep['n_c']} disagrees with the closed-form bands")
    if expected_mu is not None:
        mu = rep["mu_c"]
        if (mu == 0.0) != (n == 1):
            errs.append(f"mu_c {mu} vs n_c {n}: mu_c must vanish exactly at n_c = 1")
        if n != 1 and abs(mu - expected_mu) > oracle.MU_TOL:
            errs.append(f"mu_c {mu} vs closed form {expected_mu}")
    return errs


def _check_amend(call: Call, rep: dict) -> list:
    p = call.params
    slack = oracle.unital_slack(p["t"]) if "t" in p else oracle.gad_slack(p["p"], p["gamma"])
    n = oracle.parse_order(rep["base_nc"])
    if not oracle.order_ok(n, slack, CAP, 0.0):
        return [f"base_nc {rep['base_nc']} disagrees with the closed form"]
    return []


def mu_abs_err(call: Call, text: str) -> float | None:
    """|mu_c(numeric route) - closed form| for a Kraus request, else None."""
    if not call.kind.startswith("kraus"):
        return None
    rep = json.loads(text)
    if rep["n_c"] == 1:
        return None
    p = call.params
    exact = oracle.mu_c_gad(p["p"], p["gamma"]) if "gamma" in p else oracle.mu_c_unital(p["t"])
    return abs(rep["mu_c"] - exact)


def check_request(call: Call, text: str) -> list:
    try:
        rep = json.loads(text)
        if call.argv[0] == "amend":
            return _check_amend(call, rep)
        return _check_report(call, rep)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable answer: {exc!r}"]


def _fig_row_errors(fig: str, params: dict, row: list) -> list:
    if fig == "fig1":
        lams = (float(row[0]), float(row[1]), params["lambda3"])
        ok = oracle.order_ok(oracle.parse_order(row[2]), oracle.diagonal_slack(lams), CAP,
                             oracle.BAND_MARGIN)
    elif fig == "fig2":
        p, g = float(row[0]), float(row[1])
        ok = oracle.order_ok(oracle.parse_order(row[2]), oracle.gad_slack(p, g), CAP, 0.0)
    elif fig == "fig2-inset":
        p, g = float(row[0]), params["gamma"]
        ok = (abs(float(row[1]) - oracle.mu_c_gad(p, g)) <= 1e-9
              and abs(float(row[2]) - oracle.mu_c_gad_squared(p, g)) <= 1e-9)
    elif fig == "fig5":
        k, n0, family = float(row[0]), float(row[1]), row[2]
        ok = oracle.order_ok(oracle.parse_order(row[3]), oracle.gauss_slack(family, k, n0), CAP,
                             oracle.BAND_MARGIN)
    elif fig == "fig3":
        p, g = float(row[0]), float(row[1])
        lo, hi = oracle.s1_boundary(g), oracle.p_n(g, 2)
        ok = (min(abs(p - lo), abs(p - hi)) <= oracle.S1_MARGIN
              or (row[3] == "s1") == (lo <= p < hi))
    else:  # fig4: the s1 sandwich is EB (threshold 0) exactly above the s1 boundary
        p, g = float(row[0]), FIG4_GAMMA
        mu_f = float(row[2])
        ok = (abs(float(row[1]) - oracle.mu_c_gad_squared(p, g)) <= 1e-9
              and 0.0 <= mu_f <= 2.0 / 3.0
              and (abs(p - oracle.s1_boundary(g)) <= oracle.S1_MARGIN
                   or (mu_f == 0.0) == (p >= oracle.s1_boundary(g))))
    return [] if ok else [f"{fig} row {','.join(row)} fails its closed-form check"]


def check_sweep(call: Call, text: str, sample: np.ndarray | None) -> list:
    """Row count, header, and the closed-form check on the sampled rows."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != call.rows + 1:
        return [f"{call.kind}: {len(rows) - 1} rows, expected {call.rows}"]
    body = rows[1:]
    picks = range(len(body)) if sample is None else sample
    errs = []
    for i in picks:
        errs += _fig_row_errors(call.kind, call.params, body[i])
    return errs
