"""Command-line surface: analyze, sweep, verify, amend.

``analyze`` prints the noise report of a channel given as JSON.  ``sweep``
writes CSV phase-diagram data for the six standard parameter scans; each
figure is one ``_FIGURES`` entry (axes, fixed defaults, CSV header, row
function), and its row function checks the whole domain before it yields its
first row, so a domain error exits 3 before ``--out`` is opened.
``verify`` runs the built-in fixture table and fails loudly on any mismatch.
``amend`` searches for an order-raising filter.

Exit codes: 0 ok, 1 verify failure, 2 parse error or a channel file (or
stdin) that cannot be read or is not UTF-8, 3 invariant violation, 4 output
I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import gad as gadforms
from .amend import (DEFAULT_BUDGET, DEFAULT_SEED, FilterCandidate, apply_filter,
                    gad_amendable, sandwich, search_filter)
from .channels import (
    GadParams,
    UnitalChannel,
    channel_from_json,
    check_unit_square,
    pauli_decompose,
)
from .gaussian import IsoChannel, n_c_amplification, n_c_attenuation, n_c_iso
from .linalg import ROUND_TOL, trace_norm
from .measures import (
    mu_c_search,
    mu_c_unital,
    mu_c_upper_bound,
    mu_given_rho0,
    n_c,
    noise_report,
)
from .report import DEFAULT_CAP, NcResult, NoiseReport, check_cap

DEFAULT_STEPS = 200


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

class _UnreadableChannel(Exception):
    """The channel file or stdin cannot be read or is not UTF-8 (exit 2)."""


def _read_channel_text(arg: str) -> str:
    if arg.lstrip().startswith("{"):
        return arg
    try:
        if arg == "-":
            return sys.stdin.read()
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UnreadableChannel(exc) from exc
    except UnicodeDecodeError as exc:
        raise _UnreadableChannel(f"channel {arg!r} is not UTF-8 text: {exc}") from exc


def _parse_channel(arg: str):
    """Parse a qubit channel or an isotropic Gaussian channel from JSON."""
    data = json.loads(_read_channel_text(arg))
    if isinstance(data, dict) and "family" in data:
        return IsoChannel.from_json(data)
    return channel_from_json(data)


def _nc_cell(result: NcResult) -> str:
    return str(result.n) if result.n is not None else "inf"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    channel = _parse_channel(args.channel)
    if isinstance(channel, IsoChannel):
        report = NoiseReport(None, n_c_iso(channel, args.cap))
    else:
        report = noise_report(channel, cap=args.cap)
    print(json.dumps(report.to_json()))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_grid_flag(text: str) -> tuple[str, float, float, int]:
    try:
        name, spec = text.split("=", 1)
        lo_s, hi_s, steps_s = spec.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise ValueError(f"bad --grid flag {text!r}; expected AXIS=MIN:MAX:STEPS") from exc
    if steps < 2:
        raise ValueError("grid steps must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {text!r}")
    if not lo < hi:
        raise ValueError("grid needs min < max")
    return name, lo, hi, steps


def _ebn_order_canonical(lams, cap: int) -> NcResult:
    """Smallest n with sum |lambda_i|^n <= 1 (diagonal-channel geometry).

    A largest multiplier of modulus >= 1 makes the sum exceed 1 for every n
    unless the other two vanish, so that edge is decided exactly rather than
    through the floating tolerance (1 + 2 * 0.5^n would otherwise dip inside
    any fixed slack at large n).  Below that, the test at order n is
    ``float((mags**n).sum()) <= 1 + ROUND_TOL``.  Orders 1 to 5, where most
    rows of a default grid stop, are tested in turn.  Past them the largest
    modulus m bounds the order: 3 m^n <= 1 holds from ceil(ln 3 / -ln m) on,
    so the test passes there, and bisection between order 5 and that bound
    (or the cap, if lower) finds the first order that passes.  Where the
    test is monotone in n this is the order a scan from n = 1 gives.
    """
    mags = np.sort(np.abs(np.asarray(lams, dtype=float)))[::-1]
    if mags[0] >= 1.0:
        if mags[0] <= 1.0 and mags[1] == 0.0:
            return NcResult(1, cap)
        return NcResult(None, cap, proven_divergent=True)

    def holds(n):
        return float((mags**n).sum()) <= 1.0 + ROUND_TOL

    for n in range(1, min(cap, 5) + 1):
        if holds(n):
            return NcResult(n, cap)
    if cap <= 5:
        return NcResult(None, cap)
    lo, hi = 5, min(cap, math.ceil(math.log(3.0) / -math.log(mags[0])))
    if not holds(hi):
        return NcResult(None, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return NcResult(hi, cap)


# Each row function is a generator over (grids, fixed, cap) that checks the
# whole domain (every grid value, the fixed values, the cap if it reads one)
# before it yields its first row.

def _rows_fig1(grids, fixed, cap):
    check_cap(cap)
    lam3 = fixed["lambda3"]
    for name, values in {"lambda3": lam3, **grids}.items():
        if not (np.abs(values) <= 1.0).all():
            raise ValueError(f"{name} must lie in [-1, 1]")
    l1s, l2s = grids["lambda1"], grids["lambda2"]
    for l1 in l1s:
        for l2 in l2s:
            order = _ebn_order_canonical((l1, l2, lam3), cap)
            yield (float(l1), float(l2), _nc_cell(order))


def _rows_fig2(grids, fixed, cap):
    check_cap(cap)
    ps, gs = grids["p"], grids["gamma"]
    check_unit_square(ps, gs[:, None])
    for p in ps:
        for g in gs:
            order = gadforms.n_c_gad(float(p), float(g), cap)
            yield (float(p), float(g), _nc_cell(order))


def _rows_fig2_inset(grids, fixed, cap):
    gamma = fixed["gamma"]
    check_unit_square(grids["p"], gamma)
    for p in grids["p"]:
        yield (
            float(p),
            gadforms.mu_c_gad(float(p), gamma),
            gadforms.mu_c_gad_squared(float(p), gamma),
        )


def _rows_fig3(grids, fixed, cap):
    """The whole grid in two stacked calls: s1 on every point, then r2r1 on
    the points s1 leaves."""
    check_unit_square(grids["p"], grids["gamma"][:, None])
    ps, gs = np.meshgrid(grids["p"], grids["gamma"], indexing="ij")
    ps, gs = ps.ravel(), gs.ravel()
    by_s1 = gad_amendable(ps, gs, FilterCandidate("s1"))
    by_pair = np.zeros_like(by_s1)
    by_pair[~by_s1] = gad_amendable(ps[~by_s1], gs[~by_s1], FilterCandidate("r2r1"))
    for p, g, s1, pair in zip(ps.tolist(), gs.tolist(), by_s1.tolist(), by_pair.tolist()):
        kind = "s1" if s1 else ("r2r1" if pair else "")
        yield (p, g, "true" if kind else "false", kind)


def _rows_fig4(grids, fixed, cap):
    """Both columns of a row come from one ``GadParams`` c: the closed-form
    threshold of c . c and the one ``mu_c_search`` gives for c . f . c.  With
    the s1 filter c . f . c is a rotation of an axially symmetric channel, so
    the certified guess answers it without the barrier solve."""
    gamma, name = fixed["gamma"], fixed["filter"]
    check_unit_square(grids["p"], gamma)
    if name not in ("s1", "r2r1"):
        raise ValueError(f"unknown filter name {name!r} (use s1 or r2r1)")
    filt = FilterCandidate(name)
    for p in grids["p"]:
        c = GadParams(float(p), gamma)
        yield (c.p, gadforms.mu_c_gad_squared(c.p, c.gamma), mu_c_search(sandwich(c, filt)).value)


_FIG5_K_DEFAULT = {"attenuation": (0.02, 0.98), "amplification": (1.02, 3.0)}


def _rows_fig5(grids, fixed, cap):
    """Each row is ``n_c_iso`` of one ``IsoChannel``.  Without a ``k`` grid,
    each family scans its default k range at the n0 axis's step count."""
    check_cap(cap)
    n0s, chosen = grids["n0"], fixed["family"]
    if chosen != "both" and chosen not in _FIG5_K_DEFAULT:
        raise ValueError(f"unknown family {chosen!r}")
    families = tuple(_FIG5_K_DEFAULT) if chosen == "both" else (chosen,)
    ks = {family: grids.get("k", np.linspace(*_FIG5_K_DEFAULT[family], len(n0s)))
          for family in families}
    for family in families:
        for k in ks[family]:
            IsoChannel(family, k, 0.0)
        for n0 in n0s:
            IsoChannel(family, _FIG5_K_DEFAULT[family][0], n0)
    for family in families:
        for k in ks[family]:
            for n0 in n0s:
                order = n_c_iso(IsoChannel(family, k, n0), cap)
                yield (float(k), float(n0), family, _nc_cell(order))


# figure -> (axis -> default (min, max), or None for an axis scanned only
# when --grid names it; fixed defaults, whose types parse --fixed; CSV
# header; row function)
_FIGURES = {
    "fig1": ({"lambda1": (-1.0, 1.0), "lambda2": (-1.0, 1.0)}, {"lambda3": 0.5},
             ("lambda1", "lambda2", "ebn_order"), _rows_fig1),
    "fig2": ({"p": (0.0, 1.0), "gamma": (0.0, 1.0)}, {},
             ("p", "gamma", "n_c"), _rows_fig2),
    "fig2-inset": ({"p": (0.0, 1.0)}, {"gamma": 1.0 / 3.0},
                   ("p", "mu_c", "mu_c_sq"), _rows_fig2_inset),
    "fig3": ({"p": (0.0, 1.0), "gamma": (0.0, 1.0)}, {},
             ("p", "gamma", "amendable", "filter_kind"), _rows_fig3),
    "fig4": ({"p": (0.0, 1.0)}, {"gamma": 0.1, "filter": "s1"},
             ("p", "mu_c_sq", "mu_c_filtered"), _rows_fig4),
    "fig5": ({"n0": (0.0, 1.5), "k": None}, {"family": "both"},
             ("k", "n0", "family", "n_c"), _rows_fig5),
}


def _cmd_sweep(args) -> int:
    axes, defaults, header, rows_of = _FIGURES[args.figure]
    if args.steps < 2:
        raise ValueError("grid steps must be >= 2")
    specs = {name: (*span, args.steps) for name, span in axes.items() if span}
    for text in args.grid or ():
        name, lo, hi, steps = _parse_grid_flag(text)
        if name not in axes:
            raise ValueError(f"figure {args.figure} has no axis {name!r}")
        specs[name] = (lo, hi, steps)
    fixed = dict(defaults)
    for text in args.fixed or ():
        name, eq, value = text.partition("=")
        if not eq:
            raise ValueError(f"bad --fixed flag {text!r}; expected NAME=VALUE")
        if name not in fixed:
            raise ValueError(f"figure {args.figure} has no fixed parameter {name!r}")
        try:
            fixed[name] = type(fixed[name])(value)
        except ValueError:
            raise ValueError(f"bad --fixed flag {text!r}; {name} must be a number") from None

    rows = rows_of({name: np.linspace(*spec) for name, spec in specs.items()}, fixed, args.cap)
    first = next(rows)  # a domain error raises here, before --out is opened
    try:
        out = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    with out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerow(first)
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_LAM = np.diag([0.73, 0.5, 0.5])
_SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
_T = _SWAP_XY @ _LAM
_TBAR = (_T + _T.T) / 2
_LAM3 = np.diag([0.91, 0.6, 0.55])
_T3 = _SWAP_XY @ _LAM3
_T3BAR = (_T3 + _T3.T) / 2


def _verify_fixtures():
    sqrt2 = math.sqrt(2.0)

    def tn_power(m, n):
        return lambda: trace_norm(np.linalg.matrix_power(m, n))

    def nc_of(m):
        return lambda: _nc_cell(n_c(UnitalChannel(m)))

    return [
        ("trace norm, stretched diagonal", 1.73, tn_power(_LAM, 1), 1e-9,
         "sum of diag(0.73, 0.5, 0.5)"),
        ("trace norm, its square", 1.0329, tn_power(_LAM, 2), 1e-4,
         "0.73^2 + 2 * 0.25"),
        ("trace norm, its cube", 0.6389, tn_power(_LAM, 3), 1e-3,
         "0.73^3 + 2 * 0.125"),
        ("trace norm, swapped square", 0.98, tn_power(_T, 2), 1e-9,
         "swap-composed channel squared"),
        ("trace norm, mixture square", 1.0065, tn_power(_TBAR, 2), 1e-4,
         "2 * 0.615^2 + 0.25"),
        ("trace norm, order-3 cube", 0.9908, tn_power(_T3, 3), 1e-3,
         "swap-composed diag(0.91, 0.6, 0.55) cubed"),
        ("trace norm, order-3 mixture cube", 1.0269, tn_power(_T3BAR, 3), 1e-2,
         "2 * 0.755^3 + 0.55^3"),
        ("isotropic-state threshold", 2.0 / 3.0,
         lambda: mu_given_rho0(UnitalChannel(np.eye(3)), np.eye(2) / 2), 1e-5,
         "exact root of the partial-transpose determinant along the mixing segment"),
        ("rotation-channel threshold", 2.0 / 3.0,
         lambda: mu_c_unital(UnitalChannel(np.eye(3))), 1e-12,
         "closed form at trace norm 3"),
        ("rotated damping threshold search", gadforms.mu_c_gad(0.8, 0.2),
         lambda: mu_c_search(apply_filter(FilterCandidate.euler(0.4, 1.1, 2.3),
                                          GadParams(0.8, 0.2))).value, 1e-10,
         "closed form at p = 0.8, gamma = 0.2; the optimal state is pure"),
        ("threshold bound, qubit", 2.0 / 3.0, lambda: mu_c_upper_bound(2), 1e-12,
         "d / (1 + d) at d = 2"),
        ("threshold bound, qutrit", 0.75, lambda: mu_c_upper_bound(3), 1e-12,
         "d / (1 + d) at d = 3"),
        ("order of the stretched diagonal", "3", nc_of(_LAM), None,
         "first power with trace norm <= 1"),
        ("order of the swap composition", "2", nc_of(_T), None,
         "first power with trace norm <= 1"),
        ("order of a rotation", "inf", nc_of(np.eye(3)), None,
         "never entanglement breaking"),
        ("mixture escapes order 2", True, lambda: trace_norm(_TBAR @ _TBAR) > 1.0, None,
         "norm 1.0065 exceeds 1"),
        ("mixture escapes order 3", True,
         lambda: trace_norm(np.linalg.matrix_power(_T3BAR, 3)) > 1.0, None,
         "norm 1.0269 exceeds 1"),
        ("damping threshold vanishing point", 0.0,
         lambda: gadforms.mu_c_gad(2 * (sqrt2 - 1), 0.5), 1e-6,
         "p = 2 (sqrt 2 - 1), gamma = 1/2"),
        ("squared damping vanishing point", 0.0,
         lambda: gadforms.mu_c_gad_squared(2 - sqrt2, 0.5), 1e-6,
         "p = 2 - sqrt 2, gamma = 1/2"),
        ("first damping band edge", 2 * (sqrt2 - 1),
         lambda: gadforms.p_n(0.5, 1), 1e-12, "band formula at gamma = 1/2"),
        ("second damping band edge", 2 - sqrt2,
         lambda: gadforms.p_n(0.5, 2), 1e-12, "band formula at gamma = 1/2"),
        ("s1-sandwiched damping threshold", gadforms.mu_c_axial(0.6, 0.36, -0.128),
         lambda: mu_c_search(sandwich(GadParams(0.4, 0.1), FilterCandidate("s1"))).value,
         1e-10, "R s1 R is axial (1 - p, (1 - p)^2, p^2 (2 gamma - 1)); p = 0.4, gamma = 0.1"),
        ("deep-band damping order", "1",
         lambda: _nc_cell(gadforms.n_c_gad(0.9, 0.5)), None,
         "0.9 above the first band edge"),
        ("deep damping band order", "35",
         lambda: _nc_cell(gadforms.n_c_gad(0.05, 0.5)), None,
         "ceil(ln(3 - 2 sqrt 2) / ln 0.95) at p = 0.05, gamma = 1/2"),
        ("amendable boundary limit", (math.sqrt(5) - 1) / 2,
         lambda: gadforms.amend_boundary_s1(1e-6), 1e-3,
         "boundary curve toward gamma = 0"),
        ("filter restores order 3", "3", nc_of(_SWAP_XY @ _T), None,
         "inverse swap applied before each use"),
        ("attenuation order boundary", "1",
         lambda: _nc_cell(n_c_attenuation(0.5, 0.25, 16)), None,
         "N0 = k^2"),
        ("attenuation second band", "2",
         lambda: _nc_cell(n_c_attenuation(0.5, 0.05, 16)), None,
         "N0 = k^4 / (1 + k^2)"),
        ("amplification order boundary", "1",
         lambda: _nc_cell(n_c_amplification(sqrt2, 1.0, 16)), None,
         "N0 = 1"),
        ("amplification second band", "2",
         lambda: _nc_cell(n_c_amplification(sqrt2, 1.0 / 3.0, 16)), None,
         "N0 = 1 / (1 + k^2)"),
        ("conjugation-weight recovery", 0.0,
         lambda: float(np.abs(pauli_decompose((0.0, 0.0, 1.0))
                              - np.array([0.5, 0.0, 0.0, 0.5])).max()), 1e-12,
         "diagonal action (0, 0, 1)"),
    ]


def _cmd_verify(args) -> int:
    fixtures = _verify_fixtures()
    failures = 0
    width = max(len(name) for name, *_ in fixtures)
    for name, expected, compute, tol, source in fixtures:
        got = compute()
        if tol is None:
            ok = got == expected
            exp_s, got_s = str(expected), str(got)
            tol_s = "exact"
        else:
            ok = abs(got - expected) <= tol
            exp_s, got_s = f"{expected:.6g}", f"{got:.6g}"
            tol_s = f"{tol:.0e}"
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{name:<{width}}  expected {exp_s:>10}  computed {got_s:>10}  "
              f"tol {tol_s:>6}  {status}  [{source}]")
    total = len(fixtures)
    print(f"{total - failures}/{total} fixtures passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# amend
# ---------------------------------------------------------------------------

def _cmd_amend(args) -> int:
    channel = _parse_channel(args.channel)
    if isinstance(channel, IsoChannel):
        raise ValueError("amendability search applies to qubit channels only")
    report = search_filter(channel, cap=args.cap, budget=args.budget, seed=args.seed)
    print(json.dumps(report.to_json()))
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisegauge",
        description="Quantify channel noise via depolarizing admixture and "
                    "entanglement-breaking iteration order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="noise report for one channel")
    p_an.add_argument("channel", help="channel JSON (inline, file path, or - for stdin)")
    p_an.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="CSV phase-diagram data")
    p_sw.add_argument("figure", choices=sorted(_FIGURES))
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--grid", action="append", metavar="AXIS=MIN:MAX:STEPS")
    p_sw.add_argument("--fixed", action="append", metavar="NAME=VALUE")
    p_sw.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_sw.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_sw.set_defaults(func=_cmd_sweep)

    p_ve = sub.add_parser("verify", help="run the built-in fixture table")
    p_ve.set_defaults(func=_cmd_verify)

    p_am = sub.add_parser("amend", help="search for an order-raising filter")
    p_am.add_argument("channel", help="channel JSON (inline, file path, or - for stdin)")
    p_am.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_am.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_am.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_am.set_defaults(func=_cmd_amend)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed channel JSON: {exc}", file=sys.stderr)
        return 2
    except _UnreadableChannel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
