"""Command-line surface: analyze, sweep, verify, amend.

``analyze`` prints the noise report of a channel given as JSON.  ``sweep``
writes CSV phase-diagram data for the five standard parameter scans.
``verify`` runs the built-in fixture table and fails loudly on any mismatch.
``amend`` searches for an order-raising filter.

Exit codes: 0 ok, 1 verify failure, 2 parse error, 3 invariant violation,
4 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import gad as gadforms
from .amend import FilterCandidate, gad_amendable, sandwich, search_filter
from .channels import (
    GadParams,
    UnitalChannel,
    channel_from_json,
    check_unit_square,
    gad_kraus,
    pauli_decompose,
)
from .gaussian import IsoChannel, n_c_amplification, n_c_attenuation, n_c_iso
from .linalg import trace_norm
from .measures import (
    mu_c_search,
    mu_c_unital,
    mu_c_upper_bound,
    mu_given_rho0,
    n_c,
    noise_report,
)
from .report import NcResult, NoiseReport

DEFAULT_STEPS = 200


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _read_channel_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.lstrip().startswith("{"):
        return arg
    with open(arg, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_channel(arg: str):
    """Parse a qubit channel or an isotropic Gaussian channel from JSON."""
    data = json.loads(_read_channel_text(arg))
    if isinstance(data, dict) and "family" in data:
        return IsoChannel.from_json(data)
    return channel_from_json(data)


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _nc_cell(result: NcResult) -> str:
    return str(result.n) if result.n is not None else "inf"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    channel = _parse_channel(args.channel)
    if isinstance(channel, IsoChannel):
        order = n_c_iso(channel, args.cap)
        flags = tuple(order.n is not None and k >= order.n for k in range(1, args.cap + 1))
        report = NoiseReport(None, order, flags)
    else:
        report = noise_report(channel, cap=args.cap)
    print(json.dumps(report.to_json()))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# figure name -> (axis names with default (min, max), fixed defaults)
_FIGURES = {
    "fig1": (("lambda1", (-1.0, 1.0)), ("lambda2", (-1.0, 1.0))),
    "fig2": (("p", (0.0, 1.0)), ("gamma", (0.0, 1.0))),
    "fig2-inset": (("p", (0.0, 1.0)),),
    "fig3": (("p", (0.0, 1.0)), ("gamma", (0.0, 1.0))),
    "fig4": (("p", (0.0, 1.0)),),
    "fig5": (("n0", (0.0, 1.5)),),
}

_FIXED_DEFAULTS = {
    "fig1": {"lambda3": 0.5},
    "fig2": {},
    "fig2-inset": {"gamma": 1.0 / 3.0},
    "fig3": {},
    "fig4": {"gamma": 0.1, "filter": "s1"},
    "fig5": {"family": "both"},
}


def _parse_grid_flag(text: str) -> tuple[str, float, float, int]:
    try:
        name, spec = text.split("=", 1)
        lo_s, hi_s, steps_s = spec.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise ValueError(f"bad --grid flag {text!r}; expected AXIS=MIN:MAX:STEPS") from exc
    if steps < 2:
        raise ValueError("grid steps must be >= 2")
    if not lo < hi:
        raise ValueError("grid needs min < max")
    return name, lo, hi, steps


def _parse_fixed_flag(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ValueError(f"bad --fixed flag {text!r}; expected NAME=VALUE")
    name, value = text.split("=", 1)
    return name, value


def _axes_for(figure: str, grid_flags, steps_default: int):
    axes = {}
    for name, (lo, hi) in _FIGURES[figure]:
        axes[name] = (lo, hi, steps_default)
    for text in grid_flags or ():
        name, lo, hi, steps = _parse_grid_flag(text)
        if name not in axes and not (figure == "fig5" and name == "k"):
            raise ValueError(f"figure {figure} has no axis {name!r}")
        axes[name] = (lo, hi, steps)
    return axes


def _linspace(lo: float, hi: float, steps: int) -> np.ndarray:
    return np.linspace(lo, hi, steps)


def _ebn_order_canonical(lams, cap: int) -> NcResult:
    """Smallest n with sum |lambda_i|^n <= 1 (diagonal-channel geometry).

    A largest multiplier of modulus >= 1 makes the sum exceed 1 for every n
    unless the other two vanish, so that edge is decided exactly rather than
    through the floating tolerance (1 + 2 * 0.5^n would otherwise dip inside
    any fixed slack at large n).
    """
    mags = np.sort(np.abs(np.asarray(lams, dtype=float)))[::-1]
    if mags[0] >= 1.0:
        if mags[0] <= 1.0 and mags[1] == 0.0:
            return NcResult(1, cap)
        return NcResult(None, cap, proven_divergent=True)
    for n in range(1, cap + 1):
        if float((mags**n).sum()) <= 1.0 + 1e-12:
            return NcResult(n, cap)
    return NcResult(None, cap)


def _rows_fig1(axes, fixed, cap):
    lam3 = float(fixed["lambda3"])
    l1s = _linspace(*axes["lambda1"])
    l2s = _linspace(*axes["lambda2"])
    for l1 in l1s:
        for l2 in l2s:
            order = _ebn_order_canonical((l1, l2, lam3), cap)
            yield (float(l1), float(l2), _nc_cell(order))


def _rows_fig2(axes, fixed, cap):
    ps = _linspace(*axes["p"])
    gs = _linspace(*axes["gamma"])
    for p in ps:
        for g in gs:
            order = gadforms.n_c_gad(float(p), float(g), cap)
            yield (float(p), float(g), _nc_cell(order))


def _rows_fig2_inset(axes, fixed, cap):
    gamma = float(fixed["gamma"])
    for p in _linspace(*axes["p"]):
        yield (
            float(p),
            gadforms.mu_c_gad(float(p), gamma),
            gadforms.mu_c_gad_squared(float(p), gamma),
        )


_S1 = FilterCandidate.pauli(1)
_R2R1 = FilterCandidate.r2r1()


def _rows_fig3(axes, fixed, cap):
    """The whole grid in two stacked calls: s1 on every point, then r2r1 on
    the points s1 leaves."""
    ps, gs = np.meshgrid(_linspace(*axes["p"]), _linspace(*axes["gamma"]), indexing="ij")
    ps, gs = ps.ravel(), gs.ravel()
    by_s1 = gad_amendable(ps, gs, _S1)
    by_pair = np.zeros_like(by_s1)
    by_pair[~by_s1] = gad_amendable(ps[~by_s1], gs[~by_s1], _R2R1)
    for p, g, s1, pair in zip(ps.tolist(), gs.tolist(), by_s1.tolist(), by_pair.tolist()):
        yield (p, g, s1 or pair, "s1" if s1 else ("r2r1" if pair else ""))


def _filter_from_name(name: str) -> FilterCandidate:
    if name == "s1":
        return _S1
    if name == "r2r1":
        return _R2R1
    raise ValueError(f"unknown filter name {name!r} (use s1 or r2r1)")


def _rows_fig4(axes, fixed, cap):
    gamma = float(fixed["gamma"])
    filt = _filter_from_name(str(fixed["filter"]))
    for p in _linspace(*axes["p"]):
        base = gad_kraus(GadParams(float(p), gamma))
        filtered = sandwich(base, filt)
        yield (
            float(p),
            gadforms.mu_c_gad_squared(float(p), gamma),
            mu_c_search(filtered).value,
        )


_FIG5_K_DEFAULT = {"attenuation": (0.02, 0.98), "amplification": (1.02, 3.0)}


def _fig5_families(fixed) -> tuple:
    chosen = str(fixed["family"])
    if chosen == "both":
        return ("attenuation", "amplification")
    if chosen not in _FIG5_K_DEFAULT:
        raise ValueError(f"unknown family {chosen!r}")
    return (chosen,)


def _fig5_ks(family: str, axes, k_override) -> np.ndarray:
    """The k axis of one family: the --grid k flag, else the family's default
    range at the n0 axis's step count."""
    lo, hi = _FIG5_K_DEFAULT[family]
    return _linspace(*(k_override or (lo, hi, axes["n0"][2])))


def _rows_fig5(axes, fixed, cap, k_override):
    n0s = _linspace(*axes["n0"])
    for family in _fig5_families(fixed):
        for k in _fig5_ks(family, axes, k_override):
            for n0 in n0s:
                if family == "attenuation":
                    order = n_c_attenuation(float(k), float(n0), cap)
                else:
                    order = n_c_amplification(float(k), float(n0), cap)
                yield (float(k), float(n0), family, _nc_cell(order))


_HEADERS = {
    "fig1": ("lambda1", "lambda2", "ebn_order"),
    "fig2": ("p", "gamma", "n_c"),
    "fig2-inset": ("p", "mu_c", "mu_c_sq"),
    "fig3": ("p", "gamma", "amendable", "filter_kind"),
    "fig4": ("p", "mu_c_sq", "mu_c_filtered"),
    "fig5": ("k", "n0", "family", "n_c"),
}


def _cmd_sweep(args) -> int:
    figure = args.figure
    if figure not in _FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {sorted(_FIGURES)}")
    axes = _axes_for(figure, args.grid, args.steps)
    fixed = dict(_FIXED_DEFAULTS[figure])
    for text in args.fixed or ():
        name, value = _parse_fixed_flag(text)
        if name not in fixed:
            raise ValueError(f"figure {figure} has no fixed parameter {name!r}")
        fixed[name] = value if name in ("filter", "family") else float(value)

    k_override = None
    for text in args.grid or ():
        name, lo, hi, steps = _parse_grid_flag(text)
        if figure == "fig5" and name == "k":
            k_override = (lo, hi, steps)
    _check_domain(figure, axes, fixed, args.cap, k_override)

    if figure == "fig1":
        rows = _rows_fig1(axes, fixed, args.cap)
    elif figure == "fig2":
        rows = _rows_fig2(axes, fixed, args.cap)
    elif figure == "fig2-inset":
        rows = _rows_fig2_inset(axes, fixed, args.cap)
    elif figure == "fig3":
        rows = _rows_fig3(axes, fixed, args.cap)
    elif figure == "fig4":
        rows = _rows_fig4(axes, fixed, args.cap)
    else:
        rows = _rows_fig5(axes, fixed, args.cap, k_override)

    try:
        out = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    with out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_HEADERS[figure])
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
    return 0


def _check_domain(figure: str, axes, fixed: dict, cap: int, k_override) -> None:
    """``ValueError`` for an axis or fixed value outside the figure's domain,
    raised by the checks its rows would run, so that a bad flag fails before
    ``--out`` is opened.  Every grid value is checked."""
    grids = {name: _linspace(*spec) for name, spec in axes.items()}
    if figure in ("fig1", "fig2", "fig5") and cap < 1:
        raise ValueError("cap must be >= 1")
    if figure == "fig1":
        if not -1.0 <= float(fixed["lambda3"]) <= 1.0:
            raise ValueError("lambda3 must lie in [-1, 1]")
    elif figure == "fig5":
        for family in _fig5_families(fixed):
            for k in _fig5_ks(family, axes, k_override):
                IsoChannel(family, k, 0.0)
            for n0 in grids["n0"]:
                IsoChannel(family, _FIG5_K_DEFAULT[family][0], n0)
    else:
        gammas = grids["gamma"][:, None] if "gamma" in grids else fixed["gamma"]
        check_unit_square(grids["p"], gammas)
        if figure == "fig4":
            _filter_from_name(str(fixed["filter"]))


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

    def nc_of(m, cap=64):
        return lambda: _nc_cell(n_c(UnitalChannel(m), cap))

    fixtures = [
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
        ("threshold cross-identity", 0.0,
         lambda: abs(gadforms.mu_c_gad(gadforms.pbar(0.3), 0.3)
                     - gadforms.mu_c_gad_squared(gadforms.pbarbar(0.3), 0.3)), 1e-9,
         "one-use and two-use branch values coincide"),
        ("deep-band damping order", "1",
         lambda: _nc_cell(gadforms.n_c_gad(0.9, 0.5, 64)), None,
         "0.9 above the first band edge"),
        ("amendable boundary limit", (math.sqrt(5) - 1) / 2,
         lambda: gadforms.amend_boundary_s1(1e-6), 1e-3,
         "boundary curve toward gamma = 0"),
        ("filter restores order 3", "3",
         lambda: _nc_cell(
             n_c(UnitalChannel(_SWAP_XY @ _T), 64)), None,
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
    return fixtures


def _cmd_verify(args) -> int:
    failures = 0
    width = max(len(name) for name, *_ in _verify_fixtures())
    for name, expected, compute, tol, source in _verify_fixtures():
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
    total = len(_verify_fixtures())
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
    p_an.add_argument("--cap", type=int, default=64)
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="CSV phase-diagram data")
    p_sw.add_argument("figure", choices=sorted(_FIGURES))
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--grid", action="append", metavar="AXIS=MIN:MAX:STEPS")
    p_sw.add_argument("--fixed", action="append", metavar="NAME=VALUE")
    p_sw.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_sw.add_argument("--cap", type=int, default=64)
    p_sw.set_defaults(func=_cmd_sweep)

    p_ve = sub.add_parser("verify", help="run the built-in fixture table")
    p_ve.set_defaults(func=_cmd_verify)

    p_am = sub.add_parser("amend", help="search for an order-raising filter")
    p_am.add_argument("channel", help="channel JSON (inline, file path, or - for stdin)")
    p_am.add_argument("--budget", type=int, default=1000)
    p_am.add_argument("--seed", type=int, default=42)
    p_am.add_argument("--cap", type=int, default=64)
    p_am.set_defaults(func=_cmd_amend)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed channel JSON: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
