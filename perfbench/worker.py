"""Run one workload in this interpreter and print its raw result as JSON.

Started by ``run.py`` in a fresh interpreter with the BLAS thread pools
pinned to one thread.  Usage:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

The timed loop repeats whole passes over the workload's calls, closed loop
with one client, until at least SECONDS have passed and at least three
passes are done.  The warm-up is not timed; ``cli.main`` still builds its
parser on every call, as it does for users.  Answers are checked after the
timed loop.  With TRACE = 1, one more pass runs under the tracer and the
per-layer numbers are computed from its spans.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTable, TraceError, Tracer  # noqa: E402

MIN_PASSES = 3
SWEEP_SAMPLE = 2000  # rows checked per sweep call (all rows when fewer)

# Layers each workload must reach; zero calls into one of them means the
# workload no longer measures what it was built for.
EXERCISED = {
    "analyze-mix": ("cli", "measures", "channels", "separability", "linalg", "gad",
                    "gaussian", "report"),
    "sweep-closed": ("cli", "gad", "gaussian", "report"),
    "sweep-filtered": ("cli", "measures", "channels", "separability", "linalg", "gad",
                       "amend"),
    "amend-search": ("cli", "measures", "channels", "separability", "linalg", "amend",
                     "report"),
}
SWEEP_FIGS = ("fig1", "fig2", "fig2-inset", "fig5", "fig3", "fig4")


class _Sink:
    """In-memory stand-in for the sweep output file that time-stamps writes."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter_ns())
        self.parts.append(text)
        return len(text)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


class Runner:
    """Invokes ``noisegauge.cli.main`` in process and captures its answer."""

    def __init__(self, per_row: bool):
        from noisegauge import cli

        self.cli = cli
        self.per_row = per_row
        self.sinks: list[_Sink] = []
        if per_row:
            # The sweep writes through the module-level name ``open``.
            cli.open = self._open

    def _open(self, path, mode="r", *args, **kwargs):
        if "w" not in mode:
            return open(path, mode, *args, **kwargs)
        sink = _Sink()
        self.sinks.append(sink)
        return sink

    def close(self) -> None:
        if self.per_row:
            del self.cli.open

    def run(self, argv):
        """-> (exit code or error text, text, latencies in ns)."""
        out, err = io.StringIO(), io.StringIO()
        self.sinks.clear()
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash fails this op; the run goes on
            rc = f"exception {exc!r}"
        t1 = time.perf_counter_ns()
        if rc != 0:
            return f"exit {rc}: {err.getvalue().strip()}", "", None
        if not self.per_row:
            return 0, out.getvalue(), np.array([t1 - t0])
        if not self.sinks:
            raise RuntimeError("sweep wrote nothing through open(); the row timing needs updating")
        return 0, "".join(self.sinks[-1].parts), _row_latencies(self.sinks[-1], t0, t1)


def _row_latencies(sink: _Sink, t0: int, t1: int) -> np.ndarray:
    """Per-row latency: time since the previous write, shared by the lines it
    wrote.  The header's share (parser, set-up) goes to the first row and the
    time after the last write to the last row, so the rows sum to the call."""
    stamps = np.array(sink.stamps, dtype=np.int64)
    lines = np.array([p.count("\n") for p in sink.parts])
    keep = lines > 0
    stamps, lines = stamps[keep], lines[keep]
    dts = np.diff(np.concatenate(([t0], stamps)))
    per_line = np.repeat(dts / lines, lines)
    rows = per_line[1:].copy()
    rows[0] += per_line[0]
    rows[-1] += t1 - stamps[-1]
    return rows


def _ops(call, per_row: bool) -> int:
    return call.rows if per_row else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.BUILDERS[name](seed)
    runner = Runner(w.per_row)
    for call in w.warmup:
        runner.run(call.argv)

    ops_per_pass = sum(_ops(c, w.per_row) for c in w.calls)
    first: list = [None] * len(w.calls)
    lat: list = [[] for _ in w.calls]
    failed_calls: dict[int, str] = {}
    drift = 0  # ops whose answer differed from the first pass
    pass_s = []
    started = time.perf_counter()
    # Whole passes only; stop at the pass boundary closest to SECONDS.
    while len(pass_s) < MIN_PASSES or (time.perf_counter() - started
                                       + 0.5 * float(np.mean(pass_s))) < seconds:
        gc.collect()
        t = time.perf_counter_ns()
        results = [runner.run(c.argv) for c in w.calls]
        pass_s.append((time.perf_counter_ns() - t) / 1e9)
        for i, (rc, text, ns) in enumerate(results):
            if rc != 0:
                failed_calls.setdefault(i, str(rc))
                continue
            lat[i].append(ns)
            if first[i] is None:
                first[i] = text
            elif text != first[i]:
                drift += _ops(w.calls[i], w.per_row)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(pass_s)

    # -- answers, checked outside the timed region ------------------------
    rng = np.random.default_rng(seed)
    failed = drift
    for i, call in enumerate(w.calls):
        if i in failed_calls:
            failed += _ops(call, w.per_row) * passes
            continue
        if w.per_row:
            sample = None if call.rows <= SWEEP_SAMPLE else rng.choice(call.rows, SWEEP_SAMPLE,
                                                                         replace=False)
            errs = workloads.check_sweep(call, first[i], sample)
            if errs:
                failed_calls[i] = errs[0]
            failed += len(errs) * passes
        else:
            errs = workloads.check_request(call, first[i])
            if not errs and i in w.twins:
                errs = _twin_errors(runner, first[i], w.twins[i])
            if errs:
                failed_calls[i] = errs[0]
                failed += passes

    result = {
        "passes": passes,
        "ops_per_pass": ops_per_pass,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops_per_pass * passes,
        "failed": failed,
        "failures": [f"{w.calls[i].kind}: {msg}" for i, msg in sorted(failed_calls.items())][:10],
        "latency": _latency_summary(lat),
        "max_abs_err": _max_abs_err(w, first),
        "known_defects": _probe(runner, w.probes),
        "versions": _versions(),
    }
    if trace:
        result["per_layer"] = _traced_pass(runner, w, first, result)
    runner.close()
    return result


def _versions() -> dict:
    import scipy

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def _twin_errors(runner: Runner, text: str, twin_argv) -> list:
    """The same channel in its other form must give the same answer."""
    rc, twin_text, _ = runner.run(twin_argv)
    if rc != 0:
        return [f"other form fails: {rc}"]
    a, b = json.loads(text), json.loads(twin_text)
    if a["n_c"] != b["n_c"]:
        return [f"n_c {a['n_c']} but {b['n_c']} in the other form"]
    if abs(a["mu_c"] - b["mu_c"]) > oracle.MU_TOL:
        return [f"mu_c {a['mu_c']} but {b['mu_c']} in the other form"]
    return []


def _op_latency(passes: list) -> np.ndarray:
    """An op's latency over the passes: the mean after dropping the fastest
    and the slowest pass (the median when there are three)."""
    ordered = np.sort(np.stack(passes), axis=0)
    return ordered[1:-1].mean(axis=0) if len(ordered) >= 3 else ordered.mean(axis=0)


def _latency_summary(lat: list) -> dict:
    """Percentiles over the ops' latencies (``_op_latency``).  On a shared
    VM, other tenants can flip the speed between a fast and a slow state
    (1.7x apart on a 2-vCPU Xeon VM) every second or so, with the share of
    time in each drifting over minutes: a median over a few passes then
    jumps between the states, while a mean moves in proportion to the
    share.  Dropping the extremes keeps a single scheduler stall, which can
    be 100 times a µs-scale sweep row, out of the row's latency."""
    samples = np.concatenate([_op_latency(s) for s in lat if s]) / 1e6
    n = len(samples)
    if n < 11:
        raise RuntimeError(f"only {n} ops; the tail percentile needs at least 11")
    ordered = np.sort(samples)
    return {
        "p50_ms": float(np.median(ordered)),
        "tail_ms": float(ordered[n - 11]),  # 10 ops lie beyond it
        "tail_pct": 100.0 * (n - 10) / n,
        "samples": n,
    }


def _max_abs_err(w, first) -> float | None:
    errs = [workloads.mu_abs_err(c, t) for c, t in zip(w.calls, first) if t is not None]
    errs = [e for e in errs if e is not None]
    return max(errs) if errs else None


def _probe(runner: Runner, probes) -> dict:
    """Known-defect inputs (ROADMAP item 4), run untimed and reported apart
    from the workload's own failures."""
    found = {}
    for call in probes:
        rc, text, _ = runner.run(call.argv)
        errs = [str(rc)] if rc != 0 else workloads.check_request(call, text)
        if errs:
            found[call.kind] = found.get(call.kind, 0) + 1
    return {"probed": len(probes), "failing": sum(found.values()), "by_kind": found}


def _traced_pass(runner: Runner, w, first, result) -> dict:
    tracer = Tracer()
    tracer.install()
    exits = 0
    gc.collect()
    t = time.perf_counter_ns()
    try:
        for i, call in enumerate(w.calls):
            tracer.current_request = i
            rc, text, _ = runner.run(call.argv)
            exits += rc != 0
            if text != first[i]:
                result["failed"] += _ops(call, w.per_row)
                result["failures"].append(f"{call.kind}: traced answer differs")
    finally:
        traced_s = (time.perf_counter_ns() - t) / 1e9
        tracer.uninstall()
    result["attempted"] += result["ops_per_pass"]
    out_dir = HERE.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{w.name}.npz", [c.kind for c in w.calls])

    table = SpanTable(tracer)
    for layer in EXERCISED[w.name]:
        if not table.layer_mask(layer).any():
            raise TraceError(f"{w.name} made no calls into the {layer} layer")
    untraced = result["ops_per_pass"] * result["passes"] / sum(result["pass_s"])
    traced = result["ops_per_pass"] / traced_s
    return layer_metrics(table, tracer, w, exits, 1.0 - traced / untraced, result)


def layer_metrics(t: SpanTable, tracer: Tracer, w, exits: int, overhead: float,
                  result: dict) -> dict:
    kinds = np.array([c.kind for c in w.calls] + [""], dtype=object)
    main = t.mask("cli.main")
    req_kind = kinds[t.request]

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(layer, where=None):
        m = t.layer_mask(layer) if where is None else t.layer_mask(layer) & where
        return float(t.self_time[m].sum())

    m = {
        "cli.self_s": self_s("cli"),
        "cli.main_calls": t.count("cli.main"),
        "cli.exit_nonzero": exits,
    }
    for fig in SWEEP_FIGS:
        m[f"cli.sweep_{fig}_s"] = float(t.dur[main & (req_kind == fig)].sum())
    mu_calls = t.count("measures.mu_c_search")
    eig_in_mu = int((t.mask("numpy.linalg.eigvalsh") & t.under("measures.mu_c_search")).sum())
    m.update({
        "measures.mu_c_search_calls": mu_calls,
        "measures.mu_c_search_s": t.total("measures.mu_c_search"),
        "measures.mu_evals": tracer.mu_evals,
        "measures.eig_per_mu_eval": ratio(eig_in_mu, tracer.mu_evals),
        "measures.n_c_calls": t.count("measures.n_c"),
        "measures.n_c_s": t.total("measures.n_c"),
        "measures.n_c_steps": tracer.nc_steps,
        "measures.max_abs_err": result["max_abs_err"] or 0.0,
        "measures.self_s": self_s("measures"),
    })
    compose = t.count("channels.compose_kraus")
    m.update({
        "channels.choi_calls": t.count("channels.choi"),
        "channels.choi_s": t.total("channels.choi"),
        "channels.compose_kraus_calls": compose,
        "channels.compose_kraus_s": t.total("channels.compose_kraus"),
        "channels.kraus_from_choi_calls": t.count("channels.kraus_from_choi"),
        "channels.prune_per_compose": ratio(
            int(t.child_of("channels.kraus_from_choi", "channels.compose_kraus").sum()), compose),
        "channels.self_s": self_s("channels"),
        "separability.is_eb_calls": t.count("separability.is_eb"),
        "separability.is_eb_s": t.total("separability.is_eb"),
        "separability.min_pt_eigenvalue_calls": t.count("separability.min_pt_eigenvalue"),
        "separability.choistate_calls": t.count("separability.ChoiState.__post_init__"),
        "separability.self_s": self_s("separability"),
        "linalg.eigvalsh_calls": t.count("numpy.linalg.eigvalsh"),
        "linalg.eigh_calls": t.count("numpy.linalg.eigh"),
        "linalg.svd_calls": t.count("numpy.linalg.svd"),
        "linalg.lapack_s": sum(t.total(f"numpy.linalg.{f}") for f in
                               ("eigvalsh", "eigh", "svd", "eig", "eigvals", "det", "inv", "solve")),
        "linalg.trace_norm_calls": t.count("linalg.trace_norm"),
    })
    n_c_gad = t.count("gad.n_c_gad")
    iso = t.outermost(("gaussian.n_c_iso", "gaussian.n_c_attenuation",
                       "gaussian.n_c_amplification"))
    searches = t.count("amend.search_filter")
    m.update({
        "gad.n_c_gad_calls": n_c_gad,
        "gad.p_n_calls": t.count("gad.p_n"),
        "gad.p_n_per_n_c": ratio(int(t.child_of("gad.p_n", "gad.n_c_gad").sum()), n_c_gad),
        "gad.mu_c_gad_s": t.total("gad.mu_c_gad"),
        "gad.self_s": self_s("gad"),
        "gaussian.n_c_iso_calls": int(iso.sum()),
        "gaussian.n_c_iso_s": float(t.dur[iso].sum()),
        "amend.search_filter_s": t.total("amend.search_filter"),
        "amend.candidates_per_search": ratio(t.count("amend.apply_filter"), searches),
        "amend.amendable_frac": ratio(sum(tracer.amendable), len(tracer.amendable)),
        "amend.gad_amendable_calls": t.count("amend.gad_amendable"),
        "amend.gad_amendable_s": t.total("amend.gad_amendable"),
        "amend.sandwich_calls": t.count("amend.sandwich"),
        "amend.self_s": self_s("amend"),
        "report.self_s": self_s("report"),
    })
    kraus = np.array([k.startswith("kraus") for k in req_kind])
    closed = np.isin(req_kind, ("gad", "unital", "gauss"))
    kernel = sum(self_s(layer, kraus) for layer in ("measures", "channels", "separability"))
    m.update({
        "trace.overhead_frac": overhead,
        "trace.kraus_kernel_frac": ratio(kernel, float(t.dur[main & kraus].sum())),
        "trace.closed_cli_frac": ratio(self_s("cli", closed), float(t.dur[main & closed].sum())),
        "oracle.known_defects": result["known_defects"]["failing"],
    })
    return m


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    result = run_workload(name, seed, seconds, trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
