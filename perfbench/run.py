"""noisegauge benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 10 --trace 0

The workload runs in a fresh interpreter (``worker.py``) that drives
``noisegauge.cli.main`` in process, with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 here rather than in ``src``.  ``setup_s`` is
measured in separate fresh interpreters.  The last line of standard output
is the result as one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced pass with ``--trace 1``.  A run record with
the commit, machine and src line count goes to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _fresh(args, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds() -> float:
    """Median wall time of ``python -m noisegauge.cli --help`` in fresh
    interpreters; the median also drops the first run of a fresh checkout,
    which writes the bytecode caches."""
    times = []
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        _fresh(["-m", "noisegauge.cli", "--help"], 60)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scipy_import_seconds() -> float:
    """Cumulative import time of scipy.optimize when the CLI module is
    imported, from ``-X importtime`` (0 when the CLI no longer imports it)."""
    times = []
    for _ in range(IMPORTTIME_RUNS):
        err = _fresh(["-X", "importtime", "-c", "import noisegauge.cli"], 60).stderr
        cumulative = [int(line.split("|")[1]) for line in err.splitlines()
                      if line.startswith("import time:") and line.split("|")[2].strip() == "scipy.optimize"]
        times.append(cumulative[0] / 1e6 if cumulative else 0.0)
    return statistics.median(times)


def _machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), **versions}


def _commit() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                            capture_output=True, text=True)
    return {"commit": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "noisegauge").glob("*.py")))


def _end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latency"]
    return {
        "setup_s": setup_s,
        "ops_per_s": res["ops_per_pass"] * res["passes"] / sum(res["pass_s"]),
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _report(args, res: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    lat = res["latency"]
    print(f"workload {args.workload}  seed {args.seed}  passes {res['passes']}  "
          f"ops/pass {res['ops_per_pass']}")
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "op_p50_ms": f"p50 of {lat['samples']} samples",
        "op_tail_ms": f"p{lat['tail_pct']:.2f} of {lat['samples']} samples, 10 beyond",
    }
    for key, value in metrics.items():
        print(f"  {key:<40} {value:<14.6g} {units[key]:<6} {notes.get(key, '')}")
    if not args.trace:
        frac = res["failed"] / res["attempted"]
        print(f"  {'fail_frac':<40} {frac:<14.6g} {'ratio':<6} {res['failed']} of {res['attempted']} ops")
        err = res["max_abs_err"]
        print(f"  {'max_abs_err':<40} {'n/a' if err is None else f'{err:.6g}':<14} {'1':<6} "
              "worst |mu_c(search) - closed form| over Kraus requests")
    probe = res["known_defects"]
    if probe["probed"]:
        print(f"  known defects (untimed probes): {probe['failing']} of {probe['probed']} fail "
              f"{probe['by_kind']}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noisegauge" / "cli.py").is_file():
        print(f"error: no noisegauge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        extra = {"setup.scipy_import_s": scipy_import_seconds()} if args.trace else {}
        setup_s = None if args.trace else setup_seconds()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             repr(args.seconds), str(args.trace)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    measured = {**res["per_layer"], **extra} if args.trace else _end_to_end(res, setup_s)
    missing = set(units) - set(measured)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: measured[name] for name in units}
    _report(args, res, metrics, units)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **_commit(), "machine": _machine(res["versions"]), "src_lines": _src_lines(),
        "metrics": metrics, "raw": res,
    }
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
