"""Print one sha256 per family of CLI outputs of a noisegauge checkout.

Usage: python tools/output_digest.py ROOT

ROOT is a checkout (its ``src/`` and ``perfbench/`` are used).  Every call
runs ``noisegauge.cli.main`` in this process with one BLAS thread, and its
argv, exit code, stdout, stderr and any CSV it writes go into the digest of
its family.  Two checkouts whose digests agree answer every call in these
families byte for byte.  The families:

- ``analyze-mix``: the calls, probes and twins of analyze-mix seeds
  2001-2010;
- ``amend-search``: the requests of amend-search seeds 5001-5010;
- ``amend-rotated``: 100 damping channels rotated on both sides by seeded
  SU(2) elements and given in Kraus form, at budget 1000.  Half are drawn
  from band 2, half from the top 2% of band 3, where a rotation often makes
  an amendable channel of order 2;
- ``sweeps``: the six figures at their default grids plus three fig5
  variants;
- ``sweep-errors``: small sweeps with a bad axis, fixed value, cap or flag,
  alone and combined, and non-default runs, each over an ``--out`` file that
  already holds a sentinel, so the digest shows whether it was left untouched;
- ``verify``: the built-in fixture table;
- ``edges``: channels on or near the entanglement-breaking boundary, where
  an answer has depended on the representation or on the slack: the
  dephasing channel diag(1, 0.7, 0.7) in unital and Kraus form at caps 64
  and 200, the damping channel at p_1 - d (gamma = 0.3, d from 1e-9 to
  1e-13) as parameters and in Kraus form, ``amend`` on diag(0.3, 0.3, 1),
  ``analyze`` on diag(-1, 0.1, 0.5) and ``sweep fig1 --fixed lambda3=1`` on
  a 2x2 grid around (0.3, 0.3).

Under ``sweeps`` and ``sweep-errors`` one indented line per figure follows,
with the digest of that figure's calls alone, so a moved cell is traced to
its figure.  The family line is the digest of all its calls, as before.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

FIG5_VARIANTS = (
    ("--grid", "k=0.3:0.9:7", "--fixed", "family=attenuation"),
    ("--grid", "k=1.1:1.9:7", "--fixed", "family=amplification"),
    ("--fixed", "family=attenuation"),
)


def _run(cli, digest, argv, csv=None, figures=None) -> None:
    """Run one call and feed its record to `digest` and, when `figures` is
    given, to the digest of its figure (``argv[1]``) in that dict."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    parts = [repr(tuple(argv)), str(rc), out.getvalue(), err.getvalue()]
    record = b"".join(part.encode() + b"\0" for part in parts)
    if csv is not None:
        record += csv.read_bytes() if csv.exists() else b"<no file>"
        csv.unlink(missing_ok=True)
    digest.update(record)
    if figures is not None:
        figure = figures.setdefault(argv[1], [0, hashlib.sha256()])
        figure[0] += 1
        figure[1].update(record)


def _analyze_mix(cli, workloads, digest) -> int:
    count = 0
    for seed in range(2001, 2011):
        w = workloads.analyze_mix(seed)
        argvs = [c.argv for c in w.calls] + [c.argv for c in w.probes]
        argvs += [w.twins[i] for i in sorted(w.twins)]
        for argv in argvs:
            _run(cli, digest, argv)
        count += len(argvs)
    return count


def _amend_search(cli, workloads, digest) -> int:
    count = 0
    for seed in range(5001, 5011):
        for call in workloads.amend_search(seed).calls:
            _run(cli, digest, call.argv)
            count += 1
    return count


def _amend_rotated(cli, workloads, digest) -> int:
    rng = np.random.default_rng(7001)
    for i in range(100):
        gamma = float(rng.uniform(0.05, 0.95))
        if i % 2 == 0:
            p = workloads._in_band(rng, gamma, 2)
        else:
            p2, p3 = workloads.oracle.p_n(gamma, 2), workloads.oracle.p_n(gamma, 3)
            p = float(rng.uniform(p2 - 0.02 * (p2 - p3), p2))
        u, v = workloads._su2(rng), workloads._su2(rng)
        ops = [u @ e @ v for e in workloads._gad_ops(p, gamma)]
        seed = str(int(rng.integers(1 << 30)))
        _run(cli, digest, ("amend", workloads._kraus_json(ops), "--seed", seed))
    return 100


def _sweeps(cli, workloads, digest, figures) -> int:
    runs = [(fig,) for fig in ("fig1", "fig2", "fig2-inset", "fig3", "fig4", "fig5")]
    runs += [("fig5",) + flags for flags in FIG5_VARIANTS]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for fig, *flags in runs:
            _run(cli, digest, ("sweep", fig, "--out", "out.csv", *flags), Path("out.csv"),
                 figures)
    return len(runs)


SWEEP_ERRORS = (
    # a bad axis, fixed value or cap, some of them at a later grid point
    ("fig1", "--fixed", "lambda3=1.5"),
    ("fig1", "--cap", "0"),
    ("fig1", "--steps", "-1"),
    ("fig1", "--steps", "0"),
    ("fig1", "--grid", "lambda1=-2:2:5"),
    ("fig1", "--grid", "lambda2=0:2:3"),
    ("fig2", "--steps", "1"),
    ("fig2", "--grid", "p=0.5:1.5:3"),
    ("fig2", "--grid", "gamma=0.5:1.5:3"),
    ("fig2", "--cap", "0"),
    ("fig2-inset", "--grid", "p=-0.5:0.5:3"),
    ("fig2-inset", "--grid", "p=0.5:1.5:3"),
    ("fig2-inset", "--fixed", "gamma=1.5"),
    ("fig3", "--grid", "gamma=-0.5:0.5:3"),
    ("fig4", "--grid", "p=0.5:1.5:3"),
    ("fig4", "--fixed", "filter=s9"),
    ("fig5", "--fixed", "family=attenuation", "--grid", "k=0.5:1.5:3"),
    ("fig5", "--grid", "k=0.5:0.9:3"),
    ("fig5", "--grid", "n0=-1:1:3"),
    ("fig5", "--fixed", "family=squeezing"),
    ("fig5", "--cap", "0"),
    # combined bad flags: which error wins
    ("fig1", "--cap", "0", "--grid", "lambda1=-2:2:5"),
    ("fig2", "--cap", "0", "--grid", "gamma=0.5:1.5:3"),
    ("fig5", "--cap", "0", "--fixed", "family=squeezing"),
    ("fig5", "--cap", "0", "--grid", "n0=-1:1:3"),
    ("fig1", "--cap", "0", "--grid", "mu=0:1:3"),
    ("fig3", "--grid", "k=0:1:3"),
    ("fig2", "--fixed", "gamma=0.5"),
    ("fig4", "--fixed", "delta=1", "--grid", "p=0.5:1.5:3"),
    ("fig4", "--fixed", "filter=s9", "--fixed", "gamma=2"),
    ("fig2", "--grid", "p=0:1", "--fixed", "gamma"),
    ("fig2-inset", "--grid", "p=0:1:x"),
    ("fig1", "--steps", "1", "--grid", "lambda1=0:1:x"),
    ("fig1", "--fixed", "lambda3"),
    ("fig1", "--fixed", "lambda3=abc", "--grid", "lambda1=-2:2:5"),
    ("fig1", "--fixed", "lambda3=nan"),
    ("fig1", "--grid", "lambda1=nan:1:3"),
    ("fig1", "--grid", "lambda1=-inf:1:3"),
    ("fig2", "--grid", "p=0:inf:3"),
    ("fig5", "--fixed", "family=attenuation", "--grid", "k=0.5:inf:3"),
    ("fig5", "--fixed", "family=amplification", "--grid", "k=0.5:1.5:3",
     "--grid", "n0=-1:1:3"),
    # accepted: figures that read no cap, and non-default runs
    ("fig2-inset", "--cap", "0"),
    ("fig3", "--cap", "0"),
    ("fig4", "--cap", "0"),
    ("fig4", "--fixed", "filter=r2r1"),
    ("fig1", "--fixed", "lambda3=-1"),
    ("fig1", "--fixed", "lambda3=1", "--grid", "lambda1=-0.5:0.5:4"),
    ("fig2-inset", "--fixed", "gamma=0.9", "--grid", "p=0.2:0.8:5"),
    ("fig5", "--fixed", "family=amplification", "--grid", "k=1.5:2:3",
     "--grid", "n0=0:1:4"),
    ("fig5", "--cap", "2"),
    ("fig5", "--grid", "k=0.3:0.9:4", "--grid", "k=1.2:1.8:4", "--cap", "2"),
)
SENTINEL = b"p,gamma,amendable,filter_kind\n0.5,0.5,false,\n"


def _sweep_errors(cli, workloads, digest, figures) -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for fig, *flags in SWEEP_ERRORS:
            out = Path("out.csv")
            out.write_bytes(SENTINEL)
            _run(cli, digest, ("sweep", fig, "--out", str(out), "--steps", "3", *flags), out,
                 figures)
    return len(SWEEP_ERRORS)


def _verify(cli, workloads, digest) -> int:
    _run(cli, digest, ("verify",))
    return 1


def _edges(cli, workloads, digest) -> int:
    from noisegauge import GadParams, UnitalChannel, as_kraus, channel_to_json, p_n

    def forms(c):
        return [json.dumps(channel_to_json(c)), json.dumps(channel_to_json(as_kraus(c)))]

    argvs = [("analyze", text, "--cap", cap)
             for text in forms(UnitalChannel(np.diag([1.0, 0.7, 0.7])))
             for cap in ("64", "200")]
    edge = p_n(0.3, 1)
    argvs += [("analyze", text)
              for d in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13)
              for text in forms(GadParams(edge - d, 0.3))]
    argvs += [
        ("amend", json.dumps(channel_to_json(UnitalChannel(np.diag([0.3, 0.3, 1.0]))))),
        ("analyze", json.dumps(channel_to_json(UnitalChannel(np.diag([-1.0, 0.1, 0.5]))))),
    ]
    for argv in argvs:
        _run(cli, digest, argv)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _run(cli, digest, ("sweep", "fig1", "--out", "out.csv", "--fixed", "lambda3=1",
                           "--grid", "lambda1=0.2:0.4:2", "--grid", "lambda2=0.2:0.4:2"),
             Path("out.csv"))
    return len(argvs) + 1


FAMILIES = {
    "analyze-mix": _analyze_mix,
    "amend-search": _amend_search,
    "amend-rotated": _amend_rotated,
    "sweeps": _sweeps,
    "sweep-errors": _sweep_errors,
    "verify": _verify,
    "edges": _edges,
}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from noisegauge import cli
    import workloads

    for name, family in FAMILIES.items():
        digest, figures = hashlib.sha256(), {}
        if name in ("sweeps", "sweep-errors"):
            count = family(cli, workloads, digest, figures)
        else:
            count = family(cli, workloads, digest)
        print(f"{name:14s} {count:4d} {digest.hexdigest()}")
        for fig, (calls, fig_digest) in sorted(figures.items()):
            print(f"  {fig:12s} {calls:4d} {fig_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
