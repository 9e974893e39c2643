"""Print one sha256 per family of CLI outputs of a noisegauge checkout, or
compare the outputs of two checkouts field by field.

Usage: python tools/output_digest.py ROOT
       python tools/output_digest.py --compare ROOT_A ROOT_B

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
- ``amend-budgets``: 60 damping channels rotated on both sides and given in
  Kraus form, 20 from each of bands 2, 3 and 4, half of them drawn from the
  whole band and half from its top 5%, each at ``--budget`` 1, 8 and 64,
  where the refinement has the most to add to a coarse lattice;
- ``sweeps``: the six figures at their default grids plus three fig5
  variants, and the order columns off their defaults, where a row can need
  many powers: fig1 at ``--fixed lambda3=`` -0.45, 0.99, 1.0 and 0.0,
  fig1 at ``--steps 600``, fig2 at ``--steps 700``, and fig1 and fig2 at
  ``--cap`` 1, 8 and 200;
- ``sweep-errors``: small sweeps with a bad axis, fixed value, cap or flag,
  alone and combined, and non-default runs, each over an ``--out`` file that
  already holds a sentinel, so the digest shows whether it was left untouched;
- ``verify``: the built-in fixture table;
- ``edges``: channels on or near the entanglement-breaking boundary, where
  an answer has depended on the representation or on the slack: the
  dephasing channel diag(1, 0.7, 0.7) in unital and Kraus form at caps 64
  and 200, the damping channel at p_1 - d (gamma = 0.3, d from 1e-9 to
  1e-13) as parameters, in Kraus form and in Kraus form rotated on both
  sides by two seeded SU(2) elements, where ``mu_c_search`` reads the
  channel in its normal frame, one seeded CP unital channel in Kraus form,
  rotated on both sides, ``amend`` on diag(0.3, 0.3, 1), ``analyze`` on
  diag(-1, 0.1, 0.5), ``amend`` at ``--budget`` 8 and 1000 on the damping
  channel at p_1 - d and at p_1 + d (gamma = 0.3, d from 1e-9 to 1e-13) in
  the same three forms, where the search answers order 1 without a scan on
  one side of the edge and scans from order 2 on the other, ``amend`` on the
  entanglement-breaking unital channel diag(0.4, 0.3, 0.2), ``analyze
  --cap 200`` on the damping channel at p = 0.5 and gamma = 1e-12, 1e-16
  and 1e-17, where the band edge p_n cancels, ``amend`` on the swap channel
  [[0, 0.5, 0], [0.73, 0, 0], [0, 0, 0.5]] and on diag(0.73, 0.5, 0.5),
  where a named filter ties the inverse polar rotation, and ``sweep fig1
  --fixed lambda3=1`` on a 2x2 grid around (0.3, 0.3);
- ``barrier``: calls whose threshold the normal-form guess does not
  certify, so ``mu_c_search`` runs its barrier solve: ``sweep fig4 --fixed
  filter=r2r1`` at the default grid, and ``analyze`` on 40 seeded Kraus
  channels of rank 2 to 4 and on their mixtures with the depolarizing map,
  1e-2 to 1e-10 in weight inside the entanglement-breaking boundary.  The
  channels are built with numpy alone, so every checkout gets the same
  bytes.

Under ``sweeps`` and ``sweep-errors`` one indented line per figure follows,
with the digest of that figure's calls alone, so a moved cell is traced to
its figure.  The family line is the digest of all its calls, as before.

``--compare`` runs every call on both checkouts, each in a fresh process,
and prints per family either ``identical`` or the largest absolute change
of each numeric field that moved (a JSON key of stdout, list indices
written ``[]``, or a CSV column), followed by one indented line per
non-numeric difference: an argv, exit code, stderr or non-JSON stdout that
differs, a string, boolean or non-finite field that differs, JSON of
another shape, or a number that is zero on one side only (``mu_c`` reads 0
exactly when the channel is entanglement breaking).  A family that is not
identical ends its line with the count of those zero flips.  A gate such as
"every number within 1e-11, no zero flips, everything else byte-identical"
is then one read of its output.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import csv as csvlib
import hashlib
import io
import json
import math
import multiprocessing
import sys
import tempfile
from pathlib import Path

import numpy as np

FIG5_VARIANTS = (
    ("--grid", "k=0.3:0.9:7", "--fixed", "family=attenuation"),
    ("--grid", "k=1.1:1.9:7", "--fixed", "family=amplification"),
    ("--fixed", "family=attenuation"),
)
ORDER_VARIANTS = (
    *(("fig1", "--fixed", f"lambda3={lam3}") for lam3 in ("-0.45", "0.99", "1.0", "0.0")),
    ("fig1", "--steps", "600"),
    ("fig2", "--steps", "700"),
    *((fig, "--cap", cap) for fig in ("fig1", "fig2") for cap in ("1", "8", "200")),
)


def _run(cli, sink, argv, csv=None) -> None:
    """Run one call and pass its record (argv, exit code, stdout, stderr,
    and the bytes of the CSV at `csv`, b"<no file>" when there is none, or
    None when the call writes no CSV) to `sink`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    data = None
    if csv is not None:
        data = csv.read_bytes() if csv.exists() else b"<no file>"
        csv.unlink(missing_ok=True)
    sink((tuple(argv), rc, out.getvalue(), err.getvalue(), data))


def _encode(record) -> bytes:
    """The bytes of a record that the digests hash."""
    argv, rc, out, err, data = record
    parts = [repr(argv), str(rc), out, err]
    return b"".join(part.encode() + b"\0" for part in parts) + (data or b"")


def _analyze_mix(cli, workloads, sink) -> None:
    for seed in range(2001, 2011):
        w = workloads.analyze_mix(seed)
        argvs = [c.argv for c in w.calls] + [c.argv for c in w.probes]
        argvs += [w.twins[i] for i in sorted(w.twins)]
        for argv in argvs:
            _run(cli, sink, argv)


def _amend_search(cli, workloads, sink) -> None:
    for seed in range(5001, 5011):
        for call in workloads.amend_search(seed).calls:
            _run(cli, sink, call.argv)


def _amend_rotated(cli, workloads, sink) -> None:
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
        _run(cli, sink, ("amend", workloads._kraus_json(ops), "--seed", seed))


def _amend_budgets(cli, workloads, sink) -> None:
    rng = np.random.default_rng(7002)
    for i in range(60):
        band, gamma = 2 + i % 3, float(rng.uniform(0.05, 0.95))
        if i % 2 == 0:
            p = workloads._in_band(rng, gamma, band)
        else:
            top = workloads.oracle.p_n(gamma, band - 1)
            edge = workloads.oracle.p_n(gamma, band)
            p = float(rng.uniform(top - 0.05 * (top - edge), top))
        u, v = workloads._su2(rng), workloads._su2(rng)
        text = workloads._kraus_json([u @ e @ v for e in workloads._gad_ops(p, gamma)])
        seed = str(int(rng.integers(1 << 30)))
        for budget in ("1", "8", "64"):
            _run(cli, sink, ("amend", text, "--budget", budget, "--seed", seed))


def _sweeps(cli, workloads, sink) -> None:
    runs = [(fig,) for fig in ("fig1", "fig2", "fig2-inset", "fig3", "fig4", "fig5")]
    runs += [("fig5",) + flags for flags in FIG5_VARIANTS]
    runs += list(ORDER_VARIANTS)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for fig, *flags in runs:
            _run(cli, sink, ("sweep", fig, "--out", "out.csv", *flags), Path("out.csv"))


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


def _sweep_errors(cli, workloads, sink) -> None:
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for fig, *flags in SWEEP_ERRORS:
            out = Path("out.csv")
            out.write_bytes(SENTINEL)
            _run(cli, sink, ("sweep", fig, "--out", str(out), "--steps", "3", *flags), out)


def _verify(cli, workloads, sink) -> None:
    _run(cli, sink, ("verify",))


def _edges(cli, workloads, sink) -> None:
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
    # the normal-form frame on the boundary: the same damping channels and
    # one CP unital channel in Kraus form, rotated on both sides
    rng = np.random.default_rng(7003)
    u, v = workloads._su2(rng), workloads._su2(rng)
    for d in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
        ops = [u @ e @ v for e in workloads._gad_ops(edge - d, 0.3)]
        argvs.append(("analyze", workloads._kraus_json(ops)))
    argvs.append(("analyze", workloads._kraus_json(workloads._cp_unital(rng, eb=False)[0])))
    argvs += [
        ("amend", json.dumps(channel_to_json(UnitalChannel(np.diag([0.3, 0.3, 1.0]))))),
        ("analyze", json.dumps(channel_to_json(UnitalChannel(np.diag([-1.0, 0.1, 0.5]))))),
    ]
    # the filter search on both sides of p_1, where the channel's own
    # order-1 decision stands for every filter's
    for d in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
        for p in (edge - d, edge + d):
            ops = [u @ e @ v for e in workloads._gad_ops(p, 0.3)]
            texts = forms(GadParams(p, 0.3)) + [workloads._kraus_json(ops)]
            argvs += [("amend", text, "--budget", budget)
                      for text in texts for budget in ("8", "1000")]
    argvs.append(("amend", json.dumps(channel_to_json(UnitalChannel(np.diag([0.4, 0.3, 0.2]))))))
    # p_n cancels for 4 gamma (1 - gamma) below about 1.1e-16
    argvs += [("analyze", json.dumps({"kind": "gad", "p": 0.5, "gamma": g}), "--cap", "200")
              for g in (1e-12, 1e-16, 1e-17)]
    # unital channels where a named filter ties the inverse polar rotation
    argvs += [("amend", json.dumps({"kind": "unital", "t": t}))
              for t in ([0, 0.5, 0, 0.73, 0, 0, 0, 0, 0.5], [0.73, 0, 0, 0, 0.5, 0, 0, 0, 0.5])]
    for argv in argvs:
        _run(cli, sink, argv)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _run(cli, sink, ("sweep", "fig1", "--out", "out.csv", "--fixed", "lambda3=1",
                         "--grid", "lambda1=0.2:0.4:2", "--grid", "lambda2=0.2:0.4:2"),
             Path("out.csv"))


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))


def _kraus_text(ops) -> str:
    return json.dumps({"kind": "kraus", "ops": [
        [[float(x.real), float(x.imag)] for x in e.ravel()] for e in ops]})


def _barrier(cli, workloads, sink) -> None:
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _run(cli, sink, ("sweep", "fig4", "--out", "out.csv", "--fixed", "filter=r2r1"),
             Path("out.csv"))
    rng = np.random.default_rng(7004)
    kept = 0
    while kept < 40:
        rank = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2)))
        ops = [q[2 * i:2 * i + 2] for i in range(rank)]
        # the smallest eigenvalue lam of the partial transpose of the Choi
        # matrix; mixing in the depolarizing map at weight p moves it to
        # (1 - p) lam + p/4, which is 0 at p = -4 lam / (1 - 4 lam)
        vecs = np.array([e.T.ravel() for e in ops])
        choi = np.einsum("ki,kj->ij", vecs, vecs.conj()) / 2
        lam = np.linalg.eigvalsh(choi.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))[0]
        if lam >= -0.01:
            continue
        kept += 1
        p = -4.0 * lam / (1.0 - 4.0 * lam) - 10.0 ** -rng.uniform(2.0, 10.0)
        mixed = [np.sqrt(1.0 - p) * e for e in ops] + [np.sqrt(p) / 2 * s for s in _PAULIS]
        for text in (_kraus_text(ops), _kraus_text(mixed)):
            _run(cli, sink, ("analyze", text))


FAMILIES = {
    "analyze-mix": _analyze_mix,
    "amend-search": _amend_search,
    "amend-rotated": _amend_rotated,
    "amend-budgets": _amend_budgets,
    "sweeps": _sweeps,
    "sweep-errors": _sweep_errors,
    "verify": _verify,
    "edges": _edges,
    "barrier": _barrier,
}


# Families with one digest line per figure, keyed by argv[1].
PER_FIGURE = ("sweeps", "sweep-errors")


def _collect(root: str) -> dict:
    """Every family's records on the checkout at `root`, whose ``src/`` and
    ``perfbench/`` this process imports."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    from noisegauge import cli
    import workloads

    records = {}
    for name, family in FAMILIES.items():
        records[name] = []
        family(cli, workloads, records[name].append)
    return records


def _print_digests(records: dict) -> None:
    for name, calls in records.items():
        digest, figures = hashlib.sha256(), {}
        for record in calls:
            data = _encode(record)
            digest.update(data)
            if name in PER_FIGURE:
                figure = figures.setdefault(record[0][1], [0, hashlib.sha256()])
                figure[0] += 1
                figure[1].update(data)
        print(f"{name:14s} {len(calls):4d} {digest.hexdigest()}")
        for fig, (count, fig_digest) in sorted(figures.items()):
            print(f"  {fig:12s} {count:4d} {fig_digest.hexdigest()}")


def _json_leaves(value, path=""):
    """(path, leaf) pairs of parsed JSON, list indices written []."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _json_leaves(item, path + "[]")
    else:
        yield path, value


def _csv_cells(data: bytes):
    """(column, cell) pairs of a CSV, each cell a float when it parses as
    one and its text otherwise."""
    rows = list(csvlib.reader(io.StringIO(data.decode())))
    for row in rows[1:]:
        for j, cell in enumerate(row):
            column = rows[0][j] if j < len(rows[0]) else str(j)
            try:
                yield column, float(cell)
            except ValueError:
                yield column, cell


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _compare_fields(a: list, b: list, where: str, changes: dict, odd: list) -> None:
    """Record in `changes` the largest absolute change per numeric field and
    in `odd` each other difference between two lists of (field, value)."""
    if [f for f, _ in a] != [f for f, _ in b]:
        odd.append(f"{where}: fields differ")
        return
    for (field, x), (_, y) in zip(a, b):
        if repr(x) == repr(y):
            continue
        if _is_number(x) and _is_number(y):
            changes[field] = max(changes.get(field, 0.0), abs(x - y))
            if (x == 0) != (y == 0):
                odd.append(f"{where}: {field} {x!r} -> {y!r}, zero on one side only")
        else:
            odd.append(f"{where}: {field} {x!r} -> {y!r}")


def _compare_records(a, b, where: str, changes: dict, odd: list) -> None:
    (argv_a, rc_a, out_a, err_a, data_a), (argv_b, rc_b, out_b, err_b, data_b) = a, b
    for label, x, y in (("argv", argv_a, argv_b), ("exit code", rc_a, rc_b),
                        ("stderr", err_a, err_b)):
        if x != y:
            odd.append(f"{where}: {label} differs")
    if out_a != out_b:
        try:
            parsed = [list(_json_leaves(json.loads(text))) for text in (out_a, out_b)]
        except json.JSONDecodeError:
            odd.append(f"{where}: stdout differs")
        else:
            _compare_fields(*parsed, where, changes, odd)
    if data_a != data_b:
        if data_a is None or data_b is None:
            odd.append(f"{where}: CSV differs")
        else:
            _compare_fields(list(_csv_cells(data_a)), list(_csv_cells(data_b)), where,
                            changes, odd)


def _family_line(name: str, count: int, changes: dict, odd: list) -> str:
    """The summary line of one family: ``identical``, or the largest change
    of each numeric field followed by how many numbers are zero on one side
    only, a count that a largest change of 5e-324 would hide."""
    if not changes and not odd:
        return f"{name:14s} {count:4d} identical"
    moved = ", ".join(f"{field} {change:.3g}" for field, change in sorted(changes.items()))
    flips = sum(line.endswith(", zero on one side only") for line in odd)
    return f"{name:14s} {count:4d} {moved or 'no numeric change'}; zero flips {flips}"


def _print_comparison(left: dict, right: dict) -> None:
    for name in FAMILIES:
        a, b = left[name], right[name]
        changes, odd = {}, []
        if len(a) != len(b):
            odd.append(f"{len(a)} calls against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_records(x, y, f"call {i} {repr(x[0])[:60]}", changes, odd)
        print(_family_line(name, len(a), changes, odd))
        for line in odd:
            print(f"  {line}")


def main(argv) -> int:
    if len(argv) == 1:
        _print_digests(_collect(str(Path(argv[0]).resolve())))
        return 0
    if len(argv) == 3 and argv[0] == "--compare":
        # each checkout in a fresh interpreter, so the two never share an import
        records = []
        for root in argv[1:]:
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                records.append(pool.apply(_collect, (str(Path(root).resolve()),)))
        _print_comparison(*records)
        return 0
    print("\n".join(__doc__.strip().splitlines()[3:5]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
