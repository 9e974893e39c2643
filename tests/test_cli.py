import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisegauge
from helpers import kraus_gad_amendable
from noisegauge.amend import FilterCandidate
from noisegauge.cli import main

# sha256 of `sweep fig3` at the default 200 x 200 grid
FIG3_DEFAULT_SHA256 = "3ba8fd0a74b3eba2f0ea4922a65e6fd3166afd8eab57682aba0761a14b1c6e51"

NEWT_JSON = json.dumps(
    {"kind": "unital", "t": [0, 0.5, 0, 0.73, 0, 0, 0, 0, 0.5]}
)


def read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_swap_fixture(self, capsys):
        code, out, _ = run(capsys, "analyze", NEWT_JSON, "--cap", "8")
        assert code == 0
        data = json.loads(out)
        assert data["mu_c"] == pytest.approx(0.73 / 1.73, abs=1e-4)
        assert data["n_c"] == 2
        assert data["cap"] == 8
        assert data["ebn"][:2] == [False, True]

    def test_damping_band(self, capsys):
        code, out, _ = run(capsys, "analyze", '{"kind":"gad","p":0.9,"gamma":0.5}')
        assert code == 0
        assert json.loads(out)["n_c"] == 1

    def test_damping_one_ulp_below_first_edge(self, capsys):
        channel = '{"kind":"gad","p":0.8763216380804028,"gamma":0.7982411825512649}'
        code, out, _ = run(capsys, "analyze", channel)
        assert code == 0
        data = json.loads(out)
        assert data["n_c"] == 2 and data["mu_c"] > 0.0

    def test_rotation_channel(self, capsys):
        channel = json.dumps({"kind": "unital", "t": list(np.eye(3).ravel())})
        code, out, _ = run(capsys, "analyze", channel, "--cap", "8")
        data = json.loads(out)
        assert data["mu_c"] == pytest.approx(2 / 3, abs=1e-4)
        assert data["n_c"] == "exceeds_cap"

    def test_gaussian_channel(self, capsys):
        code, out, _ = run(
            capsys, "analyze", '{"family":"attenuation","k":0.5,"n0":0.05}', "--cap", "8"
        )
        data = json.loads(out)
        assert data["mu_c"] is None and data["n_c"] == 2

    def test_reads_from_file(self, capsys, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(NEWT_JSON)
        code, out, _ = run(capsys, "analyze", str(path), "--cap", "4")
        assert code == 0 and json.loads(out)["n_c"] == 2

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "{broken")
        assert code == 2 and "malformed" in err

    def test_invariant_violation_exits_3(self, capsys):
        code, _, err = run(capsys, "analyze", '{"kind":"gad","p":2.0,"gamma":0.1}')
        assert code == 3 and "unit square" in err


class TestSweep:
    def test_fig1_interior_point(self, capsys, tmp_path):
        out_path = tmp_path / "f1.csv"
        code, _, _ = run(
            capsys, "sweep", "fig1", "--out", str(out_path),
            "--grid", "lambda1=0.3:0.6:2", "--grid", "lambda2=0.3:0.6:2",
        )
        assert code == 0
        rows = read_rows(out_path)
        assert rows[0] == ["lambda1", "lambda2", "ebn_order"]
        first = rows[1]
        assert first[0] == "0.3" and first[1] == "0.3" and first[2] == "2"

    def test_fig2_band_boundary(self, capsys, tmp_path):
        out_path = tmp_path / "f2.csv"
        code, _, _ = run(
            capsys, "sweep", "fig2", "--out", str(out_path),
            "--grid", "p=0.8:0.86:4", "--grid", "gamma=0.5:0.6:2",
        )
        assert code == 0
        rows = read_rows(out_path)
        assert rows[0] == ["p", "gamma", "n_c"]
        by_point = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert by_point[("0.8", "0.5")] == "2"
        assert by_point[("0.86", "0.5")] == "1"

    def test_fig2_band_monotone_in_p(self, capsys, tmp_path):
        out_path = tmp_path / "f2big.csv"
        code, _, _ = run(capsys, "sweep", "fig2", "--out", str(out_path), "--steps", "21")
        assert code == 0
        rows = read_rows(out_path)[1:]
        series = {}
        for p, gamma, order in rows:
            series.setdefault(gamma, []).append((float(p), order))
        for gamma, points in series.items():
            orders = [float("inf") if o == "inf" else int(o) for _, o in sorted(points)]
            assert all(a >= b for a, b in zip(orders, orders[1:]))

    def test_fig2_inset_ordering(self, capsys, tmp_path):
        out_path = tmp_path / "inset.csv"
        code, _, _ = run(capsys, "sweep", "fig2-inset", "--out", str(out_path), "--steps", "11")
        assert code == 0
        rows = read_rows(out_path)
        assert rows[0] == ["p", "mu_c", "mu_c_sq"]
        for _, mu, mu_sq in rows[1:]:
            assert float(mu_sq) <= float(mu) + 1e-12

    def test_fig3_header_and_band(self, capsys, tmp_path):
        out_path = tmp_path / "f3.csv"
        code, _, _ = run(
            capsys, "sweep", "fig3", "--out", str(out_path),
            "--grid", "p=0.61:0.7:2", "--grid", "gamma=0.25:0.3:2",
        )
        assert code == 0
        rows = read_rows(out_path)
        assert rows[0] == ["p", "gamma", "amendable", "filter_kind"]
        by_point = {(r[0], r[1]): (r[2], r[3]) for r in rows[1:]}
        assert by_point[("0.61", "0.25")] == ("true", "s1")
        assert by_point[("0.7", "0.25")] == ("false", "")

    def test_fig4_header(self, capsys, tmp_path):
        out_path = tmp_path / "f4.csv"
        code, _, _ = run(capsys, "sweep", "fig4", "--out", str(out_path), "--steps", "4")
        assert code == 0
        rows = read_rows(out_path)
        assert rows[0] == ["p", "mu_c_sq", "mu_c_filtered"]
        assert len(rows) == 5

    def test_fig5_attenuation_boundary(self, capsys, tmp_path):
        out_path = tmp_path / "f5.csv"
        code, _, _ = run(
            capsys, "sweep", "fig5", "--out", str(out_path),
            "--fixed", "family=attenuation",
            "--grid", "k=0.5:0.6:2", "--grid", "n0=0.2:0.25:2",
        )
        assert code == 0
        rows = read_rows(out_path)
        assert rows[0] == ["k", "n0", "family", "n_c"]
        by_point = {(r[0], r[1]): r[3] for r in rows[1:] if r[2] == "attenuation"}
        assert by_point[("0.5", "0.2")] == "2"
        assert by_point[("0.5", "0.25")] == "1"

    def test_fig3_matches_kraus_oracle(self, capsys, tmp_path):
        out_path = tmp_path / "f3.csv"
        code, _, _ = run(capsys, "sweep", "fig3", "--out", str(out_path), "--steps", "40")
        assert code == 0
        rows = read_rows(out_path)[1:]
        assert len(rows) == 40 * 40
        s1, r2r1 = FilterCandidate.pauli(1), FilterCandidate.r2r1()
        for p_s, g_s, amendable, kind in rows:
            p, g = float(p_s), float(g_s)
            by_s1 = kraus_gad_amendable(p, g, s1)
            by_pair = not by_s1 and kraus_gad_amendable(p, g, r2r1)
            expected = "s1" if by_s1 else ("r2r1" if by_pair else "")
            assert (amendable, kind) == (str(by_s1 or by_pair).lower(), expected)

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "sweep", "fig3", "--out", str(path),
                "--steps", "6",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "fig2", "--out", str(tmp_path / "no" / "dir.csv"),
            "--steps", "3",
        )
        assert code == 4 and "cannot write" in err

    def test_bad_grid_flag_exits_3(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "fig2", "--out", str(tmp_path / "x.csv"),
            "--grid", "p=1:0:5",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig1", "--fixed", "lambda3=1.5"),
            ("fig1", "--cap", "0"),
            ("fig1", "--steps", "-1"),
            ("fig2", "--grid", "p=0.5:1.5:3"),
            ("fig2", "--cap", "0"),
            ("fig2-inset", "--grid", "p=-0.5:0.5:3"),
            ("fig2-inset", "--fixed", "gamma=1.5"),
            ("fig3", "--grid", "gamma=-0.5:0.5:3"),
            ("fig4", "--grid", "p=0.5:1.5:3"),
            ("fig4", "--fixed", "filter=s9"),
            ("fig5", "--fixed", "family=attenuation", "--grid", "k=0.5:1.5:3"),
            ("fig5", "--grid", "k=0.5:0.9:3"),  # both families: amplification needs k > 1
            ("fig5", "--grid", "n0=-1:1:3"),
            ("fig5", "--fixed", "family=squeezing"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_domain_error_leaves_out_untouched(self, capsys, tmp_path, argv):
        out_path = tmp_path / "keep.csv"
        before = b"p,gamma,amendable,filter_kind\n0.5,0.5,false,\n"
        out_path.write_bytes(before)
        figure, *flags = argv
        code, _, err = run(capsys, "sweep", figure, "--out", str(out_path), "--steps", "3", *flags)
        assert code == 3 and err.startswith("error:")
        assert out_path.read_bytes() == before

    def test_fig3_default_grid_pinned(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "sweep", "fig3", "--out", str(out_path))
        assert code == 0
        data = out_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIG3_DEFAULT_SHA256
        rows = read_rows(out_path)[1:]
        assert len(rows) == 200 * 200
        assert sum(row[2] == "true" for row in rows) == 2868


class TestVerify:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "PASS" in ln or "FAIL" in ln]
        assert lines and all("PASS" in ln for ln in lines)
        assert "fixtures passed" in out


class TestAmend:
    def test_swap_fixture(self, capsys):
        code, out, _ = run(
            capsys, "amend", NEWT_JSON, "--budget", "27", "--cap", "16", "--seed", "42"
        )
        assert code == 0
        data = json.loads(out)
        assert data["base_nc"] == 2
        assert data["filtered_nc"] >= 3
        assert data["amendable"] is True

    def test_cap_below_the_order(self, capsys):
        # order 2 at cap 1: the channel's order exceeds the cap, so no report
        # can claim that a filter raised it
        channel = json.dumps({"kind": "unital", "t": [0, 0.73, 0, 0.5, 0, 0, 0, 0, 0.5]})
        code, out, _ = run(capsys, "amend", channel, "--cap", "1", "--budget", "8")
        assert code == 0
        data = json.loads(out)
        assert data["base_nc"] == "exceeds_cap"
        assert data["amendable"] is False

    def test_depolarizing_not_amendable(self, capsys):
        channel = json.dumps({"kind": "unital", "t": [0.0] * 9})
        code, out, _ = run(capsys, "amend", channel, "--budget", "8", "--cap", "4")
        assert code == 0
        assert json.loads(out)["amendable"] is False

    def test_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "amend", NEWT_JSON, "--budget", "27", "--cap", "8", "--seed", "5"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_gaussian_rejected(self, capsys):
        code, _, _ = run(capsys, "amend", '{"family":"attenuation","k":0.5,"n0":0.1}')
        assert code == 3

    @pytest.mark.parametrize(
        "channel",
        ['{"kind":"gad","p":0,"gamma":0.3}', json.dumps({"kind": "unital", "t": [1, 0, 0, 0, 1, 0, 0, 0, 1]})],
    )
    def test_identity_channel_rejected(self, capsys, channel):
        code, _, err = run(capsys, "amend", channel, "--budget", "8")
        assert code == 3
        assert "unitary" in err


def test_cli_import_loads_no_scipy():
    # scipy.optimize costs about 0.4 s at start-up, which every CLI call pays.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(noisegauge.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    probe = "import sys, noisegauge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
