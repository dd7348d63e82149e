"""Descriptor files, deterministic report emission, and the CLI commands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergman_lab
from bergman_lab.cli import main
from bergman_lab.errors import DescriptorError, SymbolFormError
from bergman_lab.serialize import (dumps_report, fmt_float, load_weight_file,
                                   load_symbol_file, parse_symbol, parse_weight,
                                   report_envelope, validate_report, write_csv)


class TestFloatFormat:
    def test_twelve_digits(self):
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(1.0 / 3.0) == "0.3333333333333333"  # 12g does not round-trip
        assert fmt_float(0.333333333333) == "0.333333333333"
        assert float(fmt_float(math.pi)) == math.pi

    def test_non_finite_to_null(self):
        assert fmt_float(float("nan")) == "null"
        assert fmt_float(float("inf")) == "null"


class TestDumps:
    def test_deterministic_and_parseable(self):
        doc = report_envelope("diagnose", "w", 2, {"tol": 1e-8},
                              {"values": [1.0, 2.5, None], "flag": True})
        s1, s2 = dumps_report(doc), dumps_report(doc)
        assert s1 == s2
        parsed = json.loads(s1)
        assert validate_report(parsed) == []
        assert parsed["results"]["values"][2] is None

    def test_validate_flags_problems(self):
        assert validate_report({"schema_version": "x"}) != []


class TestWeightDescriptors:
    def test_round_trip(self, tmp_path):
        doc = {"kind": "standard", "alpha": 1.5, "label": "a15"}
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        w = load_weight_file(p)
        assert w.label == "a15"
        assert w(0.5) == pytest.approx(0.75 ** 1.5)
        assert w.descriptor()["alpha"] == 1.5

    def test_missing_field_named(self):
        with pytest.raises(DescriptorError) as excinfo:
            parse_weight({"kind": "exponential", "c": 1.0})
        assert excinfo.value.field == "beta"

    def test_bad_kind_named(self):
        with pytest.raises(DescriptorError) as excinfo:
            parse_weight({"kind": "gaussian"})
        assert excinfo.value.field == "kind"

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"kind": "standard",\n  "alpha": }')
        with pytest.raises(DescriptorError) as excinfo:
            load_weight_file(p)
        assert "line 2" in str(excinfo.value)

    def test_tabulated_csv(self, tmp_path):
        r = np.linspace(0, 0.99, 50)
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("r,value\n" + "\n".join(
            f"{ri},{1 - ri * ri}" for ri in r) + "\n")
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"kind": "tabulated",
                                 "samples_csv": "samples.csv"}))
        w = load_weight_file(p)
        assert w(0.3) == pytest.approx(0.91, abs=1e-4)

    def test_bad_csv_line_reported(self, tmp_path):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("r,value\n0.0,1.0\n0.5,oops\n")
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"kind": "tabulated",
                                 "samples_csv": str(csv_path)}))
        with pytest.raises(DescriptorError) as excinfo:
            load_weight_file(p)
        assert "line 3" in str(excinfo.value)


class TestSymbolDescriptors:
    def test_variants(self, tmp_path):
        for doc, kind in [
            ({"kind": "monomial", "multi_index": [1, 0]}, "monomial"),
            ({"kind": "conj_monomial", "multi_index": [2, 0]}, "conj_monomial"),
            ({"kind": "radial_indicator", "r_lo": 0.1, "r_hi": 0.9},
             "radial_indicator"),
            ({"kind": "unimodular_phase", "multi_index": [2, 0],
              "multi_index_2": [1, 0]}, "unimodular_phase"),
        ]:
            p = tmp_path / "s.json"
            p.write_text(json.dumps(doc))
            assert load_symbol_file(p).kind == kind

    def test_custom_needs_polar_grid(self):
        with pytest.raises(SymbolFormError):
            parse_symbol({"kind": "custom", "sup_norm_bound": 1.0,
                          "values": [[1.0]]})


class TestCsv:
    def test_header_lf_and_floats(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["parameter", "value"], [[0.5, 1.0 / 3.0], [0.75, None]])
        raw = p.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "parameter,value"
        assert lines[1].startswith("0.5,0.333")
        assert lines[2] == "0.75,"


@pytest.fixture()
def weight_file(tmp_path):
    p = tmp_path / "std0.json"
    p.write_text(json.dumps({"kind": "standard", "alpha": 0.0, "label": "std0"}))
    return p


class TestCli:
    def test_diagnose_exit_zero(self, weight_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        status = main(["diagnose", "--weight", str(weight_file), "--n", "2",
                       "--kmax", "10", "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        verdicts = {d["criterion_id"]: d["verdict"]
                    for d in doc["results"]["diagnostics"]}
        assert verdicts["dhat-tail-halving"] == "IN_CLASS"
        assert verdicts["regular-tail-density"] == "IN_CLASS"
        assert doc["results"]["beta_estimate"]["beta0"] == 1.0

    def test_diagnose_inconclusive_exit_two(self, tmp_path):
        """A barely-growing borderline weight trips the INCONCLUSIVE path."""
        p = tmp_path / "w.json"
        # ratios stay under the divergence threshold on the k <= 24 grid but
        # the last-quartile slope is clearly positive: neither verdict holds
        p.write_text(json.dumps({"kind": "exponential", "c": 7e-7,
                                 "beta": 1.0, "label": "borderline"}))
        status = main(["diagnose", "--weight", str(p), "--n", "2",
                       "--kmax", "24", "--out", str(tmp_path / "rep.json")])
        assert status == 2
        doc = json.loads((tmp_path / "rep.json").read_text())
        verdicts = [d["verdict"] for d in doc["results"]["diagnostics"]]
        assert "INCONCLUSIVE" in verdicts

    def test_malformed_descriptor_exit_one(self, tmp_path, capsys):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"kind": "standard"}))
        status = main(["diagnose", "--weight", str(p)])
        assert status == 1
        assert "alpha" in capsys.readouterr().err

    def test_kernel_head_row(self, weight_file, tmp_path):
        out = tmp_path / "k.json"
        status = main(["kernel", "--weight", str(weight_file), "--n", "2",
                       "--kmax", "4", "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        rows = doc["results"]["rows"]
        # rows with s = 0 must carry the head coefficient c_0 = 1
        zero_rows = [row for row in rows if row[1] == 0.0]
        assert zero_rows and all(row[2] == pytest.approx(1.0) for row in zero_rows)

    def test_project_monomial(self, weight_file, tmp_path):
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps({"kind": "monomial", "multi_index": [1, 0]}))
        out = tmp_path / "p.json"
        status = main(["project", "--weight", str(weight_file), "--n", "2",
                       "--kmax", "3", "--symbol", str(sym), "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        for r, re, im, dens in doc["results"]["rows"]:
            assert re == pytest.approx(r, abs=1e-8)
            assert dens == pytest.approx((1 - r * r) * r, abs=1e-8)

    def test_project_polar_grid(self, weight_file, tmp_path):
        """A 9 x 9 x 16 polar-grid descriptor of 1 + Re(lam)/2 projects to
        1 + r/4 up to the angular interpolation error (1.6e-3 and 2.3e-3)."""
        r_nodes = np.linspace(0.0, 1.0, 9)
        m_nodes = np.linspace(0.0, 1.0, 9)
        a_nodes = 2 * np.pi * np.arange(16) / 16
        lam = m_nodes[:, None] * np.exp(1j * a_nodes)
        vals = np.broadcast_to(1.0 + 0.5 * lam.real, (9, 9, 16))
        sym = tmp_path / "grid.json"
        sym.write_text(json.dumps({
            "kind": "custom", "sup_norm_bound": 1.5,
            "polar_grid": {"r_nodes": r_nodes.tolist(), "mod_nodes": m_nodes.tolist(),
                           "arg_nodes": a_nodes.tolist(), "values_real": vals.tolist(),
                           "values_imag": np.zeros_like(vals).tolist()}}))
        out = tmp_path / "p.json"
        status = main(["project", "--weight", str(weight_file), "--n", "2",
                       "--kmax", "2", "--symbol", str(sym), "--out", str(out)])
        assert status == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert [row[0] for row in rows] == [0.0, 0.5, 0.75]
        assert rows[0][1] == pytest.approx(1.0, abs=1e-9)
        for r, re, im, dens in rows[1:]:
            assert abs(re - (1.0 + r / 4)) <= 5e-3

    def test_hl_check_deterministic_and_passing(self, weight_file, tmp_path):
        out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
        for out in (out1, out2):
            status = main(["hl-check", "--weight", str(weight_file),
                           "--seed", "0", "--trials", "25", "--out", str(out)])
            assert status == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["results"]["all_pass"] is True

    def test_theorem_csv_profiles(self, weight_file, tmp_path):
        out = tmp_path / "t.json"
        status = main(["theorem", "--weight", str(weight_file), "--n", "2",
                       "--kmax", "5", "--dmax", str(1 << 14),
                       "--format", "csv", "--out", str(out)])
        # the shallow grid leaves the conclusion INCONCLUSIVE (exit 2)
        assert status in (0, 2)
        func_csv = tmp_path / "t-functional.csv"
        assert func_csv.exists()
        lines = func_csv.read_text().splitlines()
        assert lines[0] == "parameter,value"
        assert len(lines) == 6

    @pytest.mark.parametrize("descriptor, grid", [
        ({"kind": "standard", "alpha": 0.0, "label": "std0"},
         ["--kmax", "6", "--dmax", str(1 << 15)]),
        ({"kind": "exponential", "c": 1.0, "beta": 1.0, "label": "exp11"},
         ["--kmax", "8", "--dmax", "4096"]),
    ], ids=["std0", "exp11"])
    def test_theorem_threads_byte_identical(self, tmp_path, descriptor, grid):
        """With criterion 9's settings (std0), and on exp11 with a short
        d_max, two threads write the same bytes as one: the worker threads
        share and grow one coefficient table and one W(v) profile dict, and
        on exp11 they grow it to d_max and the deepest radii fail."""
        weight_file = tmp_path / "weight.json"
        weight_file.write_text(json.dumps(descriptor))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.json"
            status = main(["theorem", "--weight", str(weight_file), "--n", "2",
                           *grid, "--threads", threads, "--out", str(out)])
            assert status in (0, 2)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        if descriptor["kind"] == "exponential":
            assert b"TruncationError" in outs[0]

    def test_missing_symbol_for_project(self, weight_file, capsys):
        status = main(["project", "--weight", str(weight_file), "--n", "2"])
        assert status == 1
        assert "symbol" in capsys.readouterr().err


def _run_cli(args, cwd):
    src = Path(bergman_lab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "bergman_lab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


class TestCliBadInput:
    @pytest.mark.parametrize("extra, symbol", [
        (["project", "--n", "2"], {"kind": "monomial", "multi_index": [1, 0, 0]}),
        (["project", "--n", "2"], {"kind": "monomial", "multi_index": [1, -1]}),
        (["kernel", "--dmax", "0"], None),
        (["kernel", "--threads", "0"], None),
        (["kernel", "--tol", "nan"], None),
        (["diagnose", "--tol", "inf"], None),
    ], ids=["multi-index-length", "negative-multi-index", "dmax-zero", "threads-zero",
            "tol-nan", "tol-inf"])
    def test_error_line_and_exit_one(self, weight_file, tmp_path, extra, symbol):
        args = [*extra, "--weight", str(weight_file), "--kmax", "2"]
        if symbol is not None:
            sym = tmp_path / "sym.json"
            sym.write_text(json.dumps(symbol))
            args += ["--symbol", str(sym)]
        proc = _run_cli(args, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


def test_diagnose_exponential_excludes_underflowed_tails(tmp_path):
    """exp(-1/(1-r)) tails underflow at r = 1 - 1/x for x >= 1024: those x
    are left out of the moment/tail ratios and named in a note."""
    p = tmp_path / "exp11.json"
    p.write_text(json.dumps({"kind": "exponential", "c": 1.0, "beta": 1.0,
                             "label": "exp11"}))
    out = tmp_path / "rep.json"
    status = main(["diagnose", "--weight", str(p), "--out", str(out)])
    assert status in (0, 2)
    mt = json.loads(out.read_text())["results"]["moment_tail"]
    assert len(mt["x"]) == len(mt["ratio"]) >= 3
    assert all(math.isfinite(v) for v in mt["ratio"] + mt["last_quartile_window"])
    excluded = [x for x in 2.0 ** np.arange(1, 15) if x not in mt["x"]]
    assert excluded and len(mt["notes"]) == len(excluded)
    assert all("underflowed" in note for note in mt["notes"])


def test_diagnose_steep_exponential_reports_nulls(tmp_path):
    """exp(-1000/(1-r)): every tail and the moment-doubling head underflow
    and the deep moment ratios overflow; each is excluded or null, with a
    note, and the command still writes its report."""
    p = tmp_path / "exp1000.json"
    p.write_text(json.dumps({"kind": "exponential", "c": 1000.0, "beta": 1.0}))
    out = tmp_path / "rep.json"
    proc = _run_cli(["diagnose", "--weight", str(p), "--out", str(out)], tmp_path)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    results = json.loads(out.read_text())["results"]
    assert all(d["verdict"] != "IN_CLASS" for d in results["diagnostics"])
    moments = next(d for d in results["diagnostics"]
                   if d["criterion_id"] == "dhat-moment-doubling")
    assert moments["aux"]["c0_head_ratio"] is None
    assert all(math.isfinite(v) for _, v in moments["evidence"])
    mt = results["moment_tail"]
    assert mt["ratio"] == [] and mt["last_quartile_window"] == [None, None]
    assert mt["window_spread"] is None and mt["notes"]
