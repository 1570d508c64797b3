import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perturbcq
from perturbcq.cli import DocumentError, main, parse_problem
from perturbcq.model import catalog
from perturbcq.scanner import ScanReport, scan_singular


# ---------------------------------------------------------------------------
# problem-document parsing
# ---------------------------------------------------------------------------


def test_parse_problem_round_trip_matches_catalog():
    ref = catalog("cusp")
    doc = ref.to_document()
    parsed = parse_problem(json.dumps(doc))
    assert parsed.num_vars == ref.num_vars
    assert parsed.perturbable == ref.perturbable
    assert len(parsed.inequalities) == len(ref.inequalities)
    for g_parsed, g_ref in zip(parsed.inequalities, ref.inequalities):
        assert g_parsed.to_json_dict() == g_ref.to_json_dict()


def test_parse_problem_from_file(tmp_path):
    doc = catalog("ball_box", n=2, a=(0.4, 0.2)).to_document()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    parsed = parse_problem(str(path))
    assert parsed.num_vars == 2
    assert parsed.perturbable == (0,)


def test_parse_problem_names_bad_exponent_path():
    doc = {
        "num_vars": 2,
        "inequalities": [
            {"terms": [{"coef": 1.0, "exps": [1, 0]}]},
            {"terms": [{"coef": 1.0, "exps": [1]}]},  # wrong length
        ],
    }
    with pytest.raises(DocumentError, match=r"\$\.inequalities\[1\]\.terms\[0\]\.exps"):
        parse_problem(json.dumps(doc))


def test_parse_problem_perturbable_out_of_range():
    doc = {
        "num_vars": 1,
        "inequalities": [
            {"terms": [{"coef": 1.0, "exps": [1]}]},
            {"terms": [{"coef": -1.0, "exps": [1]}]},
        ],
        "perturbable": [3],
    }
    with pytest.raises(DocumentError, match=r"\$\.perturbable\[0\].*1\.\.2"):
        parse_problem(json.dumps(doc))


def test_parse_problem_malformed_json():
    with pytest.raises(DocumentError, match="malformed JSON"):
        parse_problem("{not json")


def test_parse_problem_missing_file():
    with pytest.raises(DocumentError, match="cannot read"):
        parse_problem("/no/such/file.json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_bound_command_prints_value(capsys):
    code = main(["bound", "--n", "2", "--m", "3", "--d", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2250"


def test_bound_command_json(capsys):
    code = main(["bound", "--n", "2", "--m", "3", "--d", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 2250


def test_module_entry_point_runs_without_warnings():
    # `python -m perturbcq.cli` must not find the module imported already by
    # the package, which Python reports as a RuntimeWarning
    src = str(Path(perturbcq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "perturbcq.cli", "bound", "--n", "2", "--m", "2", "--d", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip() == "3675"


def test_mfcq_point_failure_exit_code(capsys):
    code = main(
        ["mfcq", "--problem", "cusp", "--alpha", "0.0", "--point", "0,0",
         "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fails"
    assert payload["active_indices"] == [0, 1]


def test_mfcq_point_holds_exit_code(capsys):
    code = main(["mfcq", "--problem", "cusp", "--alpha", "0.0", "--point=-1,0"])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_mfcq_sweep_all_hold(capsys):
    code = main(
        ["mfcq", "--problem", "cusp", "--alpha", "0.1", "--samples", "60",
         "--seed", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["seed"] == 3
    assert payload["verdicts"]["fails"] == 0


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "argv, code, key",
    [
        (["--problem", "cusp", "--alpha", "0.1", "--point=-1,0"], 0, "margin"),
        (["--problem", "cusp", "--alpha", "0.1", "--point=-1,0", "--method", "hull"], 0,
         "hull_distance"),
        (["--problem", "ball_box", "--n", "2", "--a", "0.4,0.2", "--alpha", "2",
          "--samples", "10"], 2, "worst_margin"),
    ],
    ids=["lp-nothing-active", "hull-nothing-active", "infeasible-sweep"],
)
def test_json_output_writes_infinite_measures_as_null(argv, code, key, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["mfcq", *argv, "--format", "json", "--out", str(out)]) == code
    for text in (capsys.readouterr().out, out.read_text()):
        assert json.loads(text, parse_constant=_reject_constant)[key] is None


def test_catalog_writes_overflowing_coefficient_as_null(tmp_path, capsys):
    # the constant term (100!)^2 of the depth-100 grid polynomial overflows
    out = tmp_path / "out.json"
    argv = ["--problem", "grid_boxes", "--n", "1", "--d", "100", "--a", "0", "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["catalog", *argv]) == 0
    for text in (capsys.readouterr().out, out.read_text()):
        parsed = json.loads(text, parse_constant=_reject_constant)
        assert parsed["inequalities"][1]["terms"][-1]["coef"] is None


@pytest.mark.parametrize("command", [["scan", "--window=-0.5,0.5"], ["mfcq"], ["catalog"]])
@pytest.mark.parametrize(
    "old, new, path",
    [
        ('"coef": 1.0', '"coef": NaN', "$.inequalities[0].terms[0].coef"),
        ("[-2.0, 1.0]", "[-Infinity, 1.0]", "$.sample_box[0]"),
    ],
    ids=["nan-coefficient", "infinite-box-end"],
)
def test_nonfinite_document_exits_2(command, old, new, path, tmp_path, capsys):
    text = json.dumps(catalog("cusp").to_document())
    doc = tmp_path / "problem.json"
    doc.write_text(text.replace(old, new, 1))
    assert doc.read_text() != text
    assert main([*command, "--file", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.out == ""


def test_scan_report_file_round_trips(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["scan", "--problem", "cusp", "--window=-0.5,0.5", "--starts", "150",
         "--seed", "7", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    with open(out) as fh:
        saved = ScanReport.from_json_dict(json.load(fh))
    assert saved == ScanReport.from_json_dict(printed)
    direct = scan_singular(catalog("cusp"), (-0.5, 0.5), starts=150, seed=7)
    assert saved == direct  # CLI output identical to the library call


def test_esqm_command_converges(capsys):
    code = main(
        ["esqm", "--problem", "ball_box", "--n", "2", "--a", "0.4,0.2",
         "--alpha", "6.8", "--objective-linear", "1,1", "--beta0", "10",
         "--x0=-0.5,-0.5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["x"] == pytest.approx([-1.0, -1.0], abs=1e-6)
    assert payload["value"] == pytest.approx(-2.0, abs=1e-6)


def test_homotopy_command(capsys):
    code = main(
        ["homotopy", "--problem", "cusp_boxed", "--schedule", "0.1,0.01",
         "--objective-linear=-1,0", "--beta0", "10", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [lvl["status"] for lvl in payload["levels"]] == ["converged", "converged"]
    assert payload["levels"][0]["value"] == pytest.approx(-(0.1 ** (1 / 3)), abs=1e-6)


def test_catalog_command_emits_parseable_document(capsys):
    code = main(["catalog", "--problem", "grid_boxes", "--n", "1", "--d", "2",
                 "--a", "0.3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    prob = parse_problem(json.dumps(doc))
    assert prob.num_vars == 1
    assert len(prob.inequalities) == 2  # ball plus one grid polynomial


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert main(["bound", "--n", "2", "--m", "3", "--d", "2", "--bogus"]) == 2


def test_missing_problem_source_exits_2(capsys):
    assert main(["mfcq", "--alpha", "0.1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"num_vars": 2, "inequalities": []}')
    assert main(["mfcq", "--file", str(path), "--alpha", "0.1"]) == 2
    assert "$.inequalities" in capsys.readouterr().err


def test_objective_dimension_mismatch_exits_2(capsys):
    code = main(
        ["esqm", "--problem", "cusp", "--alpha", "0.1",
         "--objective-linear", "1,2,3"]
    )
    assert code == 2
    assert "expected 2" in capsys.readouterr().err


def test_solver_failure_exits_2_without_traceback(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("subproblem dual did not solve: max_iter")

    monkeypatch.setattr("perturbcq.cli.run_esqm", fail)
    code = main(
        ["esqm", "--problem", "cusp_boxed", "--alpha", "0.1",
         "--objective-linear=-1,0", "--beta0", "10"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: subproblem dual did not solve" in err
    assert "Traceback" not in err


def test_scan_determinism_across_invocations(capsys):
    argv = ["scan", "--problem", "cusp", "--window=-0.5,0.5", "--starts", "100",
            "--seed", "11", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "window", ["--window=-inf,1", "--window=0,inf", "--window=nan,1", "--window=1", "--window=0,1,2"]
)
def test_scan_nonfinite_window_exits_2(window, capsys):
    assert main(["scan", "--problem", "cusp", window]) == 2
    err = capsys.readouterr().err
    assert "error: window must be a finite" in err
    assert "Traceback" not in err


def test_scan_without_starts_exits_2(capsys):
    assert main(["scan", "--problem", "cusp", "--window=-0.5,0.5", "--starts=-3"]) == 2
    assert "error: starts must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mfcq", "--problem", "cusp", "--point", "nan,0"],
        ["mfcq", "--problem", "cusp", "--alpha", "nan", "--point", "0,0"],
        ["mfcq", "--problem", "cusp", "--mu=0,inf", "--point", "0,0"],
        ["homotopy", "--problem", "cusp_boxed", "--objective-linear=-1,0", "--schedule", "nan"],
        ["esqm", "--problem", "cusp_boxed", "--objective-linear=-1,0", "--alpha", "nan"],
        ["esqm", "--problem", "cusp_boxed", "--objective-linear=-1,0", "--alpha", "0.1",
         "--x0", "nan,0"],
    ],
    ids=["mfcq-point", "mfcq-alpha", "mfcq-mu", "homotopy-schedule", "esqm-alpha", "esqm-x0"],
)
def test_nonfinite_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_mfcq_sweep_without_samples_exits_2(samples, capsys):
    code = main(["mfcq", "--problem", "cusp", "--alpha", "0.1", f"--samples={samples}"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: samples must be at least 1" in captured.err
    assert "sweep status" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--n", "2", "--m", "2", "--d", "3"],
        ["homotopy", "--problem", "cusp_boxed", "--objective-linear=-1,0",
         "--schedule", "0.1,0.01"],
        ["catalog", "--problem", "cusp"],
    ],
    ids=["bound", "homotopy", "catalog"],
)
def test_csv_format_rejected_where_not_written(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--format", "csv", "--out", str(out)]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert not out.exists()


def test_mfcq_point_csv_exits_2(tmp_path, capsys):
    out = tmp_path / "cert.csv"
    code = main(["mfcq", "--problem", "cusp", "--point", "0,0", "--format", "csv",
                 "--out", str(out)])
    assert code == 2
    assert "error: --format csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mfcq", "--problem", "cusp", "--alpha", "0.1", "--samples", "5", "--format", "csv"],
        ["scan", "--problem", "cusp", "--window=-0.5,0.5", "--starts", "10", "--format", "csv"],
        ["esqm", "--problem", "cusp_boxed", "--alpha", "0.1", "--objective-linear=-1,0",
         "--format", "csv"],
        ["mfcq", "--problem", "cusp", "--alpha", "0.1", "--samples", "5", "--method", "hull",
         "--out", "sweep.json"],
    ],
    ids=["mfcq-csv", "scan-csv", "esqm-csv", "mfcq-sweep-hull"],
)
def test_ignored_flags_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["--problem", "ball_box"], "'n'"),
        (["--problem", "ball_box", "--n", "2"], "'a'"),
        (["--problem", "grid_boxes", "--n", "2", "--a", "0.5,0.3"], "'d'"),
    ],
)
def test_catalog_missing_parameter_exits_2(argv, missing, capsys):
    assert main(["catalog", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert "Traceback" not in err
