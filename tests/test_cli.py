"""Command-line surface: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsecert
from sparsecert import cli, serialize, structures
from sparsecert.recovery import RecoveryProblem

# the CLI subprocess imports the package these tests import, installed or not
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(sparsecert.__file__).parents[1])]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sparsecert", *args],
                          capture_output=True, text=True, timeout=300,
                          env=_ENV)


def write_plain_problem(tmp_path, a, y, phi="linf", epsilon=0.0):
    st, rep = structures.build_plain(a.shape[1])
    prob = RecoveryProblem(a=a, b=rep, y=y, phi=phi, epsilon=epsilon)
    path = tmp_path / "problem.json"
    serialize.save_problem(path, prob, st)
    return path


def write_structure(tmp_path, st, name="structure.json"):
    path = tmp_path / name
    serialize.save_json(path, structures.structure_to_dict(st))
    return path


def write_matrix(tmp_path, m, name="a.csv"):
    path = tmp_path / name
    serialize.save_matrix(path, m)
    return path


# ---------------------------------------------------------------------------
# recover


def test_recover_roundtrip(tmp_path):
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    p = write_plain_problem(tmp_path, a, np.array([2.0, 0.0]))
    out = tmp_path / "sol.json"
    r = run_cli("recover", "--problem", str(p), "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = serialize.load_json(out)
    assert np.allclose(doc["x_hat"], [2.0, 0.0, 0.0], atol=1e-8)
    assert doc["status"] == "optimal"


def test_recover_rejects_b_of_the_wrong_shape(tmp_path, capsys):
    """A 3 x 4 B on plain n=4 is bad input (exit 1) on the LP path (l1) and
    on the ADMM path (l2, epsilon > 0) alike."""
    pp = tmp_path / "problem.json"
    for phi, epsilon in (("l1", 0.0), ("l2", 0.1)):
        pp.write_text(json.dumps({
            "structure": {"kind": "plain", "n": 4},
            "a": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
            "y": [1.0, 0.5], "b": np.eye(3, 4).tolist(), "phi": phi,
            "epsilon": epsilon}))
        assert cli.main(["recover", "--problem", str(pp)]) == 1
        assert "B must be 4 x 4" in capsys.readouterr().err


def test_recover_json_flag_emits_machine_readable(tmp_path):
    p = write_plain_problem(tmp_path, np.eye(3), np.ones(3))
    r = run_cli("recover", "--problem", str(p), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert np.allclose(doc["x_hat"], 1.0, atol=1e-8)


def test_recover_json_reports_anderson_counts(tmp_path, capsys):
    """--json prints the accelerated splitting's counts next to the
    iterations, and the LP path its start: the dual simplex from the
    residual basis with eps > 0, phase one for A u = y."""
    r = np.random.default_rng(3)
    a = r.standard_normal((4, 8))
    y = a @ np.eye(8)[2] + 0.01 * r.standard_normal(4)
    counts = {}
    for phi, eps in (("l2", 0.05), ("l1", 0.05), ("l1", 0.0)):
        p = write_plain_problem(tmp_path, a, y, phi=phi, epsilon=eps)
        assert cli.main(["recover", "--problem", str(p), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        counts[phi, eps] = doc["anderson"], doc["iterations"], doc["start"]
    anderson, iterations, start = counts["l2", 0.05]
    assert set(anderson) == {"accepted", "rejected", "resets"}
    assert 0 < anderson["accepted"] + anderson["rejected"] < iterations
    assert start is None
    assert counts["l1", 0.05][0] is None and counts["l1", 0.05][2] == "dual"
    assert counts["l1", 0.0][2] == "phase_one"


def test_recover_penalized_needs_lambda(tmp_path):
    p = write_plain_problem(tmp_path, np.eye(3), np.ones(3))
    r = run_cli("recover", "--problem", str(p), "--mode", "penalized")
    assert r.returncode == 1
    assert r.stderr.strip()
    r2 = run_cli("recover", "--problem", str(p), "--mode", "penalized",
                 "--lambda", "4.0")
    assert r2.returncode == 0


def test_recover_missing_file_is_exit_one(tmp_path):
    r = run_cli("recover", "--problem", str(tmp_path / "nope.json"))
    assert r.returncode == 1


def test_recover_infeasible_is_exit_three(tmp_path):
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = write_plain_problem(tmp_path, a, np.array([1.0, 2.0]))
    r = run_cli("recover", "--problem", str(p))
    assert r.returncode == 3


def _strict_json(text):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_infeasible_recover_writes_strict_json(tmp_path, capsys):
    """An infinite delta is written as null, on stdout and in --out."""
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = write_plain_problem(tmp_path, a, np.array([1.0, 2.0]))
    out = tmp_path / "sol.json"
    assert cli.main(["recover", "--problem", str(p), "--json",
                     "--out", str(out)]) == 3
    for doc in (_strict_json(capsys.readouterr().out),
                _strict_json(out.read_text())):
        assert doc["status"] == "infeasible"
        assert doc["delta"] is None and doc["delta_phi"] is None
    assert serialize._clean({"v": np.array([1.0, np.nan, -np.inf])}) == \
        {"v": [1.0, None, None]}


# ---------------------------------------------------------------------------
# certify


def test_certify_identity_valid_and_round_trips(tmp_path):
    st, _ = structures.build_plain(4)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.eye(4))
    out = tmp_path / "cert.json"
    r = run_cli("certify", "--structure", str(sp), "--matrix", str(mp),
                "--s", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    cert = serialize.load_certificate(out)
    assert cert.valid and cert.gamma == pytest.approx(0.0, abs=1e-8)
    # emitted file parses and re-serializes unchanged
    out2 = tmp_path / "cert2.json"
    serialize.save_certificate(out2, cert)
    assert out.read_bytes() == out2.read_bytes()


def test_certify_json_reports_lp_counts(tmp_path):
    st, _ = structures.build_plain(6)
    sp = write_structure(tmp_path, st)
    a = np.random.default_rng(3).standard_normal((5, 6))
    r = run_cli("certify", "--structure", str(sp), "--matrix",
                str(write_matrix(tmp_path, a)), "--s", "1", "--method",
                "synth", "--json")
    assert r.returncode in (0, 4), r.stderr
    details = json.loads(r.stdout)["details"]
    assert details["lps"] == 6 + details["beta_lps"]
    assert details["lp_iterations"] > 0
    # the six singleton blocks share one signature: one warm-started sequence
    assert details["stage_one_sequences"] == 1
    assert 0 < details["stage_one_iterations"] <= details["lp_iterations"]
    # stage two visits at least one block, all in one sequence as well
    assert details["beta_lps"] >= 1 and details["stage_two_sequences"] == 1
    assert details["stage_one_iterations"] + details["stage_two_iterations"] \
        == details["lp_iterations"]
    assert details["stage_two_not_optimal"] == 0
    assert 0.0 <= details["lp_delta"] <= 1e-8


def test_certify_zero_map_not_certifiable(tmp_path):
    st, _ = structures.build_plain(4)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.zeros((2, 4)))
    r = run_cli("certify", "--structure", str(sp), "--matrix", str(mp),
                "--s", "1")
    assert r.returncode == 4


def test_certify_unsupported_combo_is_exit_five(tmp_path):
    st, _ = structures.build_plain(4)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.eye(4))
    r = run_cli("certify", "--structure", str(sp), "--matrix", str(mp),
                "--s", "1", "--phi", "l2", "--method", "synth")
    assert r.returncode == 5
    assert "unsupported" in (r.stdout + r.stderr).lower()


def test_certify_synthesis_maxiter_is_exit_two(tmp_path, patch_reports,
                                               capsys):
    from sparsecert.engine import SolveReport, Status

    # every synthesis LP (both stages and the joint LP) solves in an
    # LPSequence, whose phase two is capped here
    patch_reports(lambda i, x, rep: (
        None, SolveReport(status=Status.MAXITER, iterations=8000)))
    st, _ = structures.build_plain(4)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.eye(4))
    code = cli.main(["certify", "--structure", str(sp), "--matrix", str(mp),
                     "--s", "1", "--method", "synth"])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "maxiter" in err


def test_certify_dual_stage_one_not_optimal_is_exit_two(tmp_path,
                                                       patch_reports, capsys):
    """One stage-one dual LP of a warm-started sequence stops at MAXITER while
    the others solve: no certificate, exit 2."""
    from sparsecert.engine import SolveReport, Status

    # the second solve of each sequence is capped
    patch_reports(lambda i, x, rep: (
        None, SolveReport(status=Status.MAXITER, iterations=9))
        if i == 1 else (x, rep))
    st, _ = structures.build_plain(5)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path,
                      np.random.default_rng(4).standard_normal((3, 5)))
    code = cli.main(["certify", "--structure", str(sp), "--matrix", str(mp),
                     "--s", "1", "--method", "synth"])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "maxiter" in err


def test_certify_lowrank_methods(tmp_path):
    st, _ = structures.build_lowrank(2, 2)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.eye(4))
    out = tmp_path / "lr.json"
    r = run_cli("certify", "--structure", str(sp), "--matrix", str(mp),
                "--s", "1", "--method", "ustar", "--iters", "100",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    cert = serialize.load_certificate(out)
    assert cert.gamma == pytest.approx(0.0, abs=1e-8)
    # the box method on the same instance is also perfect here
    r2 = run_cli("certify", "--structure", str(sp), "--matrix", str(mp),
                 "--s", "1", "--method", "bar")
    assert r2.returncode == 0


def test_lowrank_rank_level_must_be_an_integer(tmp_path, capsys):
    """--s 1.5 on a low-rank structure is bad input (exit 1), as it is for
    ``nullspace``, not a certificate at level 1; ``experiment`` builds its
    certificate the same way."""
    st, _ = structures.build_lowrank(2, 2)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.eye(4))
    for method in ("ustar", "bar"):
        assert cli.main(["certify", "--structure", str(sp), "--matrix",
                         str(mp), "--s", "1.5", "--method", method,
                         "--iters", "10"]) == 1
        assert "positive integer" in capsys.readouterr().err
    with pytest.raises(ValueError, match="positive integer"):
        cli._make_certificate(st, None, np.eye(4), 1.5, "l1", "auto", 10, 0)


def test_certify_wrong_method_for_structure(tmp_path):
    st, _ = structures.build_plain(4)
    sp = write_structure(tmp_path, st)
    mp = write_matrix(tmp_path, np.eye(4))
    r = run_cli("certify", "--structure", str(sp), "--matrix", str(mp),
                "--s", "1", "--method", "ustar")
    assert r.returncode in (1, 5)


# ---------------------------------------------------------------------------
# nullspace / bound / axioms


def test_nullspace_verdicts(tmp_path):
    st, _ = structures.build_plain(5)
    sp = write_structure(tmp_path, st)
    good = run_cli("nullspace", "--structure", str(sp), "--matrix",
                   str(write_matrix(tmp_path, np.eye(5))), "--s", "1")
    assert good.returncode == 0
    bad = run_cli("nullspace", "--structure", str(sp), "--matrix",
                  str(write_matrix(tmp_path, np.ones((1, 5)), "ones.csv")),
                  "--s", "1", "--json")
    assert bad.returncode == 4
    doc = json.loads(bad.stdout)
    assert doc["status"] == "CertifiedBad"
    assert doc["gamma_value"] == pytest.approx(0.5, abs=1e-9)
    details = doc["details"]
    assert details["lp_iterations"] >= details["lp_count"] == 5
    assert details["signed_supports"] == 5 and details["lps_pruned"] == 0
    assert 0.0 <= details["lp_delta"] <= 1e-12
    assert details["lps_not_optimal"] == 0


def test_nullspace_json_reports_the_pruning(tmp_path):
    """Plain n=8, s=2: 28 pairs of 2 signed supports each; the bounds from
    the 8 singleton LPs prune most pairs."""
    st, _ = structures.build_plain(8)
    sp = write_structure(tmp_path, st)
    a = np.random.default_rng(3).standard_normal((5, 8))
    r = run_cli("nullspace", "--structure", str(sp), "--matrix",
                str(write_matrix(tmp_path, a)), "--s", "2", "--json")
    assert r.returncode == 4, r.stderr
    doc = json.loads(r.stdout)
    details = doc["details"]
    assert details["signed_supports"] == 56 and details["maximal_sets"] == 28
    assert 0 < details["lps_pruned"] <= 56
    assert 56 - details["lps_pruned"] <= details["lp_count"] - 8
    assert details["lp_count"] < 56
    assert details["gamma_upper"] >= doc["gamma_value"]


def test_non_finite_inputs_are_exit_one(tmp_path):
    """A NaN weight or a NaN measurement is bad input, not a verdict or an
    iteration cap."""
    sp = tmp_path / "structure.json"
    sp.write_text('{"kind": "group", "blocks": [[0], [1]], '
                  '"weights": [NaN, 1.0], "block_norm": "l1"}')
    r = run_cli("nullspace", "--structure", str(sp), "--matrix",
                str(write_matrix(tmp_path, np.ones((1, 2)))), "--s", "1")
    assert r.returncode == 1
    pp = tmp_path / "problem.json"
    pp.write_text('{"structure": {"kind": "plain", "n": 2}, '
                  '"a": [[1.0, 0.0], [0.0, 1.0]], "y": [NaN, 1.0], '
                  '"phi": "l2"}')
    r = run_cli("recover", "--problem", str(pp))
    assert r.returncode == 1
    # a NaN in B would otherwise run the ADMM path to its iteration cap
    pp.write_text('{"structure": {"kind": "plain", "n": 2}, '
                  '"a": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 1.0], '
                  '"b": [[NaN, 0.0], [0.0, 1.0]], "phi": "l2", '
                  '"epsilon": 0.1}')
    r = run_cli("recover", "--problem", str(pp))
    assert r.returncode == 1


def _refused(argv, capsys, field):
    """``main(argv)`` is exit 1 with one ``error:`` line naming ``field`` on
    stderr, no traceback and no verdict on stdout."""
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err and "CertifiedGood" not in out


@pytest.mark.parametrize("command, flags, field", [
    ("nullspace", ["--s", "nan"], "s must be"),
    ("nullspace", ["--s", "inf"], "s must be"),
    ("certify", ["--s", "nan"], "s must be"),
    ("certify", ["--s", "inf", "--method", "synth"], "s must be"),
], ids=["nullspace-nan", "nullspace-inf", "certify-nan", "certify-inf"])
def test_non_finite_level_is_refused(tmp_path, capsys, command, flags, field):
    """A NaN level once read as 'no maximal sets' (CertifiedGood, gamma 0)
    and an infinite one overflowed; both are bad input."""
    st, _ = structures.build_plain(6)
    a = np.random.default_rng(0).standard_normal((3, 6))
    _refused([command, "--structure", str(write_structure(tmp_path, st)),
              "--matrix", str(write_matrix(tmp_path, a)), *flags], capsys,
             field)


def test_non_finite_rank_level_is_refused(tmp_path, capsys):
    st, _ = structures.build_lowrank(2, 3)
    a = np.random.default_rng(0).standard_normal((4, 6))
    for level in ("nan", "inf"):
        _refused(["certify", "--structure", str(write_structure(tmp_path, st)),
                  "--matrix", str(write_matrix(tmp_path, a)), "--s", level],
                 capsys, "rank level")


@pytest.mark.parametrize("flags, field", [
    (["--epsilon", "nan"], "epsilon"),
    (["--delta", "inf"], "delta"),
    (["--mode", "penalized", "--lambda", "nan"], "lam"),
    (["--mode", "penalized", "--lambda", "3", "--phi-xi", "nan"], "phi_xi"),
], ids=["epsilon-nan", "delta-inf", "lambda-nan", "phi-xi-nan"])
def test_non_finite_bound_terms_are_refused(tmp_path, capsys, flags, field):
    """A NaN term once printed a NaN bound with exit 0."""
    from sparsecert.certify import Certificate
    cert_path = tmp_path / "cert.json"
    serialize.save_certificate(cert_path, Certificate(
        gamma=0.5, beta=2.0, s=1.0, phi="l1", method="ColumnLP"))
    _refused(["bound", "--certificate", str(cert_path), *flags], capsys, field)


def test_non_finite_tolerance_is_refused(tmp_path, capsys):
    """A NaN tolerance once ran ADMM to its iteration cap (exit 2)."""
    a = np.random.default_rng(1).standard_normal((2, 4))
    path = write_plain_problem(tmp_path, a, a @ np.eye(4)[0], phi="l2",
                               epsilon=0.1)
    for tol in ("nan", "inf"):
        _refused(["recover", "--problem", str(path), "--tol", tol], capsys,
                 "tol must be")


@pytest.mark.parametrize("which", ["structure", "matrix", "out"])
def test_a_directory_as_a_path_is_an_error_line(tmp_path, capsys, which):
    """A directory where a file is read or written is an OSError other than
    FileNotFoundError; it ended in an IsADirectoryError traceback."""
    st, _ = structures.build_plain(4)
    paths = {"structure": str(write_structure(tmp_path, st)),
             "matrix": str(write_matrix(tmp_path, np.ones((2, 4)))),
             "out": str(tmp_path / "verdict.json")}
    paths[which] = str(tmp_path)
    _refused(["nullspace", "--structure", paths["structure"], "--matrix",
              paths["matrix"], "--s", "1", "--out", paths["out"]], capsys,
             str(tmp_path))


@pytest.mark.parametrize("doc, field", [
    ([1, 2], "JSON object"),
    ({"kind": "group", "blocks": 5}, "blocks"),
    ({"kind": "group", "blocks": [[0, 1]], "weights": 5}, "weights"),
    ({"kind": "group", "blocks": [[0, 1]], "block_norms": 5}, "block_norms"),
    ({"kind": "plain", "n": [3]}, "n must be"),
    ({"kind": "plain"}, "plain structure needs 'n'"),
    ({"kind": "lowrank", "p": 2}, "lowrank structure needs 'q'"),
], ids=["list", "blocks-int", "weights-int", "tags-int", "n-list",
        "missing-n", "missing-q"])
def test_malformed_structure_file_is_an_error_line(tmp_path, capsys, doc,
                                                   field):
    path = tmp_path / "structure.json"
    serialize.save_json(path, doc)
    _refused(["nullspace", "--structure", str(path), "--matrix",
              str(write_matrix(tmp_path, np.ones((1, 2)))), "--s", "1"],
             capsys, field)


@pytest.mark.parametrize("section, key, value, field", [
    ("certificate", "lambda", "abc", "certificate.lambda"),
    ("certificate", "lambda", None, "certificate.lambda"),
    ("certificate", "iters", None, "certificate.iters"),
    ("signal", "s", "two", "signal.s"),
    ("signal", "s", float("nan"), "signal.s"),
    (None, "certificate", [1], "certificate must be"),
    (None, "output", "out.csv", "output must be"),
    (None, "recovery", 5, "recovery must be"),
    ("output", "summary", 1, "output.summary"),
    ("output", "table", 2, "output.table"),
    ("signal", "seed", None, "signal.seed"),
    ("signal", "seed", "x", "signal.seed"),
    ("noise", "seed", [1, "a"], "noise.seed"),
    ("matrix", "gaussian", {"m": None, "seed": 3}, "matrix.gaussian.m"),
    (None, "trials", True, "trials"),
    ("certificate", "iters", True, "certificate.iters"),
    ("matrix", "file", 0, "matrix.file"),
    ("matrix", "file", True, "matrix.file"),
    ("matrix", "file", ["a.csv"], "matrix.file"),
    ("matrix", "file", {"path": "a.csv"}, "matrix.file"),
    ("matrix", "file", None, "matrix.file"),
], ids=["lambda-string", "lambda-null", "iters-null", "s-string", "s-nan",
        "certificate-list", "output-string", "recovery-int", "summary-fd",
        "table-fd", "signal-seed-null", "signal-seed-string",
        "noise-seed-list", "gaussian-m-null", "trials-true", "iters-true",
        "file-fd", "file-true", "file-list", "file-object", "file-null"])
def test_malformed_experiment_config_is_an_error_line(
        tmp_path, capsys, section, key, value, field):
    path = make_config(tmp_path, trials=1)
    cfg = serialize.load_json(path)
    (cfg if section is None else cfg[section])[key] = value
    path.write_text(json.dumps(cfg))    # NaN as the JSON token NaN
    _refused(["experiment", "--config", str(path)], capsys, field)


def test_bound_evaluates_closed_form(tmp_path):
    from sparsecert.certify import Certificate
    cert_path = tmp_path / "cert.json"
    serialize.save_certificate(cert_path, Certificate(
        gamma=0.0, beta=2.0, s=1.0, phi="l1", method="ColumnLP"))
    r = run_cli("bound", "--certificate", str(cert_path), "--mode",
                "regular", "--epsilon", "0.1", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["bound"] == pytest.approx(0.4)


def test_bound_outside_validity_is_exit_four(tmp_path):
    from sparsecert.certify import Certificate
    cert_path = tmp_path / "cert.json"
    serialize.save_certificate(cert_path, Certificate(
        gamma=1.2, beta=2.0, s=1.0, phi="l1", method="ColumnLP"))
    r = run_cli("bound", "--certificate", str(cert_path), "--mode",
                "regular", "--epsilon", "0.1")
    assert r.returncode == 4
    # lam below beta on a valid certificate is also outside validity
    serialize.save_certificate(cert_path, Certificate(
        gamma=0.5, beta=2.0, s=1.0, phi="l1", method="ColumnLP"))
    r2 = run_cli("bound", "--certificate", str(cert_path), "--mode",
                 "penalized", "--lambda", "1.0", "--phi-xi", "0.1")
    assert r2.returncode == 4


def test_axioms_exit_codes(tmp_path):
    st, _ = structures.build_group([(0, 1), (1, 2)], block_norm="l2")
    sp = write_structure(tmp_path, st)
    r = run_cli("axioms", "--structure", str(sp), "--trials", "300")
    assert r.returncode == 0, r.stderr


# ---------------------------------------------------------------------------
# experiment


def make_config(tmp_path, trials=6, modes=("regular", "penalized")):
    st, _ = structures.build_plain(6)
    cfg = {
        "structure": structures.structure_to_dict(st),
        "matrix": {"gaussian": {"m": 5, "seed": 3}},
        "signal": {"s": 1, "law": "unit", "seed": 11},
        "noise": {"phi": "l1", "epsilon": [0.01, 0.3], "law": "ball",
                  "seed": 7},
        "recovery": list(modes),
        "certificate": {"method": "synth", "phi": "l1"},
        "trials": trials,
        "output": {"table": str(tmp_path / "rows.csv"),
                   "summary": str(tmp_path / "summary.json")},
    }
    path = tmp_path / "config.json"
    serialize.save_json(path, cfg)
    return path


def test_experiment_end_to_end(tmp_path):
    cfg = make_config(tmp_path)
    r = run_cli("experiment", "--config", str(cfg))
    assert r.returncode == 0, r.stderr + r.stdout
    rows = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,mode,s,epsilon,gamma,beta,error,bound,margin"
    assert len(rows) == 1 + 6 * 2           # trials x modes
    summary = serialize.load_json(tmp_path / "summary.json")
    assert summary["violations"] == 0
    assert summary["gamma"] < 1.0
    # every bound row holds
    for line in rows[1:]:
        parts = line.split(",")
        err, bound = float(parts[6]), float(parts[7])
        assert err <= bound + 1e-6


def test_experiment_outputs_are_bit_identical(tmp_path):
    cfg = make_config(tmp_path)
    run_cli("experiment", "--config", str(cfg))
    first = (tmp_path / "rows.csv").read_bytes()
    first_sum = (tmp_path / "summary.json").read_bytes()
    run_cli("experiment", "--config", str(cfg))
    assert (tmp_path / "rows.csv").read_bytes() == first
    assert (tmp_path / "summary.json").read_bytes() == first_sum
    # a threaded run must not change a byte either
    r = run_cli("experiment", "--config", str(cfg), "--threads", "4")
    assert r.returncode == 0
    assert (tmp_path / "rows.csv").read_bytes() == first


def test_experiment_summary_totals_anderson_steps(tmp_path, capsys):
    """The summary totals the Anderson counts of the trials' split solves:
    l2 pairs recover through ADMM, plain l1 through the LP."""
    totals = {}
    for name, st in (("pairs", structures.build_group(
            [(0, 1), (2, 3), (4, 5)], block_norm="l2")[0]),
            ("plain", structures.build_plain(6)[0])):
        path = make_config(tmp_path, trials=2, modes=("regular",))
        cfg = serialize.load_json(path)
        cfg["structure"] = structures.structure_to_dict(st)
        cfg["matrix"]["gaussian"]["m"] = 6
        serialize.save_json(path, cfg)
        assert cli.main(["experiment", "--config", str(path)]) == 0
        assert "ADMM Anderson steps:" in capsys.readouterr().out
        totals[name] = serialize.load_json(tmp_path / "summary.json")["anderson"]
    assert totals["pairs"]["accepted"] > 0
    assert totals["plain"] == {"accepted": 0, "rejected": 0, "resets": 0}


def test_readme_experiment_config_runs(tmp_path, monkeypatch):
    """The README's example config, cut to 2 trials, runs to exit 0 and
    writes its table and summary."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("```json", readme.index("**Experiment configs**"))
    block = readme[start + len("```json"):readme.index("```", start + 7)]
    cfg = dict(json.loads(block), trials=2)
    monkeypatch.chdir(tmp_path)
    serialize.save_json(tmp_path / "config.json", cfg)
    assert cli.main(["experiment", "--config", "config.json"]) == 0
    rows = (tmp_path / cfg["output"]["table"]).read_text().splitlines()
    assert len(rows) == 1 + 2 * 2           # header, trials x modes
    assert serialize.load_json(tmp_path / cfg["output"]["summary"])["trials"] == 2


def test_experiment_unsupported_combo_is_exit_five(tmp_path, capsys):
    path = make_config(tmp_path)
    cfg = serialize.load_json(path)
    cfg["certificate"] = {"phi": "l2"}
    serialize.save_json(path, cfg)
    assert cli.main(["experiment", "--config", str(path)]) == 5
    assert "unsupported" in capsys.readouterr().out.lower()


def test_experiment_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.json"
    serialize.save_json(path, {"trials": 0})
    r = run_cli("experiment", "--config", str(path))
    assert r.returncode == 1
    assert r.stderr.strip()


@pytest.mark.parametrize("section, key, value", [
    ("signal", "magnitude", "bogus"),
    ("noise", "law", "bogus"),
    ("noise", "epsilon", -0.1),
    ("noise", "epsilon", "0.1"),
    ("noise", "epsilon", True),
    ("noise", "epsilon", [0.3, 0.1]),
    ("noise", "epsilon", [-0.1, 0.1]),
    ("noise", "epsilon", [0.1]),
    ("noise", "epsilon", [0.1, 0.2, 0.3]),
], ids=["magnitude", "law-at-epsilon-0", "negative", "string", "bool",
        "high-below-low", "negative-low", "short-pair", "triple"])
def test_experiment_config_values_are_checked_when_parsed(
        tmp_path, capsys, monkeypatch, section, key, value):
    """A bad law or radius is exit 1 with the reason on stderr before any
    trial runs, also where no draw would read it (no noise at epsilon 0,
    no signal entry on a group whose blocks all weigh more than s)."""
    path = make_config(tmp_path, trials=2)
    cfg = serialize.load_json(path)
    cfg[section][key] = value
    if (section, key) == ("noise", "law"):
        cfg["noise"]["epsilon"] = 0.0
    if section == "signal":
        st, _ = structures.build_group([(0, 1, 2), (3, 4, 5)], weights=[2, 2])
        cfg["structure"] = structures.structure_to_dict(st)
    serialize.save_json(path, cfg)
    ran = []
    monkeypatch.setattr(cli, "recover_regular",
                        lambda *args, **kw: ran.append(args))
    assert cli.main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert not ran


def test_help_lists_subcommands():
    r = run_cli("--help")
    assert r.returncode == 0
    for sub in ("recover", "certify", "nullspace", "bound", "experiment",
                "axioms"):
        assert sub in r.stdout
