"""File formats: CSV matrices, JSON problems and certificates."""

import io
import json

import numpy as np
import pytest

from sparsecert import serialize, structures
from sparsecert.certify import Certificate
from sparsecert.serialize import (FormatError, certificate_from_dict,
                                  certificate_to_dict, load_certificate,
                                  load_json, load_matrix, load_problem,
                                  problem_from_dict, problem_to_dict,
                                  save_certificate, save_json, save_matrix,
                                  save_problem)


def test_matrix_round_trip_is_bit_exact(tmp_path, rng):
    m = rng.standard_normal((4, 7))
    m[0, 0] = 1e-300
    m[1, 2] = np.nextafter(1.0, 2.0)
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)        # repr round-trip, not approx


def test_matrix_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not a matrix\n")
    with pytest.raises(FormatError):
        load_matrix(p)
    p.write_text("rows,cols\n2,2\n1.0,2.0\n3.0\n")   # short row
    with pytest.raises(FormatError):
        load_matrix(p)
    p.write_text("rows,cols\n2,2\n1.0,2.0\n3.0,x\n")  # non-numeric
    with pytest.raises(FormatError):
        load_matrix(p)


def test_matrix_rejects_non_finite_entries(tmp_path):
    p = tmp_path / "bad.csv"
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"rows,cols\n2,2\n1.0,2.0\n3.0,{bad}\n")
        with pytest.raises(FormatError):
            load_matrix(p)


def test_json_errors_become_format_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    with pytest.raises(FormatError):
        load_json(p)


def test_json_is_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_json(p1, {"b": 1, "a": np.float64(2.5), "v": np.arange(3)})
    save_json(p2, {"v": [0, 1, 2], "a": 2.5, "b": 1})
    assert p1.read_bytes() == p2.read_bytes()   # sorted keys, cleaned values


def test_save_json_writes_the_bytes_of_json_dump(tmp_path, rng):
    """One write of the encoded text gives the bytes that ``json.dump`` to
    the file and a newline gave: a certificate with matrices, nested
    details, a non-finite value and non-ASCII text."""
    cert = Certificate(gamma=0.4, beta=np.float64(1.5), s=2.0, phi="l1",
                       method="GroupSynthesis",
                       h_matrix=rng.standard_normal((3, 5)),
                       w_matrix=rng.standard_normal((5, 5)),
                       details={"lps": np.int64(7), "gaps": [0.1, np.inf],
                                "note": "\u03b3 < 1", "nested": {"b": 1,
                                                                  "a": (2,)}})
    doc = certificate_to_dict(cert)
    path = tmp_path / "c.json"
    save_json(path, doc)
    want = io.StringIO()
    json.dump(serialize._clean(doc), want, indent=2, sort_keys=True,
              allow_nan=False)
    want.write("\n")
    assert path.read_bytes() == want.getvalue().encode()


def test_problem_round_trip(tmp_path, rng):
    from sparsecert.recovery import RecoveryProblem
    st = structures.build_group([(0, 1), (1, 2)], block_norm="l2")
    a = rng.standard_normal((2, 3))
    y = rng.standard_normal(2)
    problem = RecoveryProblem(a=a, b=None, y=y, phi="linf", epsilon=0.25)
    doc = problem_to_dict(problem, st)
    prob, st2 = problem_from_dict(doc)
    assert prob.phi == "linf" and prob.epsilon == 0.25
    assert np.array_equal(prob.a, a) and np.array_equal(prob.y, y)
    assert structures.structure_to_dict(st2) == \
        structures.structure_to_dict(st)
    path = tmp_path / "p.json"
    save_problem(path, problem, st)
    prob2, _ = load_problem(path)
    assert np.array_equal(prob2.a, prob.a)


def test_problem_round_trip_keeps_a_custom_b(tmp_path):
    """save_problem writes a custom B, so the reloaded problem recovers what
    the saved one did: x = [1, 0, 1] under B = diag(1, 10, 1), where the
    canonical B would give [0, 1, 0]."""
    from sparsecert.recovery import RecoveryProblem, recover_regular
    st = structures.build_plain(3)
    problem = RecoveryProblem(a=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                              b=np.diag([1.0, 10.0, 1.0]), y=[1.0, 1.0],
                              phi="l1")
    path = tmp_path / "p.json"
    save_problem(path, problem, st)
    loaded, st2 = load_problem(path)
    assert np.array_equal(loaded.b, problem.b)
    before = recover_regular(problem, st).x_hat
    assert np.allclose(before, [1.0, 0.0, 1.0], atol=1e-9)
    assert np.array_equal(recover_regular(loaded, st2).x_hat, before)


def test_problem_defaults():
    st = structures.build_plain(2)
    prob, _ = problem_from_dict({
        "structure": structures.structure_to_dict(st),
        "a": [[1.0, 0.0], [0.0, 1.0]], "y": [0.0, 0.0]})
    assert prob.phi == "l2" and prob.epsilon == 0.0


def test_certificate_round_trip_unchanged(tmp_path, rng):
    cert = Certificate(gamma=0.4, beta=1.5, s=2.0, phi="l1",
                       method="GroupSynthesis",
                       h_matrix=rng.standard_normal((3, 5)),
                       w_matrix=rng.standard_normal((5, 5)),
                       identity_residual=1e-14, exact_gamma=True,
                       exact_beta=True, details={"note": "fixture"})
    path = tmp_path / "c.json"
    save_certificate(path, cert)
    back = load_certificate(path)
    assert certificate_to_dict(back) == certificate_to_dict(cert)
    # a second write of the parsed object is byte-identical
    path2 = tmp_path / "c2.json"
    save_certificate(path2, back)
    assert path.read_bytes() == path2.read_bytes()
    assert back.valid == cert.valid


def test_certificate_matrix_inline_cap(rng):
    big = rng.standard_normal((120, 120))   # 14400 > inline cap
    cert = Certificate(gamma=0.4, beta=1.0, s=1.0, phi="l1",
                       method="GroupSynthesis", h_matrix=big)
    d = certificate_to_dict(cert)
    assert "h" not in d
    d2 = certificate_to_dict(cert, include_matrices=True)
    assert np.array_equal(np.array(d2["h"]), big)


def test_certificate_validity_flag():
    good = Certificate(gamma=0.99, beta=0.0, s=1.0, phi="l1", method="X")
    bad = Certificate(gamma=1.0, beta=0.0, s=1.0, phi="l1", method="X")
    assert good.valid and not bad.valid
    assert certificate_to_dict(bad)["valid"] is False


def test_certificate_from_dict_requires_core_fields():
    with pytest.raises((FormatError, KeyError)):
        certificate_from_dict({"gamma": 0.5})
