"""File formats used by the command line.

Matrices travel as CSV: a literal ``rows,cols`` header line, one line with the
two dimensions, then one line per row with ``repr``-precision floats (so a
write/read cycle reproduces every double bit for bit).  Problems, certificates,
and experiment configs are JSON documents with matrices inlined as nested
lists; all index fields are 0-based.  Every JSON document written is RFC 8259
JSON: a non-finite float (an infinite ``delta`` of an infeasible recovery,
say) is written as ``null``, and the encoder refuses NaN and infinity, so a
value that bypasses that rule fails loudly instead of writing ``Infinity``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from . import structures
from .certify.conditions import Certificate
from .recovery import RecoveryProblem


class FormatError(ValueError):
    """Malformed file contents (bad header, wrong shape, missing field)."""


# ---------------------------------------------------------------------------
# matrices


def save_matrix(path, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rows", "cols"])
        w.writerow([mat.shape[0], mat.shape[1]])
        for row in mat:
            w.writerow([repr(float(v)) for v in row])


def load_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or [c.strip() for c in rows[0]] != ["rows", "cols"]:
        raise FormatError(f"{path}: expected a 'rows,cols' header line")
    try:
        r, c = int(rows[1][0]), int(rows[1][1])
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: bad dimension line {rows[1]!r}") from exc
    data = rows[2:]
    if len(data) != r or any(len(line) != c for line in data):
        raise FormatError(f"{path}: body does not match declared {r}x{c}")
    try:
        mat = np.array([[float(v) for v in line] for line in data])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric entry") from exc
    if not np.all(np.isfinite(mat)):
        raise FormatError(f"{path}: non-finite entry")
    return mat


# ---------------------------------------------------------------------------
# json helpers


def _clean(value):
    """Recursively convert to JSON-encodable built-ins; drop what will not go.

    Non-finite floats become None (JSON null)."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _clean(value.tolist())
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return str(value)


def save_json(path, doc):
    with open(path, "w") as fh:
        json.dump(_clean(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# problems


def problem_to_dict(problem, structure):
    doc = {
        "structure": structures.structure_to_dict(structure),
        "a": problem.a.tolist(),
        "y": problem.y.tolist(),
        "phi": problem.phi,
        "epsilon": float(problem.epsilon),
    }
    if problem.b is not None:
        doc["b"] = problem.b.tolist()
    return doc


def problem_from_dict(doc):
    """(problem, structure) from a problem document; ``b``, when present,
    is a custom representation map."""
    try:
        structure = structures.structure_from_dict(doc["structure"])
        a = np.asarray(doc["a"], dtype=float)
        y = np.asarray(doc["y"], dtype=float)
        phi = doc.get("phi", "l2")
        epsilon = float(doc.get("epsilon", 0.0))
        problem = RecoveryProblem(a=a, b=doc.get("b"), y=y, phi=phi,
                                  epsilon=epsilon)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad problem document: {exc}") from exc
    return problem, structure


def save_problem(path, problem, structure):
    save_json(path, problem_to_dict(problem, structure))


def load_problem(path):
    return problem_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# certificates

# matrices larger than this many entries stay out of certificate files unless
# explicitly requested; certificates must stay human-inspectable
_INLINE_CAP = 10_000


def certificate_to_dict(cert, include_matrices=None):
    doc = {
        "gamma": float(cert.gamma),
        "beta": float(cert.beta),
        "s": float(cert.s),
        "phi": cert.phi,
        "method": cert.method,
        "valid": cert.valid,
        "identity_residual": float(cert.identity_residual),
        "exact_gamma": bool(cert.exact_gamma),
        "exact_beta": bool(cert.exact_beta),
        "details": _clean(cert.details),
    }
    for name, mat in (("h", cert.h_matrix), ("w", cert.w_matrix)):
        if mat is None:
            continue
        keep = include_matrices if include_matrices is not None \
            else mat.size <= _INLINE_CAP
        if keep:
            doc[name] = np.asarray(mat, dtype=float).tolist()
    return doc


def certificate_from_dict(doc):
    try:
        cert = Certificate(
            gamma=float(doc["gamma"]), beta=float(doc["beta"]),
            s=float(doc["s"]), phi=doc["phi"], method=doc["method"],
            identity_residual=float(doc.get("identity_residual", 0.0)),
            exact_gamma=bool(doc.get("exact_gamma", True)),
            exact_beta=bool(doc.get("exact_beta", True)),
            details=doc.get("details", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad certificate document: {exc}") from exc
    if "h" in doc:
        cert.h_matrix = np.asarray(doc["h"], dtype=float)
    if "w" in doc:
        cert.w_matrix = np.asarray(doc["w"], dtype=float)
    return cert


def save_certificate(path, cert, include_matrices=None):
    save_json(path, certificate_to_dict(cert, include_matrices))


def load_certificate(path):
    return certificate_from_dict(load_json(path))
