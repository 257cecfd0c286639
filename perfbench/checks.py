"""Output checks behind the failure count.

Property checks run on every op of every seed.  For the default seed the
unique optima are also compared with ``reference.json``, recorded from the
seed commit: gamma of a synthesized certificate, the nullspace status and
gamma value, the recovery status and objective.  Non-unique outputs (H,
beta, x_hat) are checked only by property.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

GAMMA_TOL = 1e-8
OBJECTIVE_RTOL = 1e-6
IDENTITY_TOL = 1e-8
FIT_TOL = 1e-6

_VERDICTS = ("CertifiedGood", "CertifiedBad", "Unknown")


def _vec_norm(v, phi):
    if phi == "l1":
        return float(np.abs(v).sum())
    if phi == "l2":
        return float(np.linalg.norm(v))
    return float(np.abs(v).max()) if v.size else 0.0


def structure_norm(structure, x):
    """||Bx|| computed here, independently of the package."""
    if structure["kind"] == "plain":
        return float(np.abs(x).sum())
    if structure["kind"] == "group":
        return sum(w * _vec_norm(x[list(b)], t) for b, w, t in zip(
            structure["blocks"], structure["weights"], structure["block_norms"]))
    mat = x.reshape(structure["p"], structure["q"])
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def outcome(op):
    """The unique optimum an op reports, as stored in reference.json."""
    with open(op.out) as fh:
        doc = json.load(fh)
    if op.command == "certify":
        return {"gamma": doc["gamma"]}
    if op.command == "nullspace":
        return {"status": doc["status"], "gamma_value": doc["gamma_value"]}
    if op.command == "recover":
        return {"status": doc["status"], "objective": doc["objective"]}
    return {}


def check(op, code, reference=None):
    """Problems found with an op's exit code and output; empty if none."""
    try:
        with open(op.out) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no readable output: {exc}"]
    problems = {"certify": _check_certificate, "nullspace": _check_verdict,
                "recover": _check_recovery,
                "experiment": _check_experiment}[op.command](op, code, doc)
    if reference is not None:
        problems += _against_reference(op, doc, reference)
    return problems


def _check_certificate(op, code, doc):
    out = []
    if code != (0 if doc["valid"] else 4):
        out.append(f"exit {code} with valid={doc['valid']}")
    if not _finite(doc["gamma"], doc["beta"]) or doc["gamma"] < 0:
        out.append("gamma/beta not finite")
    if doc["valid"] != (doc["gamma"] < 1):
        out.append("valid flag disagrees with gamma")
    if not doc["identity_residual"] <= IDENTITY_TOL:
        out.append(f"identity residual {doc['identity_residual']:.3e}")
    if "h" in doc and not np.all(np.isfinite(np.asarray(doc["h"], dtype=float))):
        out.append("H not finite")
    return out


def _check_verdict(op, code, doc):
    out = []
    if doc["status"] not in _VERDICTS:
        out.append(f"unknown status {doc['status']!r}")
    if code != (0 if doc["status"] == "CertifiedGood" else 4):
        out.append(f"exit {code} with status {doc['status']}")
    g = doc["gamma_value"]
    if g is not None and not (_finite(g) and -1e-12 <= g <= 1 + 1e-9):
        out.append(f"gamma_value {g} outside [0, 1]")
    return out


def _check_recovery(op, code, doc):
    meta = op.meta
    if code != 0 or doc["status"] != "optimal":
        return [f"exit {code}, status {doc['status']}"]
    x = np.asarray(doc["x_hat"], dtype=float)
    if x.shape != meta["x0"].shape or not np.all(np.isfinite(x)):
        return ["x_hat missing or not finite"]
    st, phi = meta["structure"], meta["phi"]
    fit = _vec_norm(meta["a"] @ x - meta["y"], phi)
    obj = structure_norm(st, x)
    planted = structure_norm(st, meta["x0"])
    out = []
    if abs(obj - doc["objective"]) > OBJECTIVE_RTOL * max(1.0, obj):
        out.append("reported objective disagrees with x_hat")
    if meta["lam"] is None:
        if fit > meta["eps"] + FIT_TOL * max(1.0, _vec_norm(meta["y"], phi)):
            out.append(f"fit {fit:.6g} exceeds epsilon {meta['eps']}")
        # the planted signal is feasible, so the optimum cannot exceed it
        if obj > planted * (1 + OBJECTIVE_RTOL) + OBJECTIVE_RTOL:
            out.append(f"objective {obj:.6g} above planted {planted:.6g}")
    else:
        lam = meta["lam"]
        total = obj + lam * fit
        bound = planted + lam * _vec_norm(meta["xi"], phi)
        if total > bound * (1 + OBJECTIVE_RTOL) + OBJECTIVE_RTOL:
            out.append(f"penalized objective {total:.6g} above planted {bound:.6g}")
    return out


def _check_experiment(op, code, doc):
    out = []
    if code != 0:
        out.append(f"exit {code}")
    if doc.get("violations") != 0:
        out.append(f"{doc.get('violations')} bound violation(s)")
    rows = expected = op.meta["trials"] * op.meta["modes"]
    try:
        with open(op.meta["table"], newline="") as fh:
            table = list(csv.reader(fh))[1:]
        rows = len(table)
        values = [float(v) for row in table for v in row[2:]]
    except (OSError, ValueError) as exc:
        return out + [f"table unreadable: {exc}"]
    if rows != expected or doc.get("rows") != expected:
        out.append(f"{rows} table rows, expected {expected}")
    if not all(math.isfinite(v) for v in values):
        out.append("table has non-finite values")
    return out


def _against_reference(op, doc, ref):
    if op.command == "certify":
        if abs(doc["gamma"] - ref["gamma"]) > GAMMA_TOL:
            return [f"gamma {doc['gamma']!r} != reference {ref['gamma']!r}"]
    elif op.command == "nullspace":
        g, rg = doc["gamma_value"], ref["gamma_value"]
        if doc["status"] != ref["status"]:
            return [f"status {doc['status']} != reference {ref['status']}"]
        if (g is None) != (rg is None) or (g is not None and abs(g - rg) > GAMMA_TOL):
            return [f"gamma_value {g!r} != reference {rg!r}"]
    elif op.command == "recover":
        if doc["status"] != ref["status"]:
            return [f"status {doc['status']} != reference {ref['status']}"]
        if abs(doc["objective"] - ref["objective"]) > \
                OBJECTIVE_RTOL * max(1.0, abs(ref["objective"])):
            return [f"objective {doc['objective']!r} != reference {ref['objective']!r}"]
    return []
