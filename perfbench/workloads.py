"""Seeded inputs for the four benchmark workloads.

Every workload is a list of *cases* (a problem shape and the CLI command
that solves it).  One *round* holds one fresh draw of every case; round r of
seed S draws its numbers from ``default_rng([S, workload, r, case])``, so a
seed fixes every input file.  The timed loop runs whole rounds, cycling
through the generated ones.

The program only ever sees the files written here; the benchmark keeps the
planted signal (``meta``) to check the outputs by property.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("synth", "nullspace", "recover", "experiment")

# rounds generated per seed: about as many as one run completes at today's
# speed; faster code cycles through them again
ROUNDS = {"synth": 6, "nullspace": 5, "recover": 6, "experiment": 12}


@dataclass
class Op:
    """One CLI command on generated files."""
    key: str                 # "<case>/r<round>", stable across runs of a seed
    case: str
    command: str             # sparsecert subcommand
    argv: list
    out: str | None = None   # result file the command writes
    meta: dict = field(default_factory=dict)  # what the checks need


def write_matrix(path, a):
    # same layout as the CLI's matrix format: header, dimensions, rows
    with open(path, "w") as fh:
        fh.write("rows,cols\n%d,%d\n" % a.shape)
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _plain(n):
    return {"kind": "plain", "n": n}


def _pairs(count, norm):
    return {"kind": "group", "blocks": [[2 * i, 2 * i + 1] for i in range(count)],
            "weights": [1.0] * count, "block_norms": [norm] * count}


def _triples(count, norm):
    return {"kind": "group",
            "blocks": [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(count)],
            "weights": [1.0] * count, "block_norms": [norm] * count}


def _dim(structure):
    if structure["kind"] == "plain":
        return structure["n"]
    if structure["kind"] == "group":
        return 1 + max(max(b) for b in structure["blocks"])
    return structure["p"] * structure["q"]


# ---------------------------------------------------------------------------
# case lists: (name, structure, m, extra); ``small`` shrinks them for smoke runs
#
# A run reports the median op and the 11th-slowest op.  Both are order
# statistics over a mix of case sizes, so each list is built to keep them
# off the boundary between two cases whatever the number of rounds run: one
# mid-cost case comes in several draws that hold the middle of the sorted
# op times, with about as many ops below as above it, and the heaviest case
# comes in enough draws per round that more than 11 of its ops land in
# every run.  A copy's name gets a ".<k>" suffix; its numbers are a separate
# draw.


def _draws(case, count):
    name, structure, m, extra = case
    return [case] + [(f"{name}.{i}", structure, m, extra) for i in range(2, count + 1)]


def synth_cases(small=False):
    """certify --method synth, s = 1: one large LP per op."""
    if small:
        return [("plain-n8", _plain(8), 5, {}),
                ("l1-3x2", _pairs(3, "l1"), 4, {}),
                ("linf-3x2", _pairs(3, "linf"), 4, {})]
    return [("plain-n12", _plain(12), 7, {}),
            ("plain-n14", _plain(14), 8, {}),
            ("l1-5x2", _pairs(5, "l1"), 6, {}),
            ("linf-5x2", _pairs(5, "linf"), 6, {})] \
        + _draws(("plain-n16", _plain(16), 10, {}), 10) \
        + [("plain-n18", _plain(18), 11, {})] \
        + _draws(("plain-n20", _plain(20), 12, {}), 6)


def nullspace_cases(small=False):
    """nullspace: hundreds of small LPs per op."""
    if small:
        return [("plain-n8-s2", _plain(8), 5, {"s": 2}),
                ("l1-4x2-s2", _pairs(4, "l1"), 5, {"s": 2}),
                ("linf-4x2-s2", _pairs(4, "linf"), 5, {"s": 2})]
    return _draws(("plain-n12-s2", _plain(12), 7, {"s": 2}), 2) \
        + _draws(("plain-n14-s2", _plain(14), 8, {"s": 2}), 2) \
        + [("l1-6x2-s2", _pairs(6, "l1"), 8, {"s": 2})] \
        + _draws(("plain-n16-s2", _plain(16), 10, {"s": 2}), 5) \
        + [("linf-6x2-s2", _pairs(6, "linf"), 8, {"s": 2})] \
        + _draws(("plain-n12-s3", _plain(12), 7, {"s": 3}), 4)


def recover_cases(small=False):
    """recover: LP-path ops (l1/linf noise) and ADMM-path ops (l2 noise,
    l2 blocks, low rank)."""
    if small:
        return [("lp-l1-n12", _plain(12), 6, {"phi": "l1", "eps": 0.05, "k": 2}),
                ("lp-linf-pen-n12", _plain(12), 6,
                 {"phi": "linf", "eps": 0.05, "k": 2, "lam": 1.5}),
                ("admm-l2-n10", _plain(10), 6, {"phi": "l2", "eps": 0.05, "k": 1}),
                ("admm-lowrank-3x3", {"kind": "lowrank", "p": 3, "q": 3}, 8,
                 {"phi": "l2", "eps": 0.05, "k": 1})]
    return _draws(("lp-l1-eq-n40", _plain(40), 20, {"phi": "l1", "eps": 0.0, "k": 3}), 4) \
        + _draws(("lp-l1-pen-n40", _plain(40), 20,
                  {"phi": "l1", "eps": 0.05, "k": 3, "lam": 1.5}), 2) \
        + _draws(("lp-l1-blocks-n30", _triples(10, "l1"), 15,
                  {"phi": "l1", "eps": 0.05, "k": 1}), 4) \
        + _draws(("lp-linf-blocks-n30", _triples(10, "linf"), 15,
                  {"phi": "linf", "eps": 0.0, "k": 1}), 4) \
        + _draws(("lp-l1-n50", _plain(50), 25, {"phi": "l1", "eps": 0.1, "k": 3}), 12) + [
        ("lp-linf-n60", _plain(60), 30, {"phi": "linf", "eps": 0.05, "k": 4}),
        ("lp-linf-pen-n60", _plain(60), 30,
         {"phi": "linf", "eps": 0.05, "k": 4, "lam": 1.5}),
        ("lp-linf-eq-n80", _plain(80), 40, {"phi": "linf", "eps": 0.0, "k": 5}),
        ("admm-lowrank-4x3", {"kind": "lowrank", "p": 4, "q": 3}, 9,
         {"phi": "l2", "eps": 0.05, "k": 1}),
        ("admm-l2-n30", _plain(30), 15, {"phi": "l2", "eps": 0.05, "k": 2}),
        ("admm-l2blocks-n30", _triples(10, "l2"), 15, {"phi": "l2", "eps": 0.05, "k": 1}),
    ] + _draws(("admm-l2-n50", _plain(50), 25, {"phi": "l2", "eps": 0.2, "k": 3}), 8)


def experiment_cases(small=False):
    """experiment --threads 2: certify, then a trial map of recoveries.  The
    ADMM configs run regular recovery only (see README: penalized ADMM
    trials have heavy-tailed iteration counts)."""
    if small:
        return [("plain-n8", _plain(8), 7, {"trials": 2, "modes": ["regular", "penalized"]}),
                ("l2blocks-3x2", _pairs(3, "l2"), 6, {"trials": 1, "modes": ["regular"]}),
                ("lowrank-2x2", {"kind": "lowrank", "p": 2, "q": 2}, 4,
                 {"trials": 1, "modes": ["regular"], "iters": 20})]
    return _draws(("plain-n10", _plain(10), 9,
                   {"trials": 4, "modes": ["regular", "penalized"]}), 14) \
        + _draws(("l2blocks-3x2", _pairs(3, "l2"), 6,
                  {"trials": 2, "modes": ["regular"]}), 2) \
        + _draws(("lowrank-3x3", {"kind": "lowrank", "p": 3, "q": 3}, 9,
                  {"trials": 2, "modes": ["regular"], "iters": 50}), 4)


CASES = {"synth": synth_cases, "nullspace": nullspace_cases,
         "recover": recover_cases, "experiment": experiment_cases}


# ---------------------------------------------------------------------------
# signals and noise, drawn by the benchmark (not by the program)


def _signal(structure, k, rng):
    dim = _dim(structure)
    x = np.zeros(dim)
    if structure["kind"] == "plain":
        idx = rng.choice(dim, size=k, replace=False)
        x[idx] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.5, size=k)
    elif structure["kind"] == "group":
        for b in rng.choice(len(structure["blocks"]), size=k, replace=False):
            idx = structure["blocks"][b]
            x[idx] = rng.standard_normal(len(idx))
    else:
        p, q = structure["p"], structure["q"]
        mat = sum(np.outer(rng.standard_normal(p), rng.standard_normal(q))
                  for _ in range(k))
        x = mat.reshape(-1)
    return x


def _noise(m, phi, eps, rng):
    if eps == 0.0:
        return np.zeros(m)
    xi = rng.standard_normal(m)
    scale = {"l1": np.abs(xi).sum(), "l2": np.linalg.norm(xi),
             "linf": np.abs(xi).max()}[phi]
    # strictly inside the ball, so the planted signal is feasible
    return xi * (eps * rng.uniform(0.2, 0.9) / scale)


def _s1_gamma(a):
    """gamma of the s=1 certificate for plain l1 when A (m = n - 1) has a
    one-dimensional null space spanned by v: 2 max|v_i| / ||v||_1.  At s=1
    the synthesized certificate is exact, so this is the gamma the program
    finds, computed here without it."""
    if a.shape[0] != a.shape[1] - 1:
        raise ValueError("needs m = n - 1")
    v = np.linalg.svd(a)[2][-1]
    return 2.0 * float(np.abs(v).max() / np.abs(v).sum())


# ---------------------------------------------------------------------------
# op generation


def generate(workload, seed, root, small=False):
    """Write the inputs of every round under ``root``; return the ops
    grouped by round (one round when ``small``)."""
    wid = WORKLOADS.index(workload)
    cases = CASES[workload](small)
    out = []
    for r in range(1 if small else ROUNDS[workload]):
        ops = []
        for ci, (name, structure, m, extra) in enumerate(cases):
            rng = np.random.default_rng([seed, wid, r, ci])
            stem = os.path.join(root, f"{workload}-{name}-r{r}")
            ops.append(_make_op(workload, f"{name}/r{r}", name, stem,
                                structure, m, extra, rng))
        out.append(ops)
    return out


def _make_op(workload, key, case, stem, structure, m, extra, rng):
    if workload in ("synth", "nullspace"):
        a = rng.standard_normal((m, _dim(structure)))
        # one structure file per case: creating files is most of the set-up
        # time, and the slowest part of it to repeat
        st_path = os.path.join(os.path.dirname(stem), f"{workload}-{case}.structure.json")
        a_path = stem + ".a.csv"
        if not os.path.exists(st_path):
            _write_json(st_path, structure)
        write_matrix(a_path, a)
        out = stem + ".out.json"
        if workload == "synth":
            argv = ["certify", "--structure", st_path, "--matrix", a_path,
                    "--s", "1", "--method", "synth", "--out", out]
            return Op(key, case, "certify", argv, out)
        argv = ["nullspace", "--structure", st_path, "--matrix", a_path,
                "--s", str(extra["s"]), "--out", out]
        return Op(key, case, "nullspace", argv, out)
    if workload == "recover":
        dim = _dim(structure)
        a = rng.standard_normal((m, dim))
        x0 = _signal(structure, extra["k"], rng)
        xi = _noise(m, extra["phi"], extra["eps"], rng)
        y = a @ x0 + xi
        path, out = stem + ".problem.json", stem + ".out.json"
        _write_json(path, {"structure": structure, "a": a.tolist(),
                           "y": y.tolist(), "phi": extra["phi"],
                           "epsilon": extra["eps"]})
        argv = ["recover", "--problem", path, "--out", out]
        lam = extra.get("lam")
        if lam is not None:
            argv += ["--mode", "penalized", "--lambda", repr(lam)]
        meta = {"structure": structure, "a": a, "y": y, "x0": x0, "xi": xi,
                "phi": extra["phi"], "eps": extra["eps"], "lam": lam}
        return Op(key, case, "recover", argv, out, meta)
    # experiment: the program draws A, signals and noise from config seeds
    seeds = [int(v) for v in rng.integers(0, 2**31 - 1, size=3)]
    if structure["kind"] == "plain":
        # about 1 draw in 2000 has gamma >= 1, and experiment then exits 4
        # before any trial; draw A again so that every op runs its trials
        n = structure["n"]
        while _s1_gamma(np.random.default_rng(seeds[0]).standard_normal((m, n))) \
                >= 1 - 1e-6:
            seeds[0] = int(rng.integers(0, 2**31 - 1))
    table, summary = stem + ".table.csv", stem + ".summary.json"
    cert = {"method": "ustar", "phi": "l1", "iters": extra["iters"]} \
        if structure["kind"] == "lowrank" else {"method": "synth", "phi": "l1"}
    config = {"structure": structure,
              "matrix": {"gaussian": {"m": m, "seed": seeds[0]}},
              "signal": {"s": 1, "magnitude": "unit", "seed": seeds[1]},
              "noise": {"phi": "l1", "epsilon": [0.01, 0.1],
                        "law": "ball", "seed": seeds[2]},
              "recovery": extra["modes"],
              "certificate": cert,
              "trials": extra["trials"],
              "output": {"table": table, "summary": summary}}
    path = stem + ".config.json"
    _write_json(path, config)
    argv = ["experiment", "--config", path, "--threads", "2"]
    return Op(key, case, "experiment", argv, summary,
              {"config": path, "table": table, "trials": extra["trials"],
               "modes": len(extra["modes"])})


def stall_probe_ops(seed, root, small=False, draws=4):
    """certify --method synth at s=2 on plain n=12 (n=8 if small), m=0.6n:
    draws on which the dense simplex may stall (see README)."""
    n = 8 if small else 12
    m = round(0.6 * n)
    st_path = os.path.join(root, "probe.structure.json")
    _write_json(st_path, _plain(n))
    ops = []
    for i in range(draws):
        a_path = os.path.join(root, f"probe-{i}.a.csv")
        write_matrix(a_path, np.random.default_rng([seed, 99, i]).standard_normal((m, n)))
        ops.append(Op(f"s2-probe-n{n}/{i}", f"s2-probe-n{n}", "certify",
                      ["certify", "--structure", st_path, "--matrix", a_path,
                       "--s", "2", "--method", "synth"]))
    return ops
