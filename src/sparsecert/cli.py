"""Command-line front end: recovery runs, certification, bound validation.

Subcommands and their exit codes:

    recover     0 solved, 2 iteration cap hit, 3 infeasible, 1 bad input
    certify     0 certificate with gamma < 1, 2 synthesis LP stopped at its
                iteration cap, 4 not certifiable by the requested method,
                5 unsupported structure/metric combination
    nullspace   0 certified good, 4 certified bad or unknown
    bound       0 bound printed, 4 parameters outside bound validity
    experiment  0 every trial within its bound, 2 synthesis LP stopped at
                its iteration cap, 4 certificate gamma >= 1, 5 unsupported
                structure/metric combination, 7 a bound violation, 1 bad
                config
    axioms      0 all randomized checks pass, 4 violation found

Every command accepts --json (machine-readable stdout mirror) and --seed.
``experiment`` runs its trials serially, in trial order; --threads is
accepted on every command for compatibility and has no effect.
Matrices are CSV files with a rows,cols header; everything else is JSON.
Outputs are deterministic for fixed seeds: reruns write identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import norms, serialize, structures
from .certify import (SynthesisNotOptimalError, certify_lowrank,
                      gamma_s_bruteforce, synth_certificate_group)
from .engine import Status
from .recovery import (ErrorBudget, GammaTooLargeError, LambdaBelowBetaError,
                       RecoveryProblem, error_bound, recover_penalized,
                       recover_regular)

_STATUS_EXIT = {Status.OPTIMAL: 0, Status.MAXITER: 2, Status.INFEASIBLE: 3,
                Status.UNBOUNDED: 2}


def _emit(args, doc, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(serialize._clean(doc), indent=2, sort_keys=True,
                         allow_nan=False))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# recover


def cmd_recover(args):
    problem, structure = serialize.load_problem(args.problem)
    if args.mode == "penalized":
        if args.lam is None:
            raise serialize.FormatError("--mode penalized needs --lambda")
        result = recover_penalized(problem, structure, args.lam, tol=args.tol)
    else:
        result = recover_regular(problem, structure, tol=args.tol)
    status = result.report.status
    doc = {
        "mode": args.mode,
        "status": status.value,
        "x_hat": result.x_hat,
        "w_hat": result.w_hat,
        "objective": (norms.structure_norm(structure, result.w_hat)
                      if result.w_hat is not None else None),
        "delta": result.delta,
        "delta_phi": result.delta_phi,
        "iterations": result.report.iterations,
        "start": result.report.start,
        "anderson": result.report.anderson,
    }
    if args.out:
        serialize.save_json(args.out, doc)
    lines = [f"status: {status.value}"]
    if result.x_hat is not None:
        lines.append("x_hat: " + " ".join(f"{v:.10g}" for v in result.x_hat))
        lines.append(f"objective: {doc['objective']:.10g}  "
                     f"delta: {result.delta:.3e}  delta_phi: {result.delta_phi:.3e}")
    _emit(args, doc, lines)
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# certify


def _load_structure(path):
    return structures.structure_from_dict(serialize.load_json(path))


def _make_certificate(structure, a, s, phi, method, iters, seed):
    if structure.kind == "lowrank":
        if method in ("auto", "ustar"):
            return certify_lowrank(a, s, phi=phi, p=structure.p,
                                   q=structure.q, iters=iters, seed=seed)
        if method == "bar":
            return certify_lowrank(a, s, phi=phi, p=structure.p,
                                   q=structure.q, iters=0, seed=seed)
        raise serialize.FormatError(
            f"method {method!r} does not apply to low-rank structures")
    if method not in ("auto", "synth"):
        raise serialize.FormatError(
            f"method {method!r} only applies to low-rank structures")
    return synth_certificate_group(a, None, structure, s, phi=phi)


def _report_unsupported(args, exc):
    _emit(args, {"error": str(exc), "supported": False},
          [f"unsupported combination: {exc}"])
    return 5


def cmd_certify(args):
    _check_integer(args.iters, "--iters")
    structure = _load_structure(args.structure)
    a = serialize.load_matrix(args.matrix)
    try:
        cert = _make_certificate(structure, a, args.s, args.phi,
                                 args.method, args.iters, args.seed)
    except norms.UnsupportedNormError as exc:
        return _report_unsupported(args, exc)
    doc = serialize.certificate_to_dict(cert)
    if args.out:
        serialize.save_json(args.out, doc)
    _emit(args, doc, [
        f"method: {cert.method}",
        f"gamma: {cert.gamma:.10g}  (exact: {cert.exact_gamma})",
        f"beta:  {cert.beta:.10g}  (exact: {cert.exact_beta})",
        f"valid: {cert.valid}",
    ])
    return 0 if cert.valid else 4


# ---------------------------------------------------------------------------
# nullspace


def cmd_nullspace(args):
    structure = _load_structure(args.structure)
    a = serialize.load_matrix(args.matrix)
    verdict = gamma_s_bruteforce(a, structure, args.s, seed=args.seed)
    doc = {
        "status": verdict.status,
        "s": verdict.s,
        "gamma_value": verdict.gamma_value,
        "bracket": verdict.bracket,
        "details": verdict.details,
    }
    if args.out:
        serialize.save_json(args.out, doc)
    lines = [f"status: {verdict.status}"]
    if verdict.gamma_value is not None:
        lines.append(f"gamma_s: {verdict.gamma_value:.10g}")
    if verdict.bracket is not None:
        lines.append(f"bracket: [{verdict.bracket[0]:.10g}, {verdict.bracket[1]:.10g}]")
    _emit(args, doc, lines)
    return 0 if verdict.status == "CertifiedGood" else 4


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args):
    cert = serialize.load_certificate(args.certificate)
    budget = ErrorBudget(epsilon=args.epsilon, delta_x=args.delta_x,
                         delta_phi=args.delta_phi, delta=args.delta,
                         lam=args.lam, phi_xi=args.phi_xi)
    try:
        value = error_bound(cert.gamma, cert.beta, budget, args.mode)
    except (GammaTooLargeError, LambdaBelowBetaError) as exc:
        _emit(args, {"error": str(exc)}, [f"no bound: {exc}"])
        return 4
    doc = {"mode": args.mode, "bound": value, "gamma": cert.gamma,
           "beta": cert.beta}
    _emit(args, doc, [f"bound on the recovery error: {value:.10g}"])
    return 0


# ---------------------------------------------------------------------------
# axioms


def cmd_axioms(args):
    structure = _load_structure(args.structure)
    report = structures.verify_axioms(structure, args.trials, args.seed)
    doc = {"kind": report.kind, "trials": report.trials,
           "worst_margin": report.worst_margin,
           "violations": len(report.violations)}
    lines = [f"{report.kind}: {report.trials} trials"]
    for name, margin in report.worst_margin.items():
        lines.append(f"  {name}: worst margin {margin:.3e}")
    lines.append("ok" if report.ok else f"{len(report.violations)} violation(s)")
    _emit(args, doc, lines)
    return 0 if report.ok else 4


# ---------------------------------------------------------------------------
# experiment


_MAGNITUDE_LAWS = ("unit", "gaussian", "uniform")
_NOISE_LAWS = ("sphere", "ball", "none")


def _is_radius(value):
    """A finite number >= 0 (a JSON true/false is not a number here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value) and value >= 0


def _check_integer(value, name, least=0):
    """Refuse the field ``name`` unless its ``value`` is an integer >=
    ``least`` (a JSON true/false is not an integer here, a missing field
    reads None)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise serialize.FormatError(
            f"{name} {value!r} is not an integer >= {least}")


@dataclass
class ExperimentConfig:
    structure: dict
    matrix: dict
    signal: dict
    noise: dict
    recovery: list
    certificate: dict
    trials: int
    output: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, doc):
        if not isinstance(doc, dict):
            raise serialize.FormatError("config must be a JSON object")
        missing = [k for k in ("structure", "matrix", "signal", "noise",
                               "recovery", "certificate", "trials")
                   if k not in doc]
        if missing:
            raise serialize.FormatError(f"config missing fields: {missing}")
        for name in ("structure", "matrix", "signal", "noise", "certificate",
                     "output"):
            if not isinstance(doc.get(name, {}), dict):
                raise serialize.FormatError(f"{name} must be a JSON object")
        trials = doc["trials"]
        _check_integer(trials, "trials", 1)
        modes = doc["recovery"]
        if isinstance(modes, str):
            modes = [modes]
        if not isinstance(modes, list):
            raise serialize.FormatError("recovery must be a mode or a list")
        bad = [m for m in modes if m not in ("regular", "penalized")]
        if bad:
            raise serialize.FormatError(f"unknown recovery mode(s): {bad}")
        cert = doc["certificate"]
        if "lambda" in cert and not (_is_radius(cert["lambda"])
                                     and cert["lambda"] > 0):
            raise serialize.FormatError(
                f"certificate.lambda {cert['lambda']!r} is not a number > 0")
        _check_integer(cert.get("iters", 0), "certificate.iters")
        sig = doc["signal"]
        _check_integer(sig.get("seed"), "signal.seed")
        if not _is_radius(sig.get("s")):
            raise serialize.FormatError(
                f"signal.s {sig.get('s')!r} is not a number >= 0")
        if sig.get("magnitude", "unit") not in _MAGNITUDE_LAWS:
            raise serialize.FormatError(f"signal.magnitude {sig['magnitude']!r}"
                                        f" is not one of {_MAGNITUDE_LAWS}")
        noi = doc["noise"]
        _check_integer(noi.get("seed"), "noise.seed")
        if noi.get("law", "sphere") not in _NOISE_LAWS:
            raise serialize.FormatError(f"noise.law {noi['law']!r} is not "
                                        f"one of {_NOISE_LAWS}")
        eps = noi.get("epsilon", 0.0)
        bounds = eps if isinstance(eps, list) and len(eps) == 2 else [eps]
        if not all(_is_radius(v) for v in bounds) or bounds[0] > bounds[-1]:
            raise serialize.FormatError(
                f"noise.epsilon {eps!r} is neither a number >= 0 nor a "
                "[low, high] pair with 0 <= low <= high")
        mat = doc["matrix"]
        if "file" not in mat and "gaussian" not in mat:
            raise serialize.FormatError("matrix needs 'file' or 'gaussian'")
        if not isinstance(mat.get("file", ""), str):
            # a path; an integer would be opened as a file descriptor
            raise serialize.FormatError(
                f"matrix.file {mat['file']!r} is not a file path")
        if "gaussian" in mat:
            g = mat["gaussian"]
            if not isinstance(g, dict):
                raise serialize.FormatError("matrix.gaussian must be a JSON object")
            _check_integer(g.get("m"), "matrix.gaussian.m", 1)
            _check_integer(g.get("seed"), "matrix.gaussian.seed")
        output = doc.get("output", {})
        for key in ("summary", "table"):
            # a path; an integer would be opened as a file descriptor
            if not isinstance(output.get(key, ""), (str, type(None))):
                raise serialize.FormatError(
                    f"output.{key} {output[key]!r} is not a file path")
        return cls(structure=doc["structure"], matrix=mat, signal=sig,
                   noise=noi, recovery=list(modes),
                   certificate=doc["certificate"], trials=trials,
                   output=output)


def _sensing_matrix(cfg, structure):
    if "file" in cfg.matrix:
        return serialize.load_matrix(cfg.matrix["file"])
    g = cfg.matrix["gaussian"]
    rng = np.random.default_rng(int(g["seed"]))
    return rng.standard_normal((int(g["m"]), structure.ambient_dim_x))


def _sparse_signal(structure, s, law, rng):
    """Random signal whose representation has projector weight <= s."""
    def draw(size):
        if law == "unit":
            return rng.choice([-1.0, 1.0], size=size)
        if law == "gaussian":
            return rng.standard_normal(size)
        # "uniform": ExperimentConfig.parse refuses any other law
        return rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size=size)

    # plain keeps its own draw (not the group one): a seed's signals stay put
    if structure.kind == "plain":
        k = min(int(s), structure.n)
        x = np.zeros(structure.n)
        if k:
            support = rng.choice(structure.n, size=k, replace=False)
            x[support] = draw(k)
        return x
    if structure.kind == "group":
        x = np.zeros(structure.ambient_dim_x)
        budget = float(s)
        for li in rng.permutation(len(structure.blocks)):
            w = structure.weights[li]
            if w <= budget + 1e-12:
                idx = list(structure.blocks[li])
                x[idx] = draw(len(idx))
                budget -= w
        return x
    p, q = structure.p, structure.q
    mat = np.zeros((p, q))
    for _ in range(min(int(s), p, q)):
        mat += np.outer(draw(p), draw(q))
    return mat.reshape(-1)


def _noise_vector(m, phi, noise_cfg, rng):
    """(xi, epsilon) honoring the configured law."""
    eps = noise_cfg.get("epsilon", 0.0)
    if isinstance(eps, (list, tuple)):
        lo, hi = float(eps[0]), float(eps[1])
        eps = float(rng.uniform(lo, hi))
    eps = float(eps)
    law = noise_cfg.get("law", "sphere")
    if eps == 0.0 or law == "none":
        return np.zeros(m), eps
    xi = rng.standard_normal(m)
    scale = norms.vector_norm(xi, phi)
    if scale < 1e-300:
        return np.zeros(m), eps
    xi *= eps / scale
    if law == "ball":
        xi *= rng.uniform(0.0, 1.0)
    return xi, eps


def cmd_experiment(args):
    cfg = ExperimentConfig.parse(serialize.load_json(args.config))
    structure = structures.structure_from_dict(cfg.structure)
    a = _sensing_matrix(cfg, structure)
    s = cfg.signal["s"]
    phi = cfg.certificate.get("phi", "l1")

    method = cfg.certificate.get("method", "auto")
    iters = int(cfg.certificate.get("iters", 2000))
    try:
        cert = _make_certificate(structure, a, s, phi, method, iters,
                                 args.seed)
    except norms.UnsupportedNormError as exc:
        return _report_unsupported(args, exc)
    if not cert.valid:
        _emit(args, {"error": "certificate gamma >= 1", "gamma": cert.gamma},
              [f"certificate not valid (gamma = {cert.gamma:.6g}); "
               "no bounds to validate"])
        return 4
    lam = cfg.certificate.get("lambda", max(cert.beta, 1e-6))
    if "penalized" in cfg.recovery and lam < cert.beta:
        raise serialize.FormatError(
            f"configured lambda {lam} is below beta {cert.beta:.6g}")

    law = cfg.signal.get("magnitude", "unit")

    anderson = dict.fromkeys(("accepted", "rejected", "resets"), 0)

    def one_trial(i):
        sig_rng = np.random.default_rng([int(cfg.signal["seed"]), i])
        noi_rng = np.random.default_rng([int(cfg.noise["seed"]), i])
        x0 = _sparse_signal(structure, s, law, sig_rng)
        xi, eps = _noise_vector(a.shape[0], phi, cfg.noise, noi_rng)
        y = a @ x0 + xi
        problem = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
        w0 = structure.b @ x0
        dx = structures.best_sparse_approx(structure, w0, s).delta_x
        rows = []
        for mode in cfg.recovery:
            if mode == "regular":
                res = recover_regular(problem, structure, tol=args.tol)
                terms = {"delta_phi": res.delta_phi}
            else:
                res = recover_penalized(problem, structure, lam, tol=args.tol)
                terms = {"lam": lam, "phi_xi": norms.vector_norm(xi, phi)}
            for key, count in (res.report.anderson or {}).items():
                anderson[key] += count
            if res.w_hat is None:
                rows.append((i, mode, float(s), eps, np.inf, np.inf, -np.inf))
                continue
            err = norms.structure_norm(structure, res.w_hat - w0)
            # a point with no certified gap (delta inf) has no finite bound
            bound = error_bound(cert.gamma, cert.beta, ErrorBudget(
                epsilon=eps, delta_x=dx, delta=res.delta, **terms), mode) \
                if math.isfinite(res.delta) else math.inf
            rows.append((i, mode, float(s), eps, err, bound, bound - err))
        return rows

    all_rows = [row for i in range(cfg.trials) for row in one_trial(i)]

    table_path = cfg.output.get("table")
    if table_path:
        with open(table_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "mode", "s", "epsilon", "gamma", "beta",
                        "error", "bound", "margin"])
            for i, mode, sv, eps, err, bound, margin in all_rows:
                w.writerow([i, mode, repr(sv), repr(eps), repr(cert.gamma),
                            repr(cert.beta), repr(err), repr(bound),
                            repr(margin)])

    margins = [r[6] for r in all_rows]
    violations = [r for r in all_rows if r[6] < -1e-6]
    summary = {
        "trials": cfg.trials,
        "rows": len(all_rows),
        "gamma": cert.gamma,
        "beta": cert.beta,
        "worst_margin": min(margins) if margins else None,
        "mean_error": float(np.mean([r[4] for r in all_rows])) if all_rows else None,
        "violations": len(violations),
        "anderson": anderson,
    }
    if cfg.output.get("summary"):
        serialize.save_json(cfg.output["summary"], summary)
    _emit(args, summary, [
        f"{cfg.trials} trial(s), {len(all_rows)} recovery run(s)",
        f"gamma {cert.gamma:.6g}, beta {cert.beta:.6g}",
        f"worst margin: {summary['worst_margin']:.3e}" if margins else "no rows",
        "all bounds hold" if not violations else
        f"{len(violations)} bound violation(s)",
        "ADMM Anderson steps: {accepted} accepted, {rejected} rejected, "
        "{resets} memory resets".format(**anderson),
    ])
    return 7 if violations else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized step (default 0)")
    common.add_argument("--tol", type=float, default=1e-8,
                        help="solver tolerance (default 1e-8)")
    common.add_argument("--json", action="store_true",
                        help="print a JSON document instead of text")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; no effect "
                        "(experiment trials run serially)")

    parser = argparse.ArgumentParser(
        prog="sparsecert",
        description="structured sparse recovery and certification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", parents=[common],
                       help="run a recovery on a problem file")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--mode", choices=("regular", "penalized"),
                   default="regular")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="penalty weight (penalized mode)")
    p.add_argument("--out", help="write the result document here")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("certify", parents=[common],
                       help="produce a (gamma, beta) certificate")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--matrix", required=True, help="sensing matrix CSV")
    p.add_argument("--s", type=float, required=True, help="sparsity level")
    p.add_argument("--phi", default="l1", choices=("l1", "l2", "linf"))
    p.add_argument("--method", default="auto",
                   choices=("auto", "synth", "bar", "ustar"))
    p.add_argument("--iters", type=int, default=2000,
                   help="subgradient iterations for low-rank tightening")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("nullspace", parents=[common],
                       help="brute-force nullspace verdict")
    p.add_argument("--structure", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nullspace)

    p = sub.add_parser("bound", parents=[common],
                       help="evaluate the closed-form error bound")
    p.add_argument("--certificate", required=True)
    p.add_argument("--mode", choices=("regular", "penalized"),
                   default="regular")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--delta-x", dest="delta_x", type=float, default=0.0)
    p.add_argument("--delta-phi", dest="delta_phi", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--phi-xi", dest="phi_xi", type=float, default=0.0)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", parents=[common],
                       help="randomized recovery trials against the bounds")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("axioms", parents=[common],
                       help="randomized structure axiom checks")
    p.add_argument("--structure", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_axioms)

    return parser


_PARSER = _build_parser()  # once per process, not per call of main


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except SynthesisNotOptimalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # FormatError and StructureError are ValueErrors; an OSError is a path
    # that cannot be read or written (missing, a directory, no permission)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
