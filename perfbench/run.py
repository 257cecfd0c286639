"""Seeded benchmark of the sparsecert CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

One client in one process drives ``sparsecert.cli.main(argv)`` in a closed
loop: each op is one CLI command on files generated from ``--seed`` (see
workloads.py), the next op starts when the previous one returns.  The timed
phase runs whole rounds of the workload's cases until ``--seconds`` have
passed; a round that has started is finished.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then the same ops again with the layer wrappers of spans.py
installed, and prints the per-layer metrics plus the tracing overhead (the
traced wall time of those ops over the untraced one, minus 1).  ``--smoke``
shrinks every case to a toy size.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS thread: experiment's two trial threads are then the only
# parallelism, matching the two cores the figures were taken on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
OP_LIMIT_S = 20.0       # an op running longer is stopped and counted failed
OVERRUN_S = 60.0        # stop mid-round once the timed phase runs this late
PROBE_LIMIT_S = 3.0     # per draw of the s=2 stall probe


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("synth", "nullspace", "recover", "experiment"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy-sized cases, for a quick end-to-end check")
    return p.parse_args(argv)


class Bench:
    def __init__(self, args, work):
        from sparsecert import cli
        import checks
        import workloads
        self.cli, self.checks, self.workloads = cli, checks, workloads
        self.args, self.work = args, work
        self.reference = None
        ref_path = HERE / "reference.json"
        if args.seed == DEFAULT_SEED and not args.smoke and ref_path.is_file():
            with open(ref_path) as fh:
                self.reference = json.load(fh)["workloads"][args.workload]
        self.failures = []
        self.kernel_s = []  # every calibration kernel time of the timed phase

    def run_op(self, op, limit=OP_LIMIT_S, tracer=None, op_id=0):
        """(wall seconds, exit code or None, error text or None)."""
        sink = io.StringIO()
        code = error = None
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id, op)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(op.argv)
        except OpTimeout:
            error = f"over the {limit:g} s op limit"
        except Exception as exc:  # an escaped error is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            if tracer is not None:
                wall = tracer.end_op(code).t1 - t0
        return wall, code, error

    def attempt(self, op, **kw):
        """Run and check one op: (wall seconds, exit code, passed)."""
        wall, code, error = self.run_op(op, **kw)
        if error is None:
            ref = None
            if self.reference is not None:
                ref = self.reference.get(op.key)
                if ref is None:
                    error = "no reference recorded for this op"
            if error is None:
                problems = self.checks.check(op, code, ref)
                error = "; ".join(problems) if problems else None
        if error is not None:
            self.failures.append(f"{op.key}: {error}")
        return wall, code, error is None

    def setup_once(self, i):
        """(wall seconds, kernel seconds, rounds) of one set-up."""
        kernel_s = statistics.median(hostspeed.kernel() for _ in range(3))
        t0 = time.perf_counter()
        root = self.work / f"inputs{i}"
        (root / "warm").mkdir(parents=True)
        rounds = self.workloads.generate(self.args.workload, self.args.seed,
                                         str(root), small=self.args.smoke)
        # warm-up inputs do not depend on the seed, so neither does its cost
        warm = self.workloads.generate(self.args.workload, 0,
                                       str(root / "warm"), small=True)
        for op in warm[0]:
            self.run_op(op)
        return time.perf_counter() - t0, kernel_s, rounds

    def timed(self, rounds, seconds, tracer=None, sequence=None):
        """Closed loop over whole rounds (or over a given op sequence).
        Returns (op, wall, exit code, passed, scaled wall) per op: the
        calibration kernel runs before each op, and the scaled wall is the
        wall time at the reference host speed (see hostspeed.py)."""
        done, kernel_s = [], []
        start = time.perf_counter()
        r = 0
        late = False
        while not late:
            ops = sequence if sequence is not None else rounds[r % len(rounds)]
            for op in ops:
                kernel_s.append(hostspeed.kernel())
                wall, code, ok = self.attempt(op, tracer=tracer, op_id=len(done))
                done.append((op, wall, code, ok))
                late = time.perf_counter() - start > seconds + OVERRUN_S
                if late:
                    break
            r += 1
            if sequence is not None or time.perf_counter() - start >= seconds:
                break
        self.kernel_s += kernel_s
        return [(op, wall, code, ok, wall * f) for (op, wall, code, ok), f
                in zip(done, hostspeed.scales(kernel_s))]

    def determinism(self, ops):
        """Experiment tables must be byte-identical with --threads 1."""
        ok = True
        for op in ops:
            with open(op.meta["config"]) as fh:
                cfg = json.load(fh)
            table = op.meta["table"] + ".threads1.csv"
            cfg["output"] = {"table": table, "summary": op.out + ".threads1.json"}
            path = op.meta["config"] + ".threads1.json"
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            serial = self.workloads.Op(op.key + "/threads1", op.case, op.command,
                                       ["experiment", "--config", path,
                                        "--threads", "1"])
            _wall, code, error = self.run_op(serial)
            same = error is None and code == 0 and \
                Path(table).read_bytes() == Path(op.meta["table"]).read_bytes()
            if not same:
                ok = False
                self.failures.append(f"{op.key}: table differs between "
                                     f"--threads 2 and --threads 1 ({error or code})")
        return ok

    def stall_probe(self):
        """How many s=2 synthesis draws stall (MAXITER or the probe limit)."""
        root = self.work / "probe"
        root.mkdir()
        ops = self.workloads.stall_probe_ops(self.args.seed, str(root),
                                             small=self.args.smoke)
        stalls = []
        for op in ops:
            _wall, code, error = self.run_op(op, limit=PROBE_LIMIT_S)
            if error is not None or code == 2:
                stalls.append(op.key)
        print(f"s=2 stall probe: {len(stalls)} of {len(ops)} draws hit MAXITER "
              f"or the {PROBE_LIMIT_S:g} s limit {stalls}")
        return len(stalls)


def _tail(walls):
    """(time, percentile, samples beyond) at the highest percentile with at
    least 10 samples beyond it; the slowest op when there are too few."""
    xs = sorted(walls)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # the build info layout varies between numpy versions
        blas = "unknown"
    return (f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
            f"numpy {np.__version__}, BLAS {blas}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sparsecert" / "cli.py").is_file():
        print(f"error: sparsecert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work):
    bench = Bench(args, work)
    t_import = time.perf_counter() - T_START
    setups = [bench.setup_once(i) for i in range(SETUP_REPEATS)]
    setup_raw = t_import + statistics.median(t for t, _, _ in setups)
    setup_s = setup_raw * hostspeed.REFERENCE_S / statistics.median(k for _, k, _ in setups)
    rounds = setups[-1][2]
    print(f"set-up: imports {t_import:.4g} s, set-ups " +
          ", ".join(f"{t:.4g} s" for t, _, _ in setups) + " (unscaled)")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(rounds[0])} ops per round, {len(rounds)} rounds generated; "
          f"reference checks {'on' if bench.reference else 'off'}")
    print("environment:", _environment())

    if args.trace == 0:
        done = bench.timed(rounds, args.seconds)
        layer = None
    else:
        import spans
        plain = bench.timed(rounds, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            done = bench.timed(rounds, 0, tracer=tracer,
                               sequence=[op for op, *_ in plain])
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer.spans)
        layer["trace.overhead_ratio"] = (
            sum(d[4] for d in done) / sum(d[4] for d in plain) - 1.0,
            "ratio")
        layer["synth.s2_stalls"] = (
            bench.stall_probe() if args.workload == "synth" else 0, "count")
        dump = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump)
        print(f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
        done = plain + done

    deterministic = True
    if args.workload == "experiment":
        # one config of each case; copies differ only in their draws
        first = {op.case.split(".")[0]: op for op in reversed(rounds[0])}
        deterministic = bench.determinism(list(first.values()))

    attempted = len(done)
    failed = sum(1 for d in done if not d[3])
    walls = [d[4] for d in done if d[3]] or [d[4] for d in done]
    raw = [d[1] for d in done if d[3]] or [d[1] for d in done]
    codes = {}
    for _, _, code, _, _ in done:
        codes[code] = codes.get(code, 0) + 1
    tail, pct, beyond = _tail(walls)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"{attempted} ops, {failed} failed, exit codes {codes}")
    by_case = {}
    for op, _, _, _, wall in done:
        by_case.setdefault(op.case, []).append(wall)
    print("median scaled op time by case:", ", ".join(
        f"{case} {statistics.median(ws):.4g} s" for case, ws in by_case.items()))
    for line in bench.failures[:20]:
        print("FAILED", line)

    correct = failed == 0 and deterministic
    if layer is None:
        metrics = {
            "ops_per_s": _metric((attempted - failed) / sum(d[4] for d in done),
                                 "ops/s"),
            "op_p50_s": _metric(statistics.median(walls), "s"),
            "op_tail_s": _metric(tail, "s"),
            "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": _metric(rss / 1024.0, "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
        print(f"op_tail_s is the p{pct:.1f} of {len(walls)} op times "
              f"({beyond} beyond it)")
        kernel = statistics.median(bench.kernel_s)
        print(f"host: calibration kernel {1e3 * kernel:.4g} ms (reference "
              f"{1e3 * hostspeed.REFERENCE_S:g} ms); unscaled: ops_per_s "
              f"{(attempted - failed) / sum(d[1] for d in done):.6g}, op_p50_s "
              f"{statistics.median(raw):.6g}, op_tail_s {_tail(raw)[0]:.6g}, "
              f"setup_s {setup_raw:.6g}")
    else:
        metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
        ratio = layer["trace.self_sum_ratio"][0]
        if not 0.9 <= ratio <= 1.1:
            correct = False
            print(f"FAILED self times add up to {ratio:.3f} of the op wall time")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
