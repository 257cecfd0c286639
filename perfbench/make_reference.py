"""Record the unique optima of every default-seed op in reference.json.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference; the benchmark compares
later commits against the file (see checks.py for the tolerances).
"""

import json
import shutil
import signal
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._alarm)
    import checks
    import workloads
    work = run.ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    doc = {"seed": run.DEFAULT_SEED, "workloads": {}}
    try:
        for wl in workloads.WORKLOADS:
            bench = run.Bench(run.parse_args(["--workload", wl]), work)
            bench.reference = None
            root = work / wl
            root.mkdir(parents=True)
            refs = {}
            for ops in workloads.generate(wl, run.DEFAULT_SEED, str(root)):
                for op in ops:
                    _wall, code, error = bench.run_op(op)
                    problems = [error] if error else checks.check(op, code)
                    if problems:
                        sys.exit(f"{wl} {op.key}: {problems}")
                    refs[op.key] = checks.outcome(op)
            doc["workloads"][wl] = refs
            print(wl, len(refs), "ops recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
