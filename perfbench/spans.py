"""Outside-in layer tracing: wrappers installed at run time around the public
functions of each layer, at the names where their callers look them up.

Nothing in the package changes.  ``Tracer.install`` swaps module attributes
for timing wrappers and ``Tracer.uninstall`` puts the originals back, so the
untraced runs execute the unmodified code.

Spans carry a name, start, end and parent; the spans of one CLI op share an
op id.  Each thread keeps its own span stack, so the trial threads of
``experiment`` do not interleave; a span opened on a thread with an empty
stack hangs off the op's root span.  Spans stay in memory until ``dump``.

The proximal and SVD functions of ``norms`` run tens of thousands of times
per ADMM solve, so they are not recorded as spans: each call adds its time
and a count to the enclosing span (``leaf_s`` and ``attrs``).  Calls nested
inside another call of the same layer pass straight through.
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
import threading
from time import perf_counter

_DROPPED = re.compile(r"dropped (\d+) redundant row")
_BYTES_PER_CELL = 32  # one pivot: np.outer writes, T -= reads T and outer, writes T

# (module, attribute, layer); "norms.prox"/"norms.svd" are folded leaves
TARGETS = (
    ("sparsecert.recovery", "solve_lp", "simplex"),
    ("sparsecert.certify.synthesis", "solve_lp", "simplex"),
    ("sparsecert.certify.bruteforce", "solve_lp", "simplex"),
    ("sparsecert.engine.simplex", "solve_lp", "simplex"),  # the Bland rerun
    ("sparsecert.recovery", "solve_split", "splitting"),
    ("sparsecert.cli", "recover_regular", "recovery"),
    ("sparsecert.cli", "recover_penalized", "recovery"),
    ("sparsecert.cli", "synth_certificate_group", "synthesis"),
    ("sparsecert.cli", "gamma_s_bruteforce", "bruteforce"),
    ("sparsecert.cli", "certify_lowrank", "lowrank"),
    ("sparsecert.norms", "prox_structure_norm", "norms.prox"),
    ("sparsecert.norms", "prox_vector_norm", "norms.prox"),
    ("sparsecert.norms", "project_ball", "norms.prox"),
    ("sparsecert.norms", "svd_descending", "norms.svd"),
    ("sparsecert.norms", "singular_values", "norms.svd"),
    ("sparsecert.structures", "svd_descending", "norms.svd"),
    ("sparsecert.structures", "singular_values", "norms.svd"),
    ("sparsecert.serialize", "load_json", "serialize"),
    ("sparsecert.serialize", "save_json", "serialize"),
    ("sparsecert.serialize", "load_matrix", "serialize"),
    ("sparsecert.serialize", "load_problem", "serialize"),
    ("sparsecert.serialize", "load_certificate", "serialize"),
    ("sparsecert.serialize", "save_certificate", "serialize"),
    ("sparsecert.serialize", "certificate_to_dict", "serialize"),
)


class Span:
    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "thread",
                 "leaf_s", "attrs")

    def __init__(self, sid, parent, op, name, t0, thread):
        self.sid, self.parent, self.op, self.name = sid, parent, op, name
        self.t0, self.t1, self.thread = t0, None, thread
        self.leaf_s = 0.0
        self.attrs = {}

    def bump(self, key, value):
        self.attrs[key] = self.attrs.get(key, 0) + value


def _observe(layer, args, result):
    """Counts read from the objects a layer returns."""
    if layer == "simplex":
        lp = args[0]
        _x, rep = result
        out = {"rows": lp.G.shape[0], "vars": lp.c.size,
               "pivots": rep.iterations, "bland": bool(rep.used_bland),
               "status": rep.status.value, "dropped": 0, "cells": 0}
        for w in rep.warnings:
            hit = _DROPPED.search(w)
            if hit:
                out["dropped"] += int(hit.group(1))
        if rep.standard is not None:
            r, c = rep.standard["A"].shape
            out["cells"] = (r + 1) * (c + 1)
        return out
    if layer == "splitting":
        _u, rep = result
        return {"iterations": rep.iterations, "status": rep.status.value,
                "regularized": any("regularized" in w for w in rep.warnings)}
    if layer == "bruteforce":
        return {"lps": int(result.details.get("lp_count", 0))}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._root = None
        self._saved = []

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id, op):
        self._root = self._new(None, op_id, "cli")
        self._root.attrs.update(key=op.key, command=op.command)
        self._stack().append(self._root)

    def end_op(self, exit_code):
        root = self._root
        root.t1 = perf_counter()
        root.attrs["exit"] = exit_code
        self._stack().clear()
        self._root = None
        return root

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            wrap = self._leaf if layer.startswith("norms.") else self._span
            setattr(mod, attr, wrap(orig, layer))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _stack(self):
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _new(self, parent, op, name):
        span = Span(next(self._ids), parent, op, name, perf_counter(),
                    threading.get_ident())
        self.spans.append(span)
        return span

    def _span(self, fn, layer):
        tracer = self
        collapse = layer == "serialize"

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if collapse and stack and stack[-1].name == layer:
                return fn(*args, **kwargs)
            root = tracer._root
            parent = stack[-1] if stack else root
            span = tracer._new(parent.sid, root.op, layer)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.t1 = perf_counter()
                stack.pop()
            span.attrs.update(_observe(layer, args, result))
            return result

        return wrapper

    def _leaf(self, fn, layer):
        tracer = self
        kind = layer.split(".", 1)[1]

        def wrapper(*args, **kwargs):
            tls = tracer._tls
            depth = getattr(tls, "leaf_depth", 0)
            if depth and kind == "prox":
                return fn(*args, **kwargs)
            stack = tracer._stack()
            own = None
            if not stack:
                # a trial thread outside any span: a span of its own, so
                # its time is not folded into another thread's span
                root = tracer._root
                own = tracer._new(root.sid, root.op, "norms")
                stack.append(own)
            owner = stack[-1]
            tls.leaf_depth = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tls.leaf_depth = depth
                if not depth:
                    owner.leaf_s += dt
                owner.bump(kind + ".calls", 1)
                owner.bump(kind + ".s", dt)
                if own is not None:
                    own.t0, own.t1 = t0, t0 + dt
                    stack.pop()

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "op": s.op,
                                     "name": s.name, "start": s.t0, "end": s.t1,
                                     "thread": s.thread, "leaf_s": s.leaf_s,
                                     "attrs": s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _union(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics {name: (value, unit)} from a finished span list."""
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    by_id = {s.sid: s for s in spans}
    dur = {s.sid: s.t1 - s.t0 for s in spans}

    def self_time(s):
        ch = kids.get(s.sid, ())
        covered = _union([(c.t0, c.t1) for c in ch], s.t0, s.t1)
        return max(0.0, dur[s.sid] - covered - s.leaf_s)

    def named(name):
        return [s for s in spans if s.name == name]

    def subtree(s):
        out, todo = [], [s]
        while todo:
            cur = todo.pop()
            out.append(cur)
            todo.extend(kids.get(cur.sid, ()))
        return out

    def leaf_total(key, scope=None):
        pool = spans if scope is None else scope
        return sum(s.attrs.get(key, 0) for s in pool)

    roots = named("cli")
    wall = sum(dur[r.sid] for r in roots)
    m = {}

    # engine.simplex: a simplex span under a simplex span is the Bland rerun,
    # and the outer span returns the rerun's report, so counts come from the
    # innermost span of each chain
    sx = named("simplex")
    sx_top = [s for s in sx if by_id[s.parent].name != "simplex"]
    sx_inner = [s for s in sx if not any(c.name == "simplex"
                                         for c in kids.get(s.sid, ()))]
    busy = sum(dur[s.sid] for s in sx_top)
    pivots = sum(s.attrs.get("pivots", 0) for s in sx_inner)
    cell_pivots = sum(s.attrs.get("pivots", 0) * s.attrs.get("cells", 0)
                      for s in sx_inner)
    m["simplex.calls"] = len(sx_top), "count"
    m["simplex.busy_s"] = busy, "s"
    m["simplex.op_share"] = _ratio(busy, wall), "ratio"
    m["simplex.pivots"] = pivots, "count"
    m["simplex.us_per_pivot"] = _ratio(busy, pivots, 1e6), "us"
    m["simplex.us_per_call"] = _ratio(busy, len(sx_top), 1e6), "us"
    m["simplex.tableau_cells"] = _ratio(
        sum(s.attrs.get("cells", 0) for s in sx_inner), len(sx_inner)), "cells"
    m["simplex.bytes_per_pivot_computed"] = _ratio(cell_pivots, pivots,
                                                   _BYTES_PER_CELL), "B"
    m["simplex.bland_share"] = _ratio(
        sum(1 for s in sx_inner if s.attrs.get("bland")), len(sx_inner)), "ratio"
    m["simplex.bland_reruns"] = len(sx) - len(sx_top), "count"
    m["simplex.dropped_rows"] = sum(s.attrs.get("dropped", 0) for s in sx_inner), "count"
    m["simplex.maxiter"] = sum(1 for s in sx_inner
                               if s.attrs.get("status") == "maxiter"), "count"

    # engine.splitting
    sp = named("splitting")
    sp_busy = sum(dur[s.sid] for s in sp)
    sp_iters = sum(s.attrs.get("iterations", 0) for s in sp)
    sp_ops = {s.op for s in sp}
    m["splitting.calls"] = len(sp), "count"
    m["splitting.busy_s"] = sp_busy, "s"
    m["splitting.op_share"] = _ratio(
        sp_busy, sum(dur[r.sid] for r in roots if r.op in sp_ops)), "ratio"
    m["splitting.iterations"] = sp_iters, "count"
    m["splitting.us_per_iter"] = _ratio(sp_busy, sp_iters, 1e6), "us"
    m["splitting.self_s"] = sum(self_time(s) for s in sp), "s"
    m["splitting.maxiter"] = sum(1 for s in sp if s.attrs.get("status") == "maxiter"), "count"
    m["splitting.regularized"] = sum(1 for s in sp if s.attrs.get("regularized")), "count"

    # norms (folded leaves)
    m["norms.prox.calls"] = leaf_total("prox.calls"), "count"
    m["norms.prox.busy_s"] = leaf_total("prox.s"), "s"
    m["norms.svd.calls"] = leaf_total("svd.calls"), "count"
    m["norms.svd.busy_s"] = leaf_total("svd.s"), "s"

    # recovery: self = LP build, _finish, the l2 feasibility lstsq
    rc = named("recovery")
    rc_busy = sum(dur[s.sid] for s in rc)
    rc_lp = sum(dur[c.sid] for s in rc for c in kids.get(s.sid, ())
                if c.name == "simplex")
    m["recovery.calls"] = len(rc), "count"
    m["recovery.busy_s"] = rc_busy, "s"
    m["recovery.self_s"] = sum(self_time(s) for s in rc), "s"
    m["recovery.lp_share"] = _ratio(rc_lp, rc_busy), "ratio"

    # certify.synthesis
    sy = named("synthesis")
    sy_lps = [c for s in sy for c in kids.get(s.sid, ()) if c.name == "simplex"]
    m["synthesis.calls"] = len(sy), "count"
    m["synthesis.busy_s"] = sum(dur[s.sid] for s in sy), "s"
    m["synthesis.self_s"] = sum(self_time(s) for s in sy), "s"
    m["synthesis.lp_rows"] = _ratio(sum(c.attrs.get("rows", 0) for c in sy_lps),
                                    len(sy_lps)), "rows"
    m["synthesis.lp_vars"] = _ratio(sum(c.attrs.get("vars", 0) for c in sy_lps),
                                    len(sy_lps)), "vars"
    m["synthesis.lps_per_call"] = _ratio(len(sy_lps), len(sy)), "ratio"

    # certify.bruteforce
    bf = named("bruteforce")
    bf_busy = sum(dur[s.sid] for s in bf)
    bf_lps = sum(s.attrs.get("lps", 0) for s in bf)
    m["bruteforce.calls"] = len(bf), "count"
    m["bruteforce.busy_s"] = bf_busy, "s"
    m["bruteforce.self_s"] = sum(self_time(s) for s in bf), "s"
    m["bruteforce.lps"] = bf_lps, "count"
    m["bruteforce.ms_per_lp"] = _ratio(bf_busy, bf_lps, 1e3), "ms"

    # certify.lowrank
    lr = named("lowrank")
    m["lowrank.calls"] = len(lr), "count"
    m["lowrank.busy_s"] = sum(dur[s.sid] for s in lr), "s"
    m["lowrank.svd_calls"] = sum(leaf_total("svd.calls", subtree(s)) for s in lr), "count"

    # serialize
    se = named("serialize")
    m["serialize.calls"] = len(se), "count"
    m["serialize.busy_s"] = sum(dur[s.sid] for s in se), "s"

    # cli: the op minus its direct child spans; concurrency of the trial map
    exp_roots = [r for r in roots if r.attrs.get("command") == "experiment"]
    exp_ops = {r.op for r in exp_roots}
    m["cli.self_s"] = sum(self_time(r) for r in roots), "s"
    m["cli.trial_concurrency"] = _ratio(
        sum(dur[s.sid] for s in rc if s.op in exp_ops),
        sum(dur[r.sid] for r in exp_roots)), "ratio"
    m["cli.exit_codes"] = sum(1 for r in roots if r.attrs.get("exit") != 0), "count"

    # consistency: self times of every span add up to the op wall time plus
    # the time two trial threads spent in layer calls at once
    total_self = sum(self_time(s) + s.leaf_s for s in spans)
    overlap = sum(
        sum(dur[c.sid] for c in kids.get(r.sid, ()))
        - _union([(c.t0, c.t1) for c in kids.get(r.sid, ())], r.t0, r.t1)
        for r in roots)
    m["trace.self_sum_ratio"] = _ratio(total_self, wall + overlap), "ratio"
    return m
