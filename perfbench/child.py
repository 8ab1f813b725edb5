"""Child processes of the benchmark.  Each mode runs in a fresh
interpreter so that one measurement cannot inherit another's heap or
garbage-collector state.

    python child.py setup     SPEC WORK         generate inputs (and, for a
                                                reuse workload, save indices)
    python child.py reuse-job WORK OUT          the sparse-reuse job
    python child.py index     SPEC WORK         size of this workload's saved
                                                index, off the job path
    python child.py oracle    SPEC WORK         reference join == engine join
    python child.py traced    SPEC WORK OUT ID  one job with a span around
                                                every library call

SPEC is a JSON object with the keys ``workload``, ``seed`` and
``scale``.  Every mode except ``reuse-job`` prints one JSON object on
standard output.  The program is reached only through its public entry
points; ``reuse-job`` is written the way a user of the library would
write it.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from contextlib import contextmanager

from workloads import EDGE_FACTOR, KEYS_A, KEYS_B, ORACLE_SCALE, WORKLOADS, input_paths


def _index_paths(work):
    d = os.path.join(work, "index")
    return os.path.join(d, "a.gjix"), os.path.join(d, "b.gjix")


def _params(w, seed, scale):
    from graphjoin.graphio import GeneratorParams

    common = dict(
        scale=scale,
        edge_factor=EDGE_FACTOR,
        dob_values=w.dob_values,
        company_values=w.company_values,
    )
    return (
        GeneratorParams(seed=seed, attr_suffix="1", **common),
        GeneratorParams(seed=seed + 1, attr_suffix="2", **common),
    )


def _input_bytes(work):
    return sum(os.path.getsize(p) for side in input_paths(work) for p in side)


def _dump(obj):
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


def setup(spec, work):
    # importing the command-line module compiles every module of the
    # package once, outside any timed job
    import graphjoin.cli  # noqa: F401
    import numpy
    from graphjoin.engine import prepare
    from graphjoin.graphio import generate, load_graph_pair
    from graphjoin.model import PropertyGraph

    w = WORKLOADS[spec["workload"]]
    pa, pb = _params(w, spec["seed"], spec["scale"])
    (va, ea), (vb, eb) = input_paths(work)
    out = {"numpy": numpy.__version__}

    t0 = time.perf_counter()
    generate(pa, os.path.dirname(va), "a")
    generate(pb, os.path.dirname(vb), "b")
    t1 = time.perf_counter()
    out["generate_s"] = t1 - t0
    if w.reuse:
        db = PropertyGraph()
        ga = load_graph_pair(db, va, ea)
        gb = load_graph_pair(db, vb, eb)
        t2 = time.perf_counter()
        ia = prepare(ga, KEYS_A)
        ib = prepare(gb, KEYS_B)
        t3 = time.perf_counter()
        xa, xb = _index_paths(work)
        os.makedirs(os.path.dirname(xa), exist_ok=True)
        ia.save(xa)
        ib.save(xb)
        t4 = time.perf_counter()
        out.update(
            ingest_s=t2 - t1,
            prepare_s=t3 - t2,
            save_s=t4 - t3,
            index_bytes=os.path.getsize(xa) + os.path.getsize(xb),
        )
        t1 = t4
    out["setup_s"] = t1 - t0
    out["input_bytes"] = _input_bytes(work)
    _dump(out)


def reuse_job(work, out_dir):
    from graphjoin.engine import EngineIndex, run_join
    from graphjoin.graphio import write_join_result
    from graphjoin.logical import CONJUNCTIVE

    xa, xb = _index_paths(work)
    a = EngineIndex.load_file(xa)
    b = EngineIndex.load_file(xb)
    run = run_join(a, b, CONJUNCTIVE)
    write_join_result(run, out_dir)
    # same report keys as `graphjoin join`, so one gate reads both
    report = {
        "counters": run.counters.as_dict(),
        "result": {"vertices": len(run.vertices), "edges": len(run.edges)},
    }
    with open(os.path.join(out_dir, "join_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def index(spec, work):
    from graphjoin.engine import EngineIndex, prepare
    from graphjoin.graphio import load_graph_pair
    from graphjoin.model import PropertyGraph

    (va, ea), (vb, eb) = input_paths(work)
    db = PropertyGraph()
    ia = prepare(load_graph_pair(db, va, ea), KEYS_A)
    ib = prepare(load_graph_pair(db, vb, eb), KEYS_B)
    xa, xb = _index_paths(work)
    os.makedirs(os.path.dirname(xa), exist_ok=True)
    t0 = time.perf_counter()
    ia.save(xa)
    ib.save(xb)
    t1 = time.perf_counter()
    del ia, ib, db
    EngineIndex.load_file(xa)
    EngineIndex.load_file(xb)
    t2 = time.perf_counter()
    _dump({
        "save_s": t1 - t0,
        "load_file_s": t2 - t1,
        "index_bytes": os.path.getsize(xa) + os.path.getsize(xb),
        "input_bytes": _input_bytes(work),
    })


def oracle(spec, work):
    """Join the workload's generator parameters at ORACLE_SCALE with the
    reference join and the engine; their raw signatures must agree."""
    from graphjoin.engine import prepare, run_join
    from graphjoin.graphio import generate, load_graph_pair
    from graphjoin.logical import JoinSpec, graph_join
    from graphjoin.model import PropertyGraph
    from graphjoin.relational import ThetaPredicate
    from graphjoin.verify import raw_signature

    w = WORKLOADS[spec["workload"]]
    scale = min(spec["scale"], ORACLE_SCALE)
    t0 = time.perf_counter()
    d = os.path.join(work, "oracle")
    pa, pb = _params(w, spec["seed"], scale)
    db = PropertyGraph()
    ga = load_graph_pair(db, *generate(pa, d, "a"))
    gb = load_graph_pair(db, *generate(pb, d, "b"))
    theta = ThetaPredicate.equalities(tuple(zip(KEYS_A, KEYS_B)))
    ref = graph_join(ga, gb, JoinSpec(theta, w.semantics))
    run = run_join(prepare(ga, KEYS_A), prepare(gb, KEYS_B), w.semantics)
    ok = raw_signature(ref) == raw_signature(run)
    _dump({
        "ok": ok,
        "scale": scale,
        "vertices": len(ref.vertices),
        "edges": len(ref.edges),
        "oracle_check_s": time.perf_counter() - t0,
    })


class Tracer:
    """Spans held in memory: name, start, end, parent, job id.  Garbage
    collector pauses are charged to the innermost open span."""

    def __init__(self, job):
        self.job = job
        self.spans = []
        self._stack = []
        self._gc_start = None
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None and self._stack:
            span = self._stack[-1]
            span["gc_pause_s"] += time.perf_counter() - self._gc_start
            span["gc_gen2"] += info["generation"] == 2

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "job": self.job,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "gc_pause_s": 0.0,
            "gc_gen2": 0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def traced(spec, work, out_dir, job):
    w = WORKLOADS[spec["workload"]]
    tr = Tracer(job)
    with tr.span("job"):
        with tr.span("cli.startup"):
            import graphjoin.cli  # noqa: F401
        from graphjoin.engine import EngineIndex, explain, prepare, run_join
        from graphjoin.graphio import load_graph_pair, write_join_result
        from graphjoin.model import PropertyGraph

        # as in `graphjoin join`, a one-shot result lands in the database
        # that holds the operands
        db = None
        if w.reuse:
            xa, xb = _index_paths(work)
            with tr.span("engine.load_file"):
                a = EngineIndex.load_file(xa)
            with tr.span("engine.load_file"):
                b = EngineIndex.load_file(xb)
        else:
            (va, ea), (vb, eb) = input_paths(work)
            db = PropertyGraph()
            with tr.span("graphio.ingest"):
                ga = load_graph_pair(db, va, ea)
            with tr.span("graphio.ingest"):
                gb = load_graph_pair(db, vb, eb)
            with tr.span("engine.prepare"):
                a = prepare(ga, KEYS_A)
            with tr.span("engine.prepare"):
                b = prepare(gb, KEYS_B)
        live_operands = len(gc.get_objects())
        with tr.span("engine.run_join"):
            run = run_join(a, b, w.semantics, target_db=db)
        live_joined = len(gc.get_objects())
        with tr.span("engine.explain"):
            cost = explain(run)
        with tr.span("graphio.write"):
            write_join_result(run, out_dir)
    _dump({
        "spans": tr.spans,
        "counters": run.counters.as_dict(),
        "vertices": len(run.vertices),
        "edges": len(run.edges),
        "bounds": {name: [measured, bound] for name, measured, bound in cost.rows()},
        "within_bounds": cost.within_bounds(),
        "live_operands": live_operands,
        "live_joined": live_joined,
    })


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "reuse-job":
        reuse_job(*rest)
        return
    spec = json.loads(rest[0])
    {"setup": setup, "index": index, "oracle": oracle, "traced": traced}[mode](spec, *rest[1:])


if __name__ == "__main__":
    main(sys.argv[1:])
