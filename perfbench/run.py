"""End-to-end benchmark of graphjoin: input files in, result files out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-record

Run it from the root of a checkout; it measures the code under the
checkout's ``src/``, never an installed copy.

A run generates the workload's two input graphs from ``--seed`` (at
least three times; ``setup_s`` is the median), then runs jobs one after
another for ``--seconds`` seconds.  A job is one fresh child process doing what a
user does: ``graphjoin join`` from files to files, or, on
``sparse-reuse``, loading two saved indices, joining and writing.  Jobs
run untraced; ``job_s`` is the median wall time from spawn to exit.
``--trace 1`` adds three traced jobs that make the same library calls
with a span around each, and reports the per-layer metrics instead of
the end-to-end ones.

Every job's result files are hashed.  A job fails when it exits
non-zero or its output differs from the other jobs of the run, or, at
a recorded seed, from the digest and sizes in ``record.json``.  Each
run also checks the engine against the reference join at reduced scale,
and on ``sparse-reuse`` that the output equals a one-shot CLI join's
byte for byte.  Engine counters that differ from ``record.json`` are
printed as named diffs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the machine stamp; the full report, with every sample and span,
is written under ``.perfbench/results/``.

``--selftest`` runs every workload at tiny scale, traced and untraced,
and shows that the output gate rejects a result file with one byte
flipped.  ``--write-record`` rewrites ``record.json``; only a change
that means to change outputs or counters should run it.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import DEFAULT_SEED, ON, RECORDED_SEEDS, SMOKE_SCALE, WORKLOADS, input_paths, input_rows

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RECORD = os.path.join(HERE, "record.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

# set-up runs at least SETUP_MIN times, and up to SETUP_MAX times while
# the repeats have taken less than SETUP_BUDGET_S, for a steadier median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
TRACED_JOBS = 3
CHILD_TIMEOUT_S = 60
# optional steps (traced jobs) are skipped past this point, so that a
# much slower program still ends its run well within three minutes
RUN_BUDGET_S = 140

RESULT_FILES = ("vertices.csv", "edges.tsv")


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """The caller's environment without the thread-count override, with
    the checkout's sources first on the path, and with bytecode caching
    on, so that jobs do not pay for compiling the package as users of an
    installed copy do not."""
    env = dict(os.environ)
    env.pop("GRAPHJOIN_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def run_child(args) -> dict:
    """Run a child.py mode that is not timed from outside and return the
    JSON object it prints."""
    proc = subprocess.run(
        [sys.executable, CHILD, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_child(cmd, stdout_path, stderr_path, cpu) -> dict:
    """Spawn one job, wait for it, and return its wall time, exit code
    and peak RSS (from wait4, so it is this child's alone).

    The child starts on CPU ``cpu`` and may then run on every CPU the
    harness may use.  Left alone, the scheduler starts every job on the
    same core for long stretches, and on a shared machine that core's
    speed then sets the median of a whole run; callers alternate the
    start CPU between jobs instead."""
    env = child_env()
    allowed = os.sched_getaffinity(0)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        os.sched_setaffinity(0, {cpu})
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        finally:
            os.sched_setaffinity(0, allowed)
        try:
            os.sched_setaffinity(proc.pid, allowed)
        except ProcessLookupError:
            pass
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}


def job_command(w, work, out_dir) -> list[str]:
    if w.reuse:
        return [sys.executable, CHILD, "reuse-job", work, out_dir]
    (va, ea), (vb, eb) = input_paths(work)
    return [
        sys.executable, "-m", "graphjoin.cli", "join",
        "--left-vertices", va,
        "--left-edges", ea,
        "--right-vertices", vb,
        "--right-edges", eb,
        "--on", ON,
        "--semantics", w.semantics,
        "--out", out_dir,
    ]


# ---------------------------------------------------------------------------
# output gate


def output_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in RESULT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def check_output(job: dict, reference: str, expected: dict | None) -> str | None:
    """Why a finished job counts as failed, or None.  ``reference`` is the
    digest every job of the run must produce; ``expected`` is the record
    entry for the run's seed, if there is one."""
    if job["exit"] != 0:
        return f"exit code {job['exit']}"
    if job.get("digest") is None:
        return "result files missing"
    if job["digest"] != reference:
        return "output digest differs"
    if expected and (job.get("vertices"), job.get("edges")) != (expected["vertices"], expected["edges"]):
        return "result sizes differ from the record"
    return None


def collect_output(job: dict, out_dir) -> None:
    """Add the digest of a finished job's result files and, when it wrote
    a join report, its result sizes and counters."""
    try:
        job["digest"] = output_digest(out_dir)
    except OSError:
        job["digest"] = None
        return
    report_path = os.path.join(out_dir, "join_report.json")
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        job["counters"] = report["counters"]
        job["vertices"] = report["result"]["vertices"]
        job["edges"] = report["result"]["edges"]


def counter_diffs(measured: dict, reference: dict) -> list[str]:
    return [
        f"{name}: expected {reference.get(name)}, measured {measured.get(name)}"
        for name in sorted(set(measured) | set(reference))
        if measured.get(name) != reference.get(name)
    ]


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale=None, record=None):
    """Set up, measure and check one workload; return the result line and
    the full report.  ``record`` is the entry of record.json for this
    workload and seed, or None."""
    w = WORKLOADS[name]
    scale = w.scale if scale is None else scale
    spec = json.dumps({"workload": name, "seed": seed, "scale": scale})
    run_t0 = time.perf_counter()
    stamp = machine_stamp()
    work = os.path.join(WORK_ROOT, f"work-{name}-{seed}-{os.getpid()}")
    out_dir = os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = []
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and time.perf_counter() - run_t0 < SETUP_BUDGET_S
        ):
            setups.append(run_child(["setup", spec, work]))
        stamp["numpy"] = setups[0]["numpy"]

        start_cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))

        def job(cmd, stdout_path=os.devnull):
            shutil.rmtree(out_dir, ignore_errors=True)
            j = timed_child(cmd, stdout_path, os.path.join(work, "stderr.txt"), next(start_cpus))
            if j["exit"] == 0:
                collect_output(j, out_dir)
            else:
                with open(os.path.join(work, "stderr.txt"), errors="replace") as fh:
                    j["stderr"] = fh.read()[-2000:]
            return j

        cmd = job_command(w, work, out_dir)
        jobs = []
        window_t0 = time.perf_counter()
        while not jobs or time.perf_counter() - window_t0 < seconds:
            jobs.append(job(cmd))

        checks = {}
        if w.reuse:
            index = {k: statistics.median(s[k] for s in setups) for k in ("save_s", "index_bytes")}
            # the same inputs through the one-shot CLI must give the same bytes
            oneshot = WORKLOADS["sparse-oneshot"]
            compare = job(job_command(oneshot, work, out_dir))
            compare["role"] = "oneshot-compare"
            jobs.append(compare)
        else:
            index = run_child(["index", spec, work])
        index["input_bytes"] = setups[0]["input_bytes"]
        oracle = run_child(["oracle", spec, work])
        checks["oracle"] = oracle["ok"]

        traced = []
        if trace:
            for i in range(TRACED_JOBS):
                if time.perf_counter() - run_t0 > RUN_BUDGET_S:
                    break
                stdout_path = os.path.join(work, f"trace{i}.json")
                t = job([sys.executable, CHILD, "traced", spec, work, out_dir, str(i)], stdout_path)
                if t["exit"] == 0:
                    with open(stdout_path, encoding="utf-8") as fh:
                        t["trace"] = json.load(fh)
                    t.update({k: t["trace"][k] for k in ("counters", "vertices", "edges")})
                t["role"] = "traced"
                traced.append(t)
            jobs.extend(traced)
            checks["traced_within_bounds"] = all(
                t.get("trace", {}).get("within_bounds") for t in traced
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # gate: every job must produce the same bytes; at a recorded seed,
    # the recorded ones
    digests = [j["digest"] for j in jobs if j.get("digest")]
    if record:
        reference = record["digest"]
    elif digests:
        reference = collections.Counter(digests).most_common(1)[0][0]
    else:
        reference = None
    for j in jobs:
        j["error"] = check_output(j, reference, record)
    failed = sum(1 for j in jobs if j["error"])

    ref_counters = record["counters"] if record else next(
        (j["counters"] for j in jobs if "counters" in j), {}
    )
    diffs = sorted({d for j in jobs if "counters" in j for d in counter_diffs(j["counters"], ref_counters)})

    window = [j for j in jobs if "role" not in j]
    ok_walls = [j["wall_s"] for j in window if not j["error"]] or [j["wall_s"] for j in window]
    job_s = statistics.median(ok_walls)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    stamp["speed_probe_s_end"] = speed_probe()

    if trace:
        metrics = layer_metrics(w, scale, setups, index, oracle, traced, job_s, failed / len(jobs), len(window))
    else:
        metrics = {
            "job_s": (job_s, "s"),
            "input_rows_per_s": (input_rows(scale) / job_s, "rows/s"),
            "peak_rss_mb": (statistics.median(j["rss_mb"] for j in window), "MiB"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "index_size_ratio": (index["index_bytes"] / index["input_bytes"], "bytes/byte"),
        }
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "stamp": stamp,
        "job_s": job_s_summary(ok_walls),
        "checks": checks,
        "counter_diffs": diffs,
        "setups": setups,
        "index": index,
        "oracle": oracle,
        "jobs": jobs,
        "result": result,
        "run_s": time.perf_counter() - run_t0,
    }
    return result, report


def job_s_summary(walls) -> dict:
    """Median and the highest percentile with at least ten samples
    beyond it, with the sample count."""
    n = len(walls)
    out = {"count": n, "median": statistics.median(walls), "tail": None}
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        out["tail"] = {"percentile": pct, "value": sorted(walls)[-11]}
    return out


def self_times(spans) -> dict:
    """Per span name: summed duration minus the time its child spans cover."""
    child_cover = collections.Counter()
    for s in spans:
        if s["parent"] is not None:
            child_cover[s["parent"]] += s["end"] - s["start"]
    out = collections.Counter()
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_cover[s["id"]]
    return out


def layer_metrics(w, scale, setups, index, oracle, traced, job_s, failed_ratio, job_count):
    """Per-layer metrics: medians over the traced jobs, with the set-up
    children standing in for the layers a workload runs in set-up."""
    ok = [t for t in traced if "trace" in t]
    if not ok:
        raise HarnessError("no traced job finished")

    def med(fn):
        return statistics.median(fn(t["trace"], self_times(t["trace"]["spans"])) for t in ok)

    def setup_med(key):
        return statistics.median(s[key] for s in setups)

    def ratio(num, den):
        return num / den if den else 0.0

    rows = input_rows(scale)
    if w.reuse:
        ingest_s, prepare_s = setup_med("ingest_s"), setup_med("prepare_s")
        load_file_s = med(lambda t, st: st["engine.load_file"])
    else:
        ingest_s = med(lambda t, st: st["graphio.ingest"])
        prepare_s = med(lambda t, st: st["engine.prepare"])
        load_file_s = index["load_file_s"]
    join_s = med(lambda t, st: st["engine.run_join"])
    write_s = med(lambda t, st: st["graphio.write"])
    first = ok[0]["trace"]
    counters = first["counters"]
    v_out, e_out = first["vertices"], first["edges"]
    bounds = first["bounds"]
    m = {
        "graphio.generate_s": (setup_med("generate_s"), "s"),
        "graphio.ingest_s": (ingest_s, "s"),
        "graphio.ingest_rows_per_s": (rows / ingest_s, "rows/s"),
        "engine.prepare_s": (prepare_s, "s"),
        "engine.save_s": (index["save_s"], "s"),
        "engine.index_bytes": (index["index_bytes"], "bytes"),
        "engine.load_file_s": (load_file_s, "s"),
        "engine.join_s": (join_s, "s"),
        "engine.join_us_per_output": (ratio(join_s * 1e6, v_out + e_out), "us"),
    }
    for c in ("directory_steps", "bucket_visits", "vertex_comparisons",
              "edge_comparisons", "disjunction_scans", "fill_edge_emissions"):
        m[f"engine.{c}"] = (counters[c], "count")
    m["engine.edge_hit_ratio"] = (
        ratio(e_out - counters["fill_edge_emissions"], counters["edge_comparisons"]), "ratio")
    m["engine.vertex_hit_ratio"] = (ratio(v_out, counters["vertex_comparisons"]), "ratio")
    for short, row in (("vertex", "vertex_comparisons"), ("edge", "edge_comparisons"),
                       ("scan", "disjunction_scans")):
        m[f"engine.{short}_bound_use"] = (ratio(*bounds[row]), "ratio")
    m.update({
        "engine.result_vertices": (v_out, "count"),
        "engine.result_edges": (e_out, "count"),
        "graphio.write_s": (write_s, "s"),
        "graphio.write_rows_per_s": (ratio(v_out + e_out, write_s), "rows/s"),
        "model.live_objects_operands": (med(lambda t, st: t["live_operands"]), "count"),
        "model.live_objects": (med(lambda t, st: t["live_joined"]), "count"),
        "model.gc_pause_s": (med(lambda t, st: sum(s["gc_pause_s"] for s in t["spans"])), "s"),
        "model.gc_gen2_collections": (med(lambda t, st: sum(s["gc_gen2"] for s in t["spans"])), "count"),
        "cli.startup_s": (med(lambda t, st: st["cli.startup"]), "s"),
        "verify.oracle_check_s": (oracle["oracle_check_s"], "s"),
        "trace.overhead_s": (statistics.median(t["wall_s"] for t in ok) - job_s, "s"),
        "failed_ratio": (failed_ratio, "ratio"),
        "job_count": (job_count, "count"),
    })
    return m


# ---------------------------------------------------------------------------
# machine stamp


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop.  It reads higher while other
    load on the machine slows this process down, which the load average
    of a container does not show."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return time.perf_counter() - t0


def machine_stamp() -> dict:
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
        "speed_probe_s_start": speed_probe(),
    }


# ---------------------------------------------------------------------------
# entry points


def load_record() -> dict:
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def write_report(report) -> None:
    d = os.path.join(WORK_ROOT, "results")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(
        d, f"{report['workload']}.seed{report['seed']}.trace{int(report['trace'])}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


def bench(args) -> int:
    entry = load_record()["workloads"][args.workload].get(str(args.seed))
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), record=entry)
    write_report(report)
    for j in report["jobs"]:
        if j["error"]:
            print(f"job failed ({j.get('role', 'job')}): {j['error']}", file=sys.stderr)
            if j.get("stderr"):
                print(j["stderr"], file=sys.stderr)
    for name, ok in report["checks"].items():
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    for d in report["counter_diffs"]:
        print(f"counter diff {args.workload} seed {args.seed}: {d}")
    print(json.dumps({"job_s": report["job_s"]}))
    print(json.dumps({"stamp": report["stamp"]}))
    print(json.dumps(result))
    return 0


def write_record() -> int:
    """Run every workload once at each recorded seed and store its output
    digest, result sizes and counters in record.json."""
    entries = {name: {} for name in WORKLOADS}
    for name in WORKLOADS:
        for seed in RECORDED_SEEDS:
            result, report = run_workload(name, seed, 0, False)
            if not result["correct"]:
                raise HarnessError(f"{name} seed {seed}: run not correct, nothing recorded")
            job = report["jobs"][0]
            entries[name][str(seed)] = {k: job[k] for k in ("digest", "vertices", "edges", "counters")}
    for seed in RECORDED_SEEDS:
        if entries["sparse-reuse"][str(seed)]["digest"] != entries["sparse-oneshot"][str(seed)]["digest"]:
            raise HarnessError(f"seed {seed}: sparse-reuse output differs from sparse-oneshot output")
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {RECORD}")
    return 0


def selftest() -> int:
    """Smoke-run every workload at tiny scale with tracing and the oracle
    check, compare the metric names with BENCHMARK.json, and show that
    the output gate fails a result file with one byte flipped."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace, names in ((False, "end_to_end"), (True, "per_layer")):
            result, report = run_workload(name, DEFAULT_SEED, 0, trace, scale=SMOKE_SCALE)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: not correct: {report['checks']}")
            want = {m["name"] for m in spec[names]}
            if set(result["metrics"]) != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(result['metrics']) ^ want)}")
    print(f"smoke: {'ok' if not problems else 'FAILED'}")

    # flip one byte of a copied result file and run it through the gate
    work = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
    try:
        w = WORKLOADS["dense-disj"]
        run_child(["setup", json.dumps({"workload": w.name, "seed": 1, "scale": SMOKE_SCALE}), work])
        out = os.path.join(work, "out")
        job = timed_child(job_command(w, work, out), os.devnull, os.devnull, min(os.sched_getaffinity(0)))
        collect_output(job, out)
        good = job["digest"]
        copy = os.path.join(work, "copy")
        shutil.copytree(out, copy)
        with open(os.path.join(copy, "vertices.csv"), "r+b") as fh:
            first = fh.read(1)
            fh.seek(0)
            fh.write(bytes([first[0] ^ 1]))
        flipped = dict(job)
        collect_output(flipped, copy)
        if check_output(job, good, None) is not None:
            problems.append("gate rejects an untouched result")
        if check_output(flipped, good, None) is None:
            problems.append("gate accepts a result with a flipped byte")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"gate: {'ok' if len(problems) == 0 else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="tiny-scale smoke run and gate check")
    p.add_argument("--write-record", action="store_true", help="rewrite record.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphjoin", "cli.py")):
        print(f"error: no graphjoin sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        if args.selftest:
            return selftest()
        if args.write_record:
            return write_record()
        if not args.workload:
            p.error("--workload is required")
        return bench(args)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
