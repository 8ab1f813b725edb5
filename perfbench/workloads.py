"""Workload table shared by the benchmark harness and its child processes.

Every workload joins two generated people graphs with the generator's
default edge factor of 2.  Side A uses seed ``s`` and attribute
suffix ``1``, side B seed ``s + 1`` and suffix ``2``, so the schemas are
disjoint and only the key equality on ``dob`` and ``company``
constrains a merge.  This module imports nothing from the program, so
the harness can read it without loading the library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ON = "dob1=dob2,company1=company2"
KEYS_A = ("dob1", "company1")
KEYS_B = ("dob2", "company2")
EDGE_FACTOR = 2

DEFAULT_SEED = 1
# Seeds whose output digests, result sizes and engine counters
# perfbench/record.json holds, so that the output gate and the counter
# diffs apply to every run made with one of them.
RECORDED_SEEDS = range(0, 11)

# log2 vertex count of the oracle cross-check; the reference join is
# quadratic, and 2^9 keeps the slowest workload's check near 1.5 s.
ORACLE_SCALE = 9

# log2 vertex count of the self-test.
SMOKE_SCALE = 6


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    dob_values: int
    company_values: int
    semantics: str
    # True: set-up saves both indices and the job joins the saved files.
    # False: the job is one `graphjoin join` from files to files.
    reuse: bool


# Why each workload is here is stated in BENCHMARK.json.  Scales are
# chosen so that one job takes 1-3 s on a 2-core machine, which lets a
# run of 28 s hold ten or more jobs for a median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-oneshot", 13, 365, 512, "conjunctive", reuse=False),
        Workload("sparse-reuse", 13, 365, 512, "conjunctive", reuse=True),
        Workload("dense-disj", 10, 30, 8, "disjunctive", reuse=False),
    )
}


def input_rows(scale: int) -> int:
    """Vertex rows plus edge rows over both sides."""
    return 2 * (1 + EDGE_FACTOR) * (1 << scale)


def input_paths(work: str):
    """((vertices, edges) of side A, (vertices, edges) of side B) under a
    run's work directory."""
    d = os.path.join(work, "inputs")
    return tuple(
        (os.path.join(d, f"{side}.vertices.csv"), os.path.join(d, f"{side}.edges.tsv"))
        for side in "ab"
    )
