"""Digests of what the engine produces on a fixed set of joins, one line
per case, for comparing two versions of the program.

    PYTHONPATH=src python tests/digest_cases.py > digests.txt

Run it once against each version's ``src`` (the cases come from this
directory either way) and diff the two outputs.  Each line is
tab-separated: the case, the semantics, the SHA-256 of the written
result files (written before and after the result is materialized), of
``raw_signature``, the counters, a SHA-256 of ``bucket_stats`` and,
last, the byte lengths of the two operands' index bytes.  A change that
only alters the index format differs in that last column alone:

    diff <(cut -f1-7 parent.txt) <(cut -f1-7 change.txt)

Cases: ``build_pair`` seeds 0-39 through ``prepare``, with the operands
in memory and read back from their bytes; every ``FILE_CASES`` entry
through ``prepare_files``; and the dense-disj benchmark data (2^10,
30x8 key values, seeds 1 and 2) through ``prepare`` and
``prepare_files``.  Then the ``build_pair`` and ``FILE_CASES`` cases
again, named ``collided-...``, with ``engine.stable_hash`` patched to
put every key in one bucket, so every vertex pair of a join meets in
the vertex scan.  Each runs under both semantics.  The name does not
start with ``test_``, so pytest does not collect it.
"""

import hashlib
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_engine import FILE_CASES, hashing, write_pair  # noqa: E402

from graphjoin.engine import EngineIndex, prepare, prepare_files, run_join  # noqa: E402
from graphjoin.graphio import (  # noqa: E402
    GeneratorParams,
    generate,
    load_graph_pair,
    write_join_result,
)
from graphjoin.logical import CONJUNCTIVE, DISJUNCTIVE  # noqa: E402
from graphjoin.model import PropertyGraph  # noqa: E402
from graphjoin.verify import build_pair, raw_signature  # noqa: E402


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def written(run, out_dir) -> str:
    write_join_result(run, out_dir)
    return ",".join(
        sha(open(os.path.join(out_dir, name), "rb").read())
        for name in ("vertices.csv", "edges.tsv")
    )


def line(case, operands, semantics, work) -> str:
    a, b = operands
    run = run_join(a, b, semantics)
    counters = ",".join(f"{k}={v}" for k, v in run.counters.as_dict().items())
    stats = sha(repr(run.bucket_stats).encode())
    fresh = written(run, os.path.join(work, "fresh"))
    run.edges  # materializes the result
    materialized = written(run, os.path.join(work, "materialized"))
    signature = sha(repr(raw_signature(run)).encode())
    lengths = f"{len(a.to_bytes())},{len(b.to_bytes())}"
    return "\t".join([case, semantics, fresh, materialized, signature, counters, stats, lengths])


def reloaded(operands):
    return tuple(EngineIndex.from_bytes(op.to_bytes()) for op in operands)


def pair_and_file_cases(work, prefix):
    """(case name, function returning the two operands) per ``build_pair``
    seed and ``FILE_CASES`` entry, the name led by ``prefix``."""
    for seed in range(40):
        db, left, right, pairs = build_pair(seed)
        built = (prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]))
        yield f"{prefix}pair-{seed}", lambda built=built: built
        yield f"{prefix}pair-{seed}-reloaded", lambda built=built: reloaded(built)
    for name in sorted(FILE_CASES):
        lv, le, rv, re_, keys_a, keys_b = FILE_CASES[name]
        base = Path(work, prefix + name)
        base.mkdir()
        left_pair = write_pair(base / "left", lv, le)
        right_pair = write_pair(base / "right", rv, re_)
        yield f"{prefix}files-{name}", partial(prepare_files, left_pair, right_pair, keys_a, keys_b)


def cases(work):
    """(case name, function returning the two operands) per case."""
    yield from pair_and_file_cases(work, "")
    common = dict(scale=10, edge_factor=2, dob_values=30, company_values=8)
    dense = os.path.join(work, "dense")
    pa = generate(GeneratorParams(seed=1, attr_suffix="1", **common), dense, "a")
    pb = generate(GeneratorParams(seed=2, attr_suffix="2", **common), dense, "b")
    keys = (["dob1", "company1"], ["dob2", "company2"])

    def dense_prepared():
        db = PropertyGraph()
        return prepare(load_graph_pair(db, *pa), keys[0]), prepare(load_graph_pair(db, *pb), keys[1])

    yield "dense-disj", dense_prepared
    yield "dense-disj-reloaded", lambda: reloaded(dense_prepared())
    yield "dense-disj-files", lambda: prepare_files(pa, pb, *keys)


def print_lines(named_operands, work) -> None:
    for case, operands in named_operands:
        for semantics in (CONJUNCTIVE, DISJUNCTIVE):
            out = os.path.join(work, "out", f"{case}-{semantics}")
            print(line(case, operands(), semantics, out), flush=True)


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        print_lines(cases(work), work)
        # a loaded bucket decodes lazily, so its joins run under the
        # patch too; the dense-disj data would make 4 M vertex
        # comparisons in its one bucket
        with hashing(lambda kt: 0):
            print_lines(pair_and_file_cases(work, "collided-"), work)


if __name__ == "__main__":
    main()
