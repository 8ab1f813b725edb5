"""Byte length of each section of the two saved indices of the sparse
benchmark operands, read from the files' section tables.

    PYTHONPATH=src python tests/index_sections.py [--seed 1] [--scale 13]

The operands are built as the benchmark's sparse workloads build them:
two generated graphs (seed s with attribute suffix 1, seed s + 1 with
suffix 2, edge factor 2, 365x512 key values), loaded into one database
with ``load_graph_pair`` and prepared on dob1/company1 and
dob2/company2.  The output is a Markdown table: one row per section,
in file order, with the bytes and the item width of side A and side B,
then the header with its section table, then the total.  It reads the
sections through the engine's own table, so it runs unchanged on any
format version that has one.  The name does not start with ``test_``,
so pytest does not collect it.
"""

import argparse
import tempfile

from graphjoin.engine import _HEAD_SIZE, _unpack_sections, prepare
from graphjoin.graphio import GeneratorParams, generate, load_graph_pair
from graphjoin.model import PropertyGraph


def operands(seed: int, scale: int, work: str):
    db = PropertyGraph()
    sides = []
    for s, keys in ((1, ["dob1", "company1"]), (2, ["dob2", "company2"])):
        params = GeneratorParams(scale=scale, seed=seed + s - 1, attr_suffix=str(s))
        pair = generate(params, work, f"side{s}")
        sides.append(prepare(load_graph_pair(db, *pair), keys))
    return sides


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=int, default=13)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        raws = [op.to_bytes() for op in operands(args.seed, args.scale, work)]
    tables = [_unpack_sections(raw) for raw in raws]
    print("| section | side A | side B |")
    print("|---|---|---|")
    for name in tables[0]:
        cells = [f"{len(t[name][1]):,} ({t[name][0]} B)" for t in tables]
        print(f"| {name} | {' | '.join(cells)} |")
    print(f"| header and table | {_HEAD_SIZE:,} | {_HEAD_SIZE:,} |")
    print(f"| **total** | **{len(raws[0]):,}** | **{len(raws[1]):,}** |")


if __name__ == "__main__":
    main()
