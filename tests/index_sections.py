"""Stored and inflated byte length of each section of the two saved
indices of the sparse benchmark operands, read from the files' section
tables.

    PYTHONPATH=src python tests/index_sections.py [--seed 1] [--scale 13]

The operands are built as the benchmark's sparse workloads build them:
two generated graphs (seed s with attribute suffix 1, seed s + 1 with
suffix 2, edge factor 2, 365x512 key values), loaded into one database
with ``load_graph_pair`` and prepared on dob1/company1 and
dob2/company2.  The output is a Markdown table: one row per section,
in file order, with side A's and side B's bytes as stored in the file,
then as inflated with the item width, then a row for the header with
its section table, then the totals.  It reads the sections through the
engine's own section table.  The name does not start with ``test_``,
so pytest does not collect it.
"""

import argparse
import tempfile

from graphjoin.engine import _CRC, _ENTRY, _HEAD, _HEAD_SIZE, _SECTIONS, prepare
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
    # (width, stored length, inflated length, CRC32) per section
    tables = [list(_ENTRY.iter_unpack(raw[_HEAD.size : _HEAD_SIZE - _CRC.size])) for raw in raws]
    print("| section | A stored | A inflated | B stored | B inflated |")
    print("|---|---|---|---|---|")
    for name, *entries in zip(_SECTIONS, *tables):
        cells = [f"{stored:,} | {length:,} ({width} B)" for width, stored, length, _ in entries]
        print(f"| {name} | {' | '.join(cells)} |")
    head = f"{_HEAD_SIZE:,} | {_HEAD_SIZE:,}"
    print(f"| header and table | {head} | {head} |")
    totals = [f"**{len(raw):,}** | **{_HEAD_SIZE + sum(e[2] for e in t):,}**" for raw, t in zip(raws, tables)]
    print(f"| **total** | {' | '.join(totals)} |")

if __name__ == "__main__":
    main()
