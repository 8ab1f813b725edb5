"""Stored and inflated byte length of each section of the two saved
indices of the sparse benchmark operands, read from the files' section
tables, and the pair's size over its CSV input.

    PYTHONPATH=src python tests/index_sections.py [--seed 1] [--scale 13]
        [--dob-values 365] [--company-values 512]

The operands are built as the benchmark's workloads build them: two
generated graphs (seed s with attribute suffix 1, seed s + 1 with
suffix 2, edge factor 2, 365x512 key values unless given), loaded into
one database with ``load_graph_pair`` and prepared on dob1/company1 and
dob2/company2.  The output is a Markdown table: one row per section,
in file order, with side A's and side B's bytes as stored in the file,
then as inflated with the item width (0 for a column of varints), then
a row for the header with its section table, then the totals.  It reads
the sections through the engine's own section table.  The last line
gives ``index_size_ratio``: the bytes of both files over the bytes of
the four CSV files they were built from.  The name does not start with
``test_``, so pytest does not collect it.
"""

import argparse
import io
import os
import tempfile

from graphjoin.engine import _SECTIONS, _StoredSections, prepare
from graphjoin.graphio import GeneratorParams, generate, load_graph_pair
from graphjoin.model import PropertyGraph


def saved_pair(seed: int, scale: int, work: str, **values) -> tuple[list, int]:
    """The index bytes of both sides and the bytes of their input files."""
    db = PropertyGraph()
    raws, input_bytes = [], 0
    for s, keys in ((1, ["dob1", "company1"]), (2, ["dob2", "company2"])):
        params = GeneratorParams(scale=scale, seed=seed + s - 1, attr_suffix=str(s), **values)
        pair = generate(params, work, f"side{s}")
        input_bytes += sum(map(os.path.getsize, pair))
        raws.append(prepare(load_graph_pair(db, *pair), keys).to_bytes())
    return raws, input_bytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=int, default=13)
    parser.add_argument("--dob-values", type=int, default=365)
    parser.add_argument("--company-values", type=int, default=512)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        raws, input_bytes = saved_pair(
            args.seed, args.scale, work, dob_values=args.dob_values, company_values=args.company_values
        )
    # (width, stored length, inflated length, CRC32) per section
    tables = [_StoredSections(io.BytesIO(raw).read, len(raw)).table for raw in raws]
    print("| section | A stored | A inflated | B stored | B inflated |")
    print("|---|---|---|---|---|")
    for name, *entries in zip(_SECTIONS, *tables):
        cells = [f"{stored:,} | {length:,} ({width} B)" for width, stored, length, _ in entries]
        print(f"| {name} | {' | '.join(cells)} |")
    heads = [len(raw) - sum(e[1] for e in t) for raw, t in zip(raws, tables)]
    print(f"| header and table | {' | '.join(f'{h:,} | {h:,}' for h in heads)} |")
    totals = [
        f"**{len(raw):,}** | **{h + sum(e[2] for e in t):,}**" for raw, h, t in zip(raws, heads, tables)
    ]
    print(f"| **total** | {' | '.join(totals)} |")
    print(f"\nindex_size_ratio: {sum(map(len, raws)) / input_bytes:.4f} ({sum(map(len, raws)):,} / {input_bytes:,} bytes)")


if __name__ == "__main__":
    main()
