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
the sections through the engine's own section table.  Then comes
``index_size_ratio``: the bytes of both files over the bytes of the four
CSV files they were built from.  Last, per side, what
``EngineIndex.load_file`` takes in traced memory (``tracemalloc``, from
a collected heap): its peak, the peak over the file's bytes, which
``test_loading_a_saved_index_takes_memory_per_file_byte`` bounds at 3,
and what the loaded index keeps once the heap is collected again.  The
name does not start with ``test_``, so pytest does not collect it.
"""

import argparse
import gc
import io
import os
import tempfile
import tracemalloc

from graphjoin.engine import EngineIndex, prepare
from graphjoin.gjix import _SECTIONS, _StoredSections
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


def load_memory(path: str) -> tuple[int, int]:
    """The traced peak of loading ``path`` and what the index keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        index = EngineIndex.load_file(path)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert index.decoded_buckets == 0
    return peak, kept


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=int, default=13)
    parser.add_argument("--dob-values", type=int, default=365)
    parser.add_argument("--company-values", type=int, default=512)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        raws, input_bytes = saved_pair(
            args.seed, args.scale, work, dob_values=args.dob_values, company_values=args.company_values
        )
        loads = []
        for side, raw in zip("AB", raws):
            path = os.path.join(work, f"side{side}.gjix")
            with open(path, "wb") as fh:
                fh.write(raw)
            loads.append((side, len(raw), *load_memory(path)))
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
    for side, size, peak, kept in loads:
        print(f"load_file {side}: peak {peak:,} bytes ({peak / size:.3f}x the file), keeps {kept:,}")


if __name__ == "__main__":
    main()
