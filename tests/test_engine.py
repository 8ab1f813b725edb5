"""Optimized join engine: bucket hashing, operand preparation, the
binary index format, operands pruned to each other straight from files,
parity with the reference join, the factorized result, and the cost
counters.  The citation instance's counter values are frozen by hand
from the phase definitions."""

import hashlib
import inspect
import os
import struct
import tempfile
import tracemalloc
import zlib
from array import array
from itertools import accumulate
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import graphjoin
import graphjoin.engine
import graphjoin.graphio
from graphjoin.engine import (
    EngineIndex,
    _CRC,
    _DEFLATED,
    _ENTRY,
    _HEAD,
    _HEAD_SIZE,
    _SECTIONS,
    _column,
    _pack_sections,
    _read_column,
    _unpack_sections,
    explain,
    prepare,
    prepare_files,
    run_join,
    stable_hash,
)
from graphjoin.graphio import (
    GeneratorParams,
    build_graph,
    generate,
    load_graph_pair,
    read_graph_rows,
    write_graph,
    write_join_result,
)
from graphjoin.logical import CONJUNCTIVE, DISJUNCTIVE, JoinSpec, graph_join
from graphjoin.model import (
    EMPTY_RECORD,
    Element,
    IncompleteBucket,
    IndexedSet,
    PropertyGraph,
    Record,
    SpecMismatch,
    ValidationError,
    component_from_payloads,
)
from graphjoin.relational import ThetaPredicate
from graphjoin.verify import build_pair, build_triple, check_oracle_engine, raw_signature

NAME_EQ = ThetaPredicate.equalities([("Name", "1Author")])


def out_edges(index, o):
    """The edge ids of ordinal ``o``'s out-edges."""
    return range(index.edge_offsets[o], index.edge_offsets[o + 1])


INDEX_FIELDS = tuple(inspect.signature(EngineIndex).parameters)


def replace(index, **changes):
    """A new index with the fields of ``index``, except ``changes``."""
    return EngineIndex(**{name: getattr(index, name) for name in INDEX_FIELDS} | changes)


def directory(index):
    """``(hash, start, count)`` per bucket, read from the directory columns."""
    return list(zip(index.bucket_hash, index.bucket_start, index.bucket_count))


def bucket_sizes(index):
    """``(hash, vertices, total out-degree)`` per bucket."""
    at = index.edge_offsets
    return [(h, count, at[start + count] - at[start]) for h, start, count in directory(index)]


def hashing(fn):
    """Buckets hashed by ``fn`` in place of ``stable_hash`` on every path
    while the context is open: ``prepare``, ``prepare_files`` and the
    decoder of a loaded index, which decodes lazily."""
    return patch.object(graphjoin.engine, "stable_hash", fn)


def oracle_join(left, right, pairs, semantics):
    theta = ThetaPredicate.equalities(pairs)
    return graph_join(left, right, JoinSpec(theta, semantics))


# ---------------------------------------------------------------------------
# bucket hashing


def test_stable_hash_is_frozen():
    # the hash feeds serialized directory entries, so its values are
    # part of the format and must never drift
    assert stable_hash(("Alice",)) == 15136095067935038191
    assert stable_hash(()) == 6531563882686126964


def test_stable_hash_length_prefixes_values():
    # without length prefixes these two key tuples would collide
    assert stable_hash(("ab", "c")) != stable_hash(("a", "bc"))


def test_stable_hash_is_order_sensitive():
    assert stable_hash(("x", "y")) != stable_hash(("y", "x"))


def test_prepare_hashes_each_distinct_key_tuple_once():
    calls = []

    def counted(kt):
        calls.append(kt)
        return stable_hash(kt)

    db = PropertyGraph()
    records = [Record({"k": v}) for v in "abacab"] + [Record({"w": "a"})]
    g = component_from_payloads(db, records, [(0, 1, EMPTY_RECORD)])
    with hashing(counted):
        idx = prepare(g, ["k"])
    assert sorted(calls) == [("a",), ("b",), ("c",)]
    assert sorted(idx.bucket_count) == [1, 2, 3]
    assert idx.to_bytes() == prepare(g, ["k"]).to_bytes()


def test_bucket_hash_uses_the_blake2b_of_hashlib():
    # taken from the module hashlib takes it from, which loads no OpenSSL
    assert graphjoin.engine.blake2b is hashlib.blake2b
    assert graphjoin.graphio.blake2b is hashlib.blake2b


def test_export_lists_resolve():
    # a name removed from a module must leave its export lists too
    for module in (graphjoin, graphjoin.engine):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


# ---------------------------------------------------------------------------
# prepare: bucketing


def test_load_buckets_by_key_hash(citation_instance):
    db, researcher, citation = citation_instance
    idx = prepare(researcher, ["Name"])
    assert idx.keys == ("Name",)
    assert {h for h, _, _ in directory(idx)} == {stable_hash(("Alice",)), stable_hash(("Bob",))}
    assert idx.skipped_vertices == 0
    assert idx.dropped_edges == 0
    ((alice, count),) = [
        (start, count) for h, start, count in directory(idx) if h == stable_hash(("Alice",))
    ]
    assert count == 1
    assert idx.key_values[alice] == ("Alice",)
    assert idx.labels[alice] == frozenset({"User"})
    (e,) = out_edges(idx, alice)
    assert idx.elements[idx.edge_dest[e]].record == Record({"Name": "Bob"})
    assert idx.edge_elements[e].record == Record({"Since": "2020"})
    assert idx.edge_labels[e] == frozenset({"Follows"})


def test_load_skips_keyless_vertices_and_their_edges():
    db = PropertyGraph()
    g = component_from_payloads(
        db,
        [Record({"k": "1"}), Record({"other": "1"}), Record({"k": "2"})],
        [(0, 1, EMPTY_RECORD), (1, 2, EMPTY_RECORD), (0, 2, EMPTY_RECORD)],
    )
    idx = prepare(g, ["k"])
    assert idx.skipped_vertices == 1
    assert idx.dropped_edges == 2
    assert sum(count for _, _, count in directory(idx)) == 2
    assert sorted(idx.key_values) == [("1",), ("2",)]
    # only the edge between the two keyed vertices stays
    assert idx.n_edges == 1
    ((src, (e,)),) = [(o, out_edges(idx, o)) for o in range(idx.n_vertices) if out_edges(idx, o)]
    assert (idx.key_values[src], idx.key_values[idx.edge_dest[e]]) == (("1",), ("2",))


def test_load_rejects_bad_key_sequences(citation_instance):
    db, researcher, _ = citation_instance
    with pytest.raises(ValidationError):
        prepare(researcher, [])
    with pytest.raises(ValidationError):
        prepare(researcher, [""])


# ---------------------------------------------------------------------------
# prepare: ordinals and edge ids


def test_index_directory_is_sorted_and_contiguous():
    db, left, right, pairs = build_pair(7)
    idx = prepare(left, [pairs[0][0]])
    hashes = [h for h, _, _ in directory(idx)]
    assert hashes == sorted(hashes)
    at = 0
    for _, start, count in directory(idx):
        assert start == at
        at += count
    assert at == idx.n_vertices


def test_index_edge_ids_are_dense_in_ordinal_order(citation_instance):
    db, researcher, citation = citation_instance
    operands = [prepare(researcher, ["Name"]), prepare(citation, ["1Author"])]
    for seed in range(20):
        db, left, right, pairs = build_pair(seed)
        operands += [prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]])]
    for idx in operands:
        offsets = list(idx.edge_offsets)
        assert len(offsets) == idx.n_vertices + 1
        assert offsets[0] == 0 and offsets == sorted(offsets)
        assert offsets[-1] == idx.n_edges == len(idx.edge_dest) == len(idx.edge_elements)
        assert len(idx.edge_labels) == idx.n_edges
        for o in range(idx.n_vertices):
            order = [
                (idx.edge_dest[e], idx.edge_elements[e].replica, idx.edge_elements[e].record.items)
                for e in out_edges(idx, o)
            ]
            assert all(x < y for x, y in zip(order, order[1:]))


def test_index_counts_and_bucket_sizes(citation_instance):
    db, researcher, citation = citation_instance
    idx = prepare(researcher, ["Name"])
    assert idx.n_vertices == 2
    assert idx.n_edges == 1
    assert sorted(bucket_sizes(idx)) == sorted(
        [(stable_hash(("Alice",)), 1, 1), (stable_hash(("Bob",)), 1, 0)]
    )


def test_index_carries_load_statistics():
    db = PropertyGraph()
    g = component_from_payloads(
        db,
        [Record({"k": "1"}), Record({"other": "1"})],
        [(0, 1, EMPTY_RECORD)],
    )
    idx = prepare(g, ["k"])
    assert idx.skipped_vertices == 1
    assert idx.dropped_edges == 1


# ---------------------------------------------------------------------------
# serialization


def test_index_bytes_round_trip_is_bit_exact():
    db, left, right, pairs = build_pair(11)
    for graph, key in ((left, pairs[0][0]), (right, pairs[0][1])):
        idx = prepare(graph, [key])
        raw = idx.to_bytes()
        assert raw[:4] == b"GJIX"
        back = EngineIndex.from_bytes(raw)
        assert back.to_bytes() == raw


def test_serialization_is_deterministic():
    db, left, right, pairs = build_pair(12)
    assert prepare(left, ["k"]).to_bytes() == prepare(left, ["k"]).to_bytes()


def test_save_and_load_file_round_trip(tmp_path, citation_instance):
    db, researcher, citation = citation_instance
    idx = prepare(researcher, ["Name"])
    path = tmp_path / "researcher.gjix"
    idx.save(path)
    back = EngineIndex.load_file(path)
    assert back.to_bytes() == idx.to_bytes()


def test_from_bytes_rejects_bad_magic(citation_instance):
    db, researcher, _ = citation_instance
    raw = prepare(researcher, ["Name"]).to_bytes()
    with pytest.raises(ValidationError, match="magic"):
        EngineIndex.from_bytes(b"NOPE" + raw[4:])


def test_from_bytes_rejects_unknown_version(citation_instance):
    db, researcher, _ = citation_instance
    raw = prepare(researcher, ["Name"]).to_bytes()
    bumped = raw[:4] + struct.pack("<H", EngineIndex.VERSION + 1) + raw[6:]
    with pytest.raises(ValidationError, match="version"):
        EngineIndex.from_bytes(bumped)


def test_from_bytes_rejects_a_version_1_index():
    # the head of a version 1 file: magic, version, one key "k"
    v1 = b"GJIX" + struct.pack("<HHI", 1, 1, 1) + b"k" + bytes(16)
    # the head of a version 2 file: magic, version, its first section
    # entry (width, length, CRC32)
    v2 = b"GJIX" + struct.pack("<HBQI", 2, 1, 5, 0) + bytes(16)
    # the heads of a version 3 and a version 4 file, laid out as
    # version 2's
    v3 = b"GJIX" + struct.pack("<HBQI", 3, 1, 9, 0) + bytes(16)
    v4 = b"GJIX" + struct.pack("<HBQI", 4, 1, 9, 0) + bytes(16)
    for raw, version in ((v1, 1), (v2, 2), (v3, 3), (v4, 4)):
        with pytest.raises(ValidationError, match=f"unsupported index version {version}"):
            EngineIndex.from_bytes(raw)


def test_a_version_5_index_is_rejected(tmp_path):
    # the head of a version 5 file: magic, version, its first section
    # entry (width, length, CRC32), laid out as version 2's
    v5 = b"GJIX" + struct.pack("<HBQI", 5, 1, 11, 0) + bytes(16)
    path = tmp_path / "v5.gjix"
    path.write_bytes(v5)
    for load in (lambda: EngineIndex.from_bytes(v5), lambda: EngineIndex.load_file(path)):
        with pytest.raises(ValidationError, match="unsupported index version 5"):
            load()


@pytest.mark.parametrize(
    "top, width",
    [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)],
)
def test_int_columns_take_the_narrowest_width_that_holds_them(top, width):
    values = [0, top, 1]
    sections = {"column": _column(values)}
    assert sections["column"][0] == width
    assert len(sections["column"][1]) == 3 * width
    assert list(_read_column(sections, "column")) == values


def test_the_largest_bucket_hash_round_trips():
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"k": "a"}), Record({"k": "b"})], [(0, 1, EMPTY_RECORD)])
    with hashing(lambda kt: 2**64 - 1):
        idx = prepare(g, ["k"])
        raw = idx.to_bytes()
        back = EngineIndex.from_bytes(raw)
        # decodes the bucket, whose keys hash to it under the patch
        assert back.to_bytes() == raw
    assert _unpack_sections(raw)["bucket_hash"][0] == 8
    assert directory(back) == directory(idx) == [(2**64 - 1, 0, 2)]
    # the reader checks each key against the stable hash
    with pytest.raises(ValidationError, match="does not hash to its bucket"):
        EngineIndex.from_bytes(raw).elements[0]


def test_a_failed_save_leaves_the_previous_file(tmp_path, monkeypatch, citation_instance):
    db, researcher, citation = citation_instance
    path = tmp_path / "researcher.gjix"
    prepare(citation, ["1Author"]).save(path)
    prepare(researcher, ["Name"]).save(path)
    saved = path.read_bytes()
    assert saved == prepare(researcher, ["Name"]).to_bytes()

    class HalfWritten:
        """A file that takes half of what is written, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(
        graphjoin.engine, "open", lambda *args: HalfWritten(open(*args)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        prepare(citation, ["1Author"]).save(path)
    monkeypatch.undo()
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_from_bytes_rejects_truncation_and_trailing_bytes(citation_instance):
    db, researcher, _ = citation_instance
    raw = prepare(researcher, ["Name"]).to_bytes()
    with pytest.raises(ValidationError, match="truncated"):
        EngineIndex.from_bytes(raw[:-1])
    with pytest.raises(ValidationError, match="trailing"):
        EngineIndex.from_bytes(raw + b"\x00")


def test_from_bytes_rejects_broken_directories(citation_instance):
    db, researcher, _ = citation_instance
    idx = prepare(researcher, ["Name"])
    short = array("Q", idx.bucket_count)
    short[-1] -= 1
    # the undercounting directory also leaves the last vertex row
    # unread, so coverage is checked before the payload is parsed
    tampered = replace(idx, bucket_count=short)
    assert [start for _, start, _ in directory(tampered)] == list(idx.bucket_start)
    with pytest.raises(ValidationError, match="cover"):
        EngineIndex.from_bytes(tampered.to_bytes())


def test_from_bytes_rejects_unsorted_directory_hashes():
    db, left, right, pairs = build_pair(5)
    a = prepare(left, [pairs[0][0]])
    b = prepare(right, [pairs[0][1]])
    assert len(run_join(a, b).vertices) == 8

    # the directory merge assumes ascending hashes; with two swapped it
    # would walk past every match and join nothing
    hashes = array("Q", a.bucket_hash)
    hashes[0], hashes[1] = hashes[1], hashes[0]
    tampered = replace(a, bucket_hash=hashes)
    with pytest.raises(ValidationError, match="ascend"):
        EngineIndex.from_bytes(tampered.to_bytes())


def test_from_bytes_rejects_out_of_range_destinations():
    db = PropertyGraph()
    g = component_from_payloads(
        db,
        [Record({"k": "a"}), Record({"k": "b"}), Record({"k": "c"})],
        [(0, 1, EMPTY_RECORD)],
    )
    idx = prepare(g, ["k"])
    assert idx.n_vertices == 3
    assert idx.n_edges == 1
    tampered = replace(idx, edge_dest=array("Q", [10**6]))
    with pytest.raises(ValidationError, match="outside the vertex table"):
        EngineIndex.from_bytes(tampered.to_bytes())


def test_deserialized_index_joins_identically(tmp_path):
    db, left, right, pairs = build_pair(23)
    a = prepare(left, [pairs[0][0]])
    b = prepare(right, [pairs[0][1]])
    for semantics in (CONJUNCTIVE, DISJUNCTIVE):
        live = run_join(a, b, semantics)
        thawed = run_join(
            EngineIndex.from_bytes(a.to_bytes()),
            EngineIndex.from_bytes(b.to_bytes()),
            semantics,
        )
        assert raw_signature(thawed) == raw_signature(live)
        assert thawed.counters.as_dict() == live.counters.as_dict()
        assert thawed.bucket_stats == live.bucket_stats
        write_join_result(live, tmp_path / semantics / "live")
        write_join_result(thawed, tmp_path / semantics / "thawed")
        for name in ("vertices.csv", "edges.tsv"):
            written = tmp_path / semantics / "thawed" / name
            assert written.read_bytes() == (tmp_path / semantics / "live" / name).read_bytes()


# small graphs for the round trip: one pool of values for every
# attribute, so a value binds under several names; "L" is an attribute
# name and a label; payloads repeat, and a vertex may lack the key k
GRAPH_RECORDS = st.dictionaries(
    st.sampled_from(["k", "w", "L"]), st.sampled_from(["0", "1", "é"]), max_size=3
).map(Record)
LABEL_SETS = st.lists(st.sampled_from(["L", "M"]), max_size=2, unique=True)


@st.composite
def graph_payloads(draw):
    """Vertex records, edge triples and the label lists of one small
    graph, for ``component_from_payloads``."""
    vertices = draw(st.lists(GRAPH_RECORDS, max_size=6))
    ends = st.integers(0, len(vertices) - 1)
    edges = draw(st.lists(st.tuples(ends, ends, GRAPH_RECORDS), max_size=8)) if vertices else []
    vertex_labels = draw(st.lists(LABEL_SETS, min_size=len(vertices), max_size=len(vertices)))
    edge_labels = draw(st.lists(LABEL_SETS, min_size=len(edges), max_size=len(edges)))
    return vertices, edges, vertex_labels, edge_labels


def reloaded_alike(op):
    """``op`` read back from its bytes, after checking that a load writes
    them again exactly; the copy returned has decoded nothing yet."""
    raw = op.to_bytes()
    assert EngineIndex.from_bytes(raw).to_bytes() == raw
    return EngineIndex.from_bytes(raw)


def assert_joins_alike(ops, loaded, work, graphs_in, pairs):
    """``ops`` and ``loaded`` write the same bytes and give the
    ``raw_signature`` of the reference join on the equalities ``pairs``
    of the two graphs ``graphs_in`` builds in a database, under both
    semantics."""
    for semantics in (CONJUNCTIVE, DISJUNCTIVE):
        live, thawed = run_join(*ops, semantics), run_join(*loaded, semantics)
        # one database cannot hold two reference results
        oracle = oracle_join(*graphs_in(PropertyGraph()), pairs, semantics)
        assert raw_signature(thawed) == raw_signature(live) == raw_signature(oracle)
        out = os.path.join(work, semantics)
        assert written(thawed, Path(out, "thawed")) == written(live, Path(out, "live"))


# "1" and "é" meet in one bucket under the collided hash, so only the
# vertex scan's key check keeps k = "1" from joining w = "é"
@example(
    left=([Record({"k": "1"})], [], [[]], []),
    right=([Record({}), Record({}), Record({}), Record({"w": "é"})], [], [[]] * 4, []),
    right_key="w",
    collide=True,
)
@given(graph_payloads(), graph_payloads(), st.sampled_from(["k", "w"]), st.booleans())
def test_index_bytes_round_trip_and_loaded_operands_join_alike(left, right, right_key, collide):
    def drawn(db):
        return [
            component_from_payloads(db, v, e, vertex_labels=vl, edge_labels=el)
            for v, e, vl, el in (left, right)
        ]

    # the keys "1" and "é" share a bucket; a loaded bucket decodes
    # lazily, so every join runs under the same hash
    bucket = (lambda kt: ord(kt[0][0]) % 2) if collide else stable_hash
    with hashing(bucket), tempfile.TemporaryDirectory() as work:
        graphs = drawn(PropertyGraph())
        ops = [prepare(g, [key]) for g, key in zip(graphs, ("k", right_key))]
        loaded = [reloaded_alike(op) for op in ops]
        pairs = [("k", right_key)]
        assert_joins_alike(ops, loaded, os.path.join(work, "prepare"), drawn, pairs)
        files = []
        for i, g in enumerate(graphs):
            pair = os.path.join(work, f"{i}.csv"), os.path.join(work, f"{i}.tsv")
            write_graph(g, *pair)
            files.append(pair)
        ops = prepare_files(*files, ["k"], [right_key])
        loaded = [reloaded_alike(op) for op in ops]
        assert_joins_alike(
            ops,
            loaded,
            os.path.join(work, "files"),
            lambda db: [load_graph_pair(db, *pair) for pair in files],
            pairs,
        )


def test_index_round_trips_replicas_beyond_u64():
    big = 2**70
    db = PropertyGraph()
    va, vb = Element(Record({"k": "a"}), big), Element(Record({"k": "b"}), 1)
    edge = Element(Record({"w": "x"}), big)
    cid = db.register_component(IndexedSet([va, vb]), IndexedSet([edge]), {edge: (va, vb)})
    left = db.get_graph(cid)
    right = component_from_payloads(
        db, [Record({"k2": "a"}), Record({"k2": "b"})], [(0, 1, Record({"w": "x"}))]
    )
    a = prepare(left, ["k"])
    b = prepare(right, ["k2"])
    raw = a.to_bytes()
    back = EngineIndex.from_bytes(raw)
    assert back.to_bytes() == raw
    assert big in {el.replica for el in back.elements}
    assert big in {el.replica for el in back.edge_elements}
    for semantics in (CONJUNCTIVE, DISJUNCTIVE):
        live = run_join(a, b, semantics)
        thawed = run_join(back, EngineIndex.from_bytes(b.to_bytes()), semantics)
        assert len(live.edges) == 1
        assert raw_signature(thawed) == raw_signature(live)
        assert thawed.counters.as_dict() == live.counters.as_dict()
        assert thawed.bucket_stats == live.bucket_stats


def test_loaded_index_decodes_only_the_buckets_a_join_visits(tmp_path):
    db, left, right, pairs = build_pair(1, max_vertices=60, max_edges=80, key_domain=40)
    a = prepare(left, [pairs[0][0]])
    b = prepare(right, [pairs[0][1]])
    a.save(tmp_path / "a.gjix")
    b.save(tmp_path / "b.gjix")
    for semantics in (CONJUNCTIVE, DISJUNCTIVE):
        la = EngineIndex.load_file(tmp_path / "a.gjix")
        lb = EngineIndex.load_file(tmp_path / "b.gjix")
        assert (la.n_edges, lb.n_edges) == (a.n_edges, b.n_edges)
        assert (bucket_sizes(la), bucket_sizes(lb)) == (bucket_sizes(a), bucket_sizes(b))
        assert la.decoded_buckets == lb.decoded_buckets == 0
        run = run_join(la, lb, semantics)
        visits = run.counters.bucket_visits
        assert 0 < visits < min(len(a.bucket_hash), len(b.bucket_hash))
        assert la.decoded_buckets == lb.decoded_buckets == visits
        assert raw_signature(run) == raw_signature(run_join(a, b, semantics))
    # an index built in memory has nothing left to decode
    assert a.decoded_buckets == len(a.bucket_hash)


def test_loaded_columns_read_like_the_built_ones():
    db, left, right, pairs = build_pair(5)
    idx = prepare(left, [pairs[0][0]])
    assert (idx.n_vertices, idx.n_edges) == (11, 9)
    back = EngineIndex.from_bytes(idx.to_bytes())
    assert back.elements[-1] == idx.elements[-1]
    assert back.edge_labels[-1] == idx.edge_labels[-1]
    assert back.key_values[1:3] == idx.key_values[1:3]
    for column, n in ((back.elements, idx.n_vertices), (back.edge_elements, idx.n_edges)):
        for past in (n, -n - 1):
            with pytest.raises(IndexError):
                column[past]
    assert list(back.labels) == list(idx.labels)
    assert list(back.edge_elements) == list(idx.edge_elements)


def test_loading_a_saved_index_takes_memory_per_file_byte(tmp_path):
    # a sparse-reuse operand: a generated 2^13 graph with 365x512 key
    # values; loading keeps its int columns, string text and payload
    # bytes, and builds no string, element or tuple per bucket
    path = tmp_path / "a.gjix"
    graph = build_graph(PropertyGraph(), GeneratorParams(13, 1, attr_suffix="1"))
    prepare(graph, ["dob1", "company1"]).save(path)
    del graph
    tracemalloc.start()
    try:
        index = EngineIndex.load_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (index.n_vertices, index.decoded_buckets) == (8192, 0)
    assert peak < 3 * path.stat().st_size


def test_from_bytes_rejects_checksum_mismatches(citation_instance):
    db, researcher, _ = citation_instance
    raw = prepare(researcher, ["Name"]).to_bytes()
    in_payload = raw[:-1] + bytes([raw[-1] ^ 0x01])
    with pytest.raises(ValidationError, match="checksum mismatch in index section payload"):
        EngineIndex.from_bytes(in_payload)
    # the first section's length, inside the section table
    in_table = raw[:7] + bytes([raw[7] ^ 0x01]) + raw[8:]
    with pytest.raises(ValidationError, match="header checksum"):
        EngineIndex.from_bytes(in_table)


def test_bucket_decode_rejects_a_key_that_does_not_hash_to_its_bucket():
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"k": "a"}), Record({"k": "b"})], [])
    sections = _unpack_sections(prepare(g, ["k"]).to_bytes())
    width, payload = sections["payload"]
    # per vertex: replica less the smallest, class 1 (the names ("k",),
    # no labels), its value id; k's dictionary numbers the first
    # vertex's value, then the second's
    assert bytes(sections["classes"][1]) == bytes([1, 0, 0])
    assert bytes(payload) == bytes([0, 1, 0, 0, 1, 1])
    # the first vertex now binds the second one's key value
    sections["payload"] = (width, bytes([0, 1, 1, 0, 1, 1]))
    patched = EngineIndex.from_bytes(_pack_sections(sections))
    assert patched.key_values[1] == (patched.elements[1].record["k"],)
    with pytest.raises(ValidationError, match="does not hash to its bucket"):
        patched.elements[0]
    assert patched.decoded_buckets == 1


def test_bucket_decode_rejects_key_values_that_disagree_with_the_records():
    # key values that disagree with their records, filed under the hash
    # of the claimed key; joined on them, the vertex {k=a} would merge
    # with a vertex {k2=b}
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"k": "a"})], [])
    idx = prepare(g, ["k"])
    hostile = replace(
        idx,
        key_values=(("b",),),
        bucket_hash=array("Q", [stable_hash(("b",))]),
        bucket_count=array("Q", [1]),
    )
    assert directory(hostile) == [(stable_hash(("b",)), 0, 1)]
    back = EngineIndex.from_bytes(hostile.to_bytes())
    with pytest.raises(ValidationError, match="does not hash to its bucket"):
        back.key_values[0]


def damage(name, change):
    """A change to one section of a one-vertex index, after which the
    checksums are recomputed."""

    def apply(sections):
        width, body = sections[name]
        sections[name] = (width, change(bytes(body), width))

    return apply


def damages(*applies):
    """Several changes, applied in turn."""

    def apply(sections):
        for each in applies:
            each(sections)

    return apply


def plus_one(b, w):
    """The one-item column ``b`` of width ``w``, with its item one more."""
    return (int.from_bytes(b, "little") + 1).to_bytes(w, "little")


def minus_one(b, w):
    """The one-item column ``b`` of width ``w``, with its item one less."""
    return (int.from_bytes(b, "little") - 1).to_bytes(w, "little")


def declared_width(name, width):
    """The section's body as it is, declared with another width."""

    def apply(sections):
        sections[name] = (width, sections[name][1])

    return apply


# the one vertex {k=a, x=b} and its self-loop {}, both replica 1:
# dictionary 0 holds k=0 and x=1, then k's dictionary holds a=0 and x's
# b=0; class 1 is ("k", "x") with no labels, listed as [2, 0, 1, 0]; the
# vertex is [0, 1, 0, 0], the self-loop [0, 0]
STRUCTURAL_DAMAGE = {
    "string-text-not-utf8": (damage("string_text", lambda b, w: b"\xff" + b[1:]), "not UTF-8"),
    "string-text-past-offsets": (damage("string_text", lambda b, w: b + b"z"), "string table offsets"),
    "string-lengths-miss-text": (
        damage("string_lengths", lambda b, w: b[:-w] + plus_one(b[-w:], w)),
        "string table offsets",
    ),
    # meta: key count, key ids, skipped, dropped; now no key
    "meta-no-join-keys": (damage("meta", lambda b, w: b"\x00" + b[2:]), "join keys"),
    # the key now names string 2, the value a, past dictionary 0
    "meta-key-past-dictionary-0": (
        damage("meta", lambda b, w: b[:1] + b"\x02" + b[2:]),
        "corrupt index header fields",
    ),
    # ... vertex maximum, edge maximum, smallest vertex replica, smallest
    # edge replica; the maxima now below the replica 1 of the vertex, of
    # its self-loop
    "meta-vertex-max-too-small": (damage("meta", lambda b, w: b[:-4] + b"\x00" + b[-3:]), "maximum"),
    "meta-edge-max-too-small": (damage("meta", lambda b, w: b[:-3] + b"\x00" + b[-2:]), "maximum"),
    # the smallest vertex replica is now 2, which carries the vertex's
    # offset 0 past the vertex maximum 1
    "replica-offset-past-maximum": (
        damage("meta", lambda b, w: b[:-2] + b"\x02" + b[-1:]),
        "exceeds its universe's maximum",
    ),
    "byte-section-width-not-1": (declared_width("meta", 2), "meta is not a byte section"),
    # dictionaries: dictionary 0's count, then name id and count per
    # attribute dictionary, [2, 0, 1, 1, 1]
    "dictionary-table-truncated": (
        damage("dictionaries", lambda b, w: b[:-1]),
        "corrupt dictionary table",
    ),
    "dictionary-counts-miss-strings": (
        damage("dictionaries", lambda b, w: b[:-1] + b"\x02"),
        "dictionary counts do not sum to the string table",
    ),
    "dictionaries-name-one-attribute": (
        damage("dictionaries", lambda b, w: bytes([2, 0, 1, 0, 1])),
        "two dictionaries name attribute 'k'",
    ),
    "dictionary-name-past-dictionary-0": (
        damage("dictionaries", lambda b, w: bytes([2, 2, 1, 1, 1])),
        "id 2 is past dictionary 0",
    ),
    # k's dictionary now holds both values, and x has none
    "class-attribute-without-dictionary": (
        damage("dictionaries", lambda b, w: bytes([2, 0, 2])),
        "an attribute of class 1 has no dictionary",
    ),
    "directory-column-short": (damage("bucket_count", lambda b, w: b""), "differ in length"),
    "bucket-flags-short": (damage("bucket_incomplete", lambda b, w: b""), "differ in length"),
    "bucket-flag-not-0-or-1": (damage("bucket_incomplete", lambda b, w: b"\x02"), "neither 0 nor 1"),
    "edge-offsets-past-dest": (damage("edge_dest", lambda b, w: b""), "edge offsets"),
    "edge-degrees-miss-dest": (damage("edge_degrees", plus_one), "edge offsets"),
    "block-lengths-miss-payload": (damage("bucket_bytes", plus_one), "bucket payload offsets"),
    "block-trailing-byte": (
        damages(damage("payload", lambda b, w: b + b"\x00"), damage("bucket_bytes", plus_one)),
        "corrupt payload in bucket",
    ),
    "block-truncated-varint": (
        damages(damage("payload", lambda b, w: b + b"\x80"), damage("bucket_bytes", plus_one)),
        "truncated varint",
    ),
    # a second bucket, without vertices, whose block holds two bytes
    "empty-bucket-with-a-block": (
        damages(
            damage("bucket_hash", lambda b, w: b + plus_one(b, w)),
            damage("bucket_count", lambda b, w: b + bytes(w)),
            damage("bucket_incomplete", lambda b, w: b + b"\x00"),
            damage("bucket_bytes", lambda b, w: b + (2).to_bytes(w, "little")),
            damage("payload", lambda b, w: b + b"\x00\x00"),
        ),
        "a bucket without vertices has a payload block",
    ),
    # class 1 now lists k twice
    "record-duplicate-name": (
        damage("classes", lambda b, w: bytes([2, 0, 0, 0])),
        "names of class 1 do not strictly ascend",
    ),
    "class-names-unsorted": (
        damage("classes", lambda b, w: bytes([2, 1, 0, 0])),
        "names of class 1 do not strictly ascend",
    ),
    # string 2, the value a, is in the table but past dictionary 0
    "class-name-past-dictionary-0": (
        damage("classes", lambda b, w: bytes([2, 0, 2, 0])),
        "class 1 names a string past dictionary 0",
    ),
    "class-table-truncated": (damage("classes", lambda b, w: bytes([3, 0, 1])), "corrupt class table"),
    # class 1 now carries the label k twice
    "class-label-repeated": (
        damage("classes", lambda b, w: bytes([2, 0, 1, 2, 0, 0])),
        "the labels of class 1 repeat",
    ),
    # the record binds x to value id 9, past x's one value
    "record-value-id-past-dictionary": (
        damage("payload", lambda b, w: b.replace(bytes([1, 0, 0]), bytes([1, 0, 9]), 1)),
        "id 9 is past the dictionary of attribute 'x'",
    ),
    # the vertex has class 2, past the one class listed
    "class-id-past-table": (
        damage("payload", lambda b, w: b.replace(bytes([0, 1]), bytes([0, 2]), 1)),
        "corrupt payload in bucket",
    ),
    # class 1 is now ("x",), so the record, one value shorter, is {x=b}
    "record-lacks-join-key": (
        damages(
            damage("classes", lambda b, w: bytes([1, 1, 0])),
            damage("payload", lambda b, w: b[:3] + b[4:]),
            damage("bucket_bytes", minus_one),
        ),
        "join key 'k'",
    ),
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL_DAMAGE))
def test_structural_damage_behind_valid_checksums_is_rejected(case):
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"k": "a", "x": "b"})], [(0, 0, EMPTY_RECORD)])
    sections = _unpack_sections(prepare(g, ["k"]).to_bytes())
    assert bytes(sections["meta"][1]) == bytes([1, 0, 0, 0, 1, 1, 1, 1])
    assert bytes(sections["dictionaries"][1]) == bytes([2, 0, 1, 1, 1])
    assert bytes(sections["classes"][1]) == bytes([2, 0, 1, 0])
    # vertex: replica less the smallest, class 1 and its two value ids;
    # its self-loop: replica less the smallest, class 0
    assert bytes(sections["payload"][1]) == bytes([0, 1, 0, 0, 0, 0])
    apply, message = STRUCTURAL_DAMAGE[case]
    apply(sections)
    with pytest.raises(ValidationError, match=message):
        EngineIndex.from_bytes(_pack_sections(sections)).to_bytes()


def test_a_value_id_past_its_dictionary_never_reads_the_next_one():
    # the vertex {a=1, k=2}: dictionary 0 holds k and a, then come a's
    # dictionary, holding "1", and k's, holding "2"; without the bound,
    # a's value id 1 would read k's "2" and the record {a=2, k=2} would
    # still hash to its bucket
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"a": "1", "k": "2"})], [])
    sections = _unpack_sections(prepare(g, ["k"]).to_bytes())
    assert bytes(sections["dictionaries"][1]) == bytes([2, 1, 1, 0, 1])
    assert bytes(sections["payload"][1]) == bytes([0, 1, 0, 0])
    sections["payload"] = (1, bytes([0, 1, 1, 0]))
    back = EngineIndex.from_bytes(_pack_sections(sections))
    with pytest.raises(ValidationError, match="id 1 is past the dictionary of attribute 'a'"):
        back.elements[0]


def stored_sections(raw: bytes) -> dict:
    """``{name: [width, stored bytes, declared length]}`` of a file, the
    deflated sections as their zlib streams."""
    entries = _ENTRY.iter_unpack(raw[_HEAD.size : _HEAD_SIZE - _CRC.size])
    table, at = {}, _HEAD_SIZE
    for name, (width, stored, length, _) in zip(_SECTIONS, entries):
        table[name] = [width, raw[at : at + stored], length]
        at += stored
    return table


def pack_stored(table: dict) -> bytes:
    """The file of a ``stored_sections`` table, its checksums recomputed."""
    head = bytearray(_HEAD.pack(EngineIndex.MAGIC, EngineIndex.VERSION))
    for name in _SECTIONS:
        width, data, length = table[name]
        head += _ENTRY.pack(width, len(data), length, zlib.crc32(data))
    head += _CRC.pack(zlib.crc32(head))
    return bytes(head) + b"".join(table[name][1] for name in _SECTIONS)


def stored_damage(name, data=None, length=None):
    """A change to the stored stream of one section, or to its declared
    length, each a function of the one before."""

    def apply(table):
        entry = table[name]
        if data is not None:
            entry[1] = data(entry[1])
        if length is not None:
            entry[2] = length(entry[2], len(entry[1]))

    return apply


# the deflated string text of the one-vertex index holds "kxab"; the
# checksums are recomputed after each change
DEFLATE_DAMAGE = {
    "not-a-zlib-stream": (stored_damage("string_text", lambda d: b"kxab" * 4), "not a zlib stream"),
    "runs-past-declared-length": (
        stored_damage("string_text", length=lambda n, stored: n - 1),
        "inflates past its declared length",
    ),
    "stream-cut-short": (stored_damage("string_text", lambda d: d[:-3]), "ends short of its declared length"),
    "declared-longer-than-stream": (
        stored_damage("string_text", length=lambda n, stored: n + 1),
        "ends short of its declared length",
    ),
    "bytes-after-stream": (
        stored_damage("string_text", lambda d: d + b"\x00"),
        "bytes after the zlib stream of index section string_text",
    ),
    "declared-past-deflate-bound": (
        stored_damage("bucket_count", length=lambda n, stored: 1033 * stored),
        "more than its",
    ),
    "declared-past-u64": (stored_damage("edge_degrees", length=lambda n, stored: 2**64 - 1), "more than its"),
    "empty-stream": (stored_damage("bucket_bytes", lambda d: b"", lambda n, stored: 0), "ends short"),
    "stored-section-lengths-differ": (
        stored_damage("payload", length=lambda n, stored: n + 1),
        "section payload declares",
    ),
}


@pytest.mark.parametrize("case", sorted(DEFLATE_DAMAGE))
def test_hostile_deflate_streams_raise_validation_errors(tmp_path, case):
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"k": "a", "x": "b"})], [(0, 0, EMPTY_RECORD)])
    table = stored_sections(prepare(g, ["k"]).to_bytes())
    assert table["string_text"][2] == 4
    assert zlib.decompress(table["string_text"][1]) == b"kxab"
    apply, message = DEFLATE_DAMAGE[case]
    apply(table)
    raw = pack_stored(table)
    path = tmp_path / "hostile.gjix"
    path.write_bytes(raw)
    # neither reader lets zlib.error or an overflow out
    for load in (lambda: EngineIndex.from_bytes(raw), lambda: EngineIndex.load_file(path)):
        with pytest.raises(ValidationError, match=message):
            load()


def test_the_deflated_sections_are_zlib_streams_of_their_declared_length():
    db, left, right, pairs = build_pair(3)
    raw = prepare(left, [pairs[0][0]]).to_bytes()
    stored, inflated = stored_sections(raw), _unpack_sections(raw)
    for name in _SECTIONS:
        width, data, length = stored[name]
        body = zlib.decompress(data) if name in _DEFLATED else data
        assert (width, body) == inflated[name]
        assert len(body) == length
    # an index that no operand pruned flags no bucket
    assert inflated["bucket_incomplete"][1] == bytes(len(inflated["bucket_count"][1]))


def test_a_stream_that_runs_on_allocates_no_more_than_its_declared_length():
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"k": "a"})], [])
    table = stored_sections(prepare(g, ["k"]).to_bytes())
    # 64 MiB of zeros in about 64 KiB, declared as the 2 bytes "ka"
    table["string_text"][1] = zlib.compress(bytes(64 << 20), 9)
    raw = pack_stored(table)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="inflates past its declared length"):
            EngineIndex.from_bytes(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(raw)


def mutated(raw: bytes, data) -> bytes:
    """One truncation, single bit flip or splice of ``raw``."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        return raw[: bit // 8] + bytes([raw[bit // 8] ^ 1 << bit % 8]) + raw[bit // 8 + 1 :]
    lo = data.draw(st.integers(0, len(raw)))
    hi = data.draw(st.integers(lo, min(len(raw), lo + 16)))
    return raw[:lo] + data.draw(st.binary(max_size=16)) + raw[hi:]


def fuzz_operand(seed: int) -> bytes:
    db, left, right, pairs = build_pair(seed)
    return prepare(left, [pairs[0][0]]).to_bytes()


@given(st.integers(0, 40), st.data())
def test_corrupt_index_bytes_raise_only_validation_errors(seed, data):
    raw = fuzz_operand(seed)
    bad = mutated(raw, data)
    try:
        # forces every bucket through decoding
        back = EngineIndex.from_bytes(bad).to_bytes()
    except ValidationError:
        return
    # only an unchanged file may load
    assert bad == raw
    assert back == raw


@given(st.integers(0, 40), st.sampled_from(_SECTIONS), st.data())
def test_corrupt_sections_with_fixed_checksums_raise_only_validation_errors(seed, name, data):
    # the checksums are recomputed after the damage, so the checks
    # behind them have to catch it
    sections = _unpack_sections(fuzz_operand(seed))
    width, body = sections[name]
    if not body:
        return
    sections[name] = (width, mutated(bytes(body), data))
    try:
        back = EngineIndex.from_bytes(_pack_sections(sections)).to_bytes()
    except ValidationError:
        return
    # whatever loads is a well-formed index
    assert EngineIndex.from_bytes(back).to_bytes() == back


# ---------------------------------------------------------------------------
# operands pruned to each other, straight from files


def write_pair(directory, vertex_text, edge_text):
    directory.mkdir()
    vp, ep = directory / "v.csv", directory / "e.tsv"
    vp.write_text(vertex_text, encoding="utf-8")
    ep.write_text(edge_text, encoding="utf-8")
    return str(vp), str(ep)


FILE_CASES = {
    # shared attribute names, so replicas of the repeated (k=a, c=x)
    # payload run on from the left file into the right one; duplicate
    # rows, empty key cells, self-loops, parallel edges, edges into
    # keyless vertices and edges between buckets only one side has
    "shared-names": (
        "id,k,c\n0,a,x\n1,a,x\n2,,x\n3,b,y\n4,z,y\n5,a,x\n6,w,y\n",
        "0\t1\n0\t1\n1\t1\n0\t2\n3\t4\n0\t4\n4\t0\n5\t3\n4\t4\n",
        "id,k,c\n0,a,x\n1,b,\n2,b,\n3,,y\n4,q,x\n5,r,x\n",
        "0\t1\n1\t2\n2\t2\n0\t3\n0\t4\n2\t1\n2\t1\n4\t0\n5\t5\n",
        ("k",),
        ("k",),
    ),
    # the right header has no c column, so no right vertex has a key
    "key-column-missing-on-one-side": (
        "id,k,c\n0,a,x\n1,a,y\n",
        "0\t1\n",
        "id,k\n0,a\n1,a\n",
        "1\t0\n",
        ("k", "c"),
        ("k", "c"),
    ),
    "no-common-bucket": (
        "id,k1\n0,a\n1,b\n2,b\n",
        "0\t1\n1\t2\n2\t2\n",
        "id,k2\n0,c\n1,d\n",
        "0\t1\n1\t0\n",
        ("k1",),
        ("k2",),
    ),
    # the right header orders the same names differently, so its
    # (k=a, c=x) and (k=b, c=y) rows still continue the left's replicas
    "reordered-columns": (
        "id,k,c\n0,a,x\n1,a,x\n2,b,y\n3,c,z\n",
        "0\t1\n1\t2\n2\t3\n3\t0\n",
        "id,c,k\n0,x,a\n1,y,b\n2,x,a\n3,w,d\n",
        "0\t2\n2\t1\n1\t0\n3\t3\n",
        ("k",),
        ("k",),
    ),
    # the right file's extra column is empty on some rows, whose
    # payloads then equal left payloads and continue their replicas
    "extra-column-empty-on-some-rows": (
        "id,k,c\n0,a,x\n1,b,y\n2,a,x\n",
        "0\t1\n1\t2\n",
        "id,k,c,note\n0,a,x,\n1,a,x,n1\n2,b,y,\n3,b,,\n",
        "0\t1\n1\t3\n2\t0\n",
        ("k",),
        ("k",),
    ),
    # a repeated column name binds its last non-empty cell: left row 0
    # has k=b, and rows 1 and 2 are both (k=a, c=x)
    "repeated-column-name": (
        "id,k,c,k\n0,a,x,b\n1,a,x,\n2,,x,a\n3,c,,\n",
        "0\t1\n2\t0\n3\t2\n",
        "id,k\n0,a\n1,b\n2,c\n",
        "0\t1\n1\t2\n",
        ("k",),
        ("k",),
    ),
}


def assert_matches_full_load(out_dir, left_pair, right_pair, keys_a, keys_b, semantics):
    """prepare_files + run_join against load_graph_pair + prepare +
    run_join: same result, counters, bucket statistics, written bytes,
    and the same full-load facts on each operand."""
    db = PropertyGraph()
    left = load_graph_pair(db, *left_pair)
    right = load_graph_pair(db, *right_pair)
    full_ops = (prepare(left, keys_a), prepare(right, keys_b))
    full = run_join(*full_ops, semantics, target_db=db)

    pruned_ops = prepare_files(left_pair, right_pair, keys_a, keys_b)
    pruned = run_join(*pruned_ops, semantics)

    assert raw_signature(pruned) == raw_signature(full)
    assert pruned.counters.as_dict() == full.counters.as_dict()
    assert pruned.bucket_stats == full.bucket_stats
    for p, f in zip(pruned_ops, full_ops):
        assert list(p.bucket_hash) == list(f.bucket_hash)
        assert (p.vertex_max, p.edge_max) == (f.vertex_max, f.edge_max)
        assert (p.skipped_vertices, p.dropped_edges) == (f.skipped_vertices, f.dropped_edges)
        assert p.n_vertices <= f.n_vertices
        assert all(d < p.n_vertices for d in p.edge_dest)
        # a deserialized operand passes the reader's own checks
        EngineIndex.from_bytes(p.to_bytes())

    for name, run in (("full", full), ("pruned", pruned)):
        write_join_result(run, out_dir / name)
    for name in ("vertices.csv", "edges.tsv"):
        assert (out_dir / "pruned" / name).read_bytes() == (out_dir / "full" / name).read_bytes()
    return pruned_ops, pruned


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_prepare_files_matches_full_load(tmp_path, case, semantics):
    lv, le, rv, re_, keys_a, keys_b = FILE_CASES[case]
    left_pair = write_pair(tmp_path / "left", lv, le)
    right_pair = write_pair(tmp_path / "right", rv, re_)
    ops, run = assert_matches_full_load(
        tmp_path, left_pair, right_pair, keys_a, keys_b, semantics
    )
    if case == "shared-names":
        assert len(run.vertices) == 5
        assert run.edges
        # buckets z and q are one-sided and hold only out-edge
        # destinations; w and r keep their hash but no vertex
        a, b = ops
        assert (a.n_vertices, b.n_vertices) == (5, 4)
        assert list(a.bucket_count).count(0) == 1
        assert Element(Record({"k": "a", "c": "x"}), 4) in b.elements
    elif case == "reordered-columns":
        assert len(run.vertices) == 5
        a, b = ops
        assert (a.n_vertices, b.n_vertices) == (4, 3)
        assert Element(Record({"k": "a", "c": "x"}), 4) in b.elements
        assert Element(Record({"k": "b", "c": "y"}), 2) in b.elements
    elif case == "extra-column-empty-on-some-rows":
        assert len(run.vertices) == 6
        a, b = ops
        assert (a.n_vertices, b.n_vertices) == (3, 4)
        assert Element(Record({"k": "a", "c": "x"}), 3) in b.elements
        assert Element(Record({"k": "b", "c": "y"}), 2) in b.elements
    elif case == "repeated-column-name":
        assert len(run.vertices) == 4
        a, b = ops
        assert (a.n_vertices, b.n_vertices) == (4, 3)
        assert Element(Record({"k": "b", "c": "x"}), 1) in a.elements
        assert Element(Record({"k": "a", "c": "x"}), 2) in a.elements
    else:
        assert len(run.vertices) == 0
        assert all(op.n_vertices == 0 for op in ops)


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_prepare_files_matches_full_load_on_random_pairs(tmp_path, semantics):
    for seed in range(40):
        db, left, right, pairs = build_pair(seed)
        d = tmp_path / str(seed)
        d.mkdir()
        file_pairs = []
        for side, graph in (("l", left), ("r", right)):
            vp, ep = str(d / f"{side}.csv"), str(d / f"{side}.tsv")
            write_graph(graph, vp, ep)
            file_pairs.append((vp, ep))
        assert_matches_full_load(d, *file_pairs, [pairs[0][0]], [pairs[0][1]], semantics)


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_prepare_files_matches_full_load_in_one_bucket(tmp_path, case):
    # every key shares bucket 0, so pruning by bucket keeps each keyed
    # vertex and the join alone must tell the keys apart; a loaded
    # bucket decodes lazily, so the reloaded joins run under the patch
    lv, le, rv, re_, keys_a, keys_b = FILE_CASES[case]
    left_pair = write_pair(tmp_path / "left", lv, le)
    right_pair = write_pair(tmp_path / "right", rv, re_)
    plain_ops = prepare_files(left_pair, right_pair, keys_a, keys_b)
    plain = {
        semantics: raw_signature(run_join(*plain_ops, semantics))
        for semantics in (CONJUNCTIVE, DISJUNCTIVE)
    }
    with hashing(lambda kt: 0):
        for semantics in (CONJUNCTIVE, DISJUNCTIVE):
            ops, run = assert_matches_full_load(
                tmp_path / semantics, left_pair, right_pair, keys_a, keys_b, semantics
            )
            assert all(list(op.bucket_hash) in ([], [0]) for op in ops)
            assert raw_signature(run) == plain[semantics]
            loaded = [reloaded_alike(op) for op in ops]
            assert raw_signature(run_join(*loaded, semantics)) == plain[semantics]


@pytest.mark.parametrize("keep_id", [False, True])
@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_reader_rows_make_the_records_the_checking_constructor_makes(tmp_path, case, keep_id):
    lv, le, rv, re_, _, _ = FILE_CASES[case]
    for side, (vertex_text, edge_text) in (("left", (lv, le)), ("right", (rv, re_))):
        pair = write_pair(tmp_path / side, vertex_text, edge_text)
        for names, values in read_graph_rows(*pair, (array("Q"), array("Q")), keep_id=keep_id):
            fast, checked = Record._sorted(names, values), Record(zip(names, values))
            assert fast._items == checked._items
            assert fast._map == checked._map
            assert hash(fast) == hash(checked)


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_directory_triples_read_the_columns(tmp_path, case):
    lv, le, rv, re_, keys_a, keys_b = FILE_CASES[case]
    left_pair = write_pair(tmp_path / "left", lv, le)
    right_pair = write_pair(tmp_path / "right", rv, re_)
    db = PropertyGraph()
    full = (
        prepare(load_graph_pair(db, *left_pair), keys_a),
        prepare(load_graph_pair(db, *right_pair), keys_b),
    )
    pruned = prepare_files(left_pair, right_pair, keys_a, keys_b)
    for f, p in zip(full, pruned):
        for op in (f, p):
            counts = list(op.bucket_count)
            triples = list(zip(op.bucket_hash, accumulate(counts, initial=0), counts))
            assert directory(op) == triples
            # the bytes round-trip from each builder, and from a load
            raw = op.to_bytes()
            loaded = EngineIndex.from_bytes(raw)
            assert directory(loaded) == triples
            assert loaded.to_bytes() == raw
        # pruning keeps every bucket and only drops vertices
        assert list(p.bucket_hash) == list(f.bucket_hash)
        assert all(map(int.__le__, p.bucket_count, f.bucket_count))


def test_prepare_files_flags_the_buckets_outside_the_common_ones(tmp_path):
    lv, le, rv, re_, keys_a, keys_b = FILE_CASES["shared-names"]
    left_pair = write_pair(tmp_path / "left", lv, le)
    right_pair = write_pair(tmp_path / "right", rv, re_)
    a, b = prepare_files(left_pair, right_pair, keys_a, keys_b)
    common = set(a.bucket_hash) & set(b.bucket_hash)
    for op in (a, b):
        assert list(op.bucket_incomplete) == [h not in common for h in op.bucket_hash]
        back = EngineIndex.from_bytes(op.to_bytes())
        assert back.bucket_incomplete == op.bucket_incomplete
    # left: a, b and z are keyed (c is keyless, w only a key), and only
    # a and b are common; right: a, b, q and r
    assert (sum(a.bucket_incomplete), sum(b.bucket_incomplete)) == (2, 2)
    db = PropertyGraph()
    full = prepare(load_graph_pair(db, *left_pair), keys_a)
    assert not any(full.bucket_incomplete)


def file_pair(db, work, name, payloads):
    """The vertex and edge files of a drawn graph, written from ``db``."""
    graph = component_from_payloads(db, *payloads)
    pair = os.path.join(work, f"{name}.csv"), os.path.join(work, f"{name}.tsv")
    write_graph(graph, *pair)
    return pair


def joins_exactly_or_raises(left, right, expected, work):
    """``run_join(left, right)`` raises ``IncompleteBucket`` or gives the
    ``raw_signature`` and written bytes of ``expected``, per semantics."""
    for semantics in (CONJUNCTIVE, DISJUNCTIVE):
        try:
            run = run_join(left, right, semantics)
        except IncompleteBucket:
            continue
        want = run_join(*expected, semantics)
        assert raw_signature(run) == raw_signature(want)
        out = Path(work, semantics)
        assert written(run, out / "run") == written(want, out / "want")


@given(graph_payloads(), graph_payloads(), graph_payloads())
def test_a_pruned_operand_joins_exactly_or_raises(a, b, c):
    # A pruned to B joins C either exactly or not at all, in memory and
    # reloaded, with prepare(C) and with the C operand of
    # prepare_files(A, C); with its own partner it always joins
    with tempfile.TemporaryDirectory() as work:
        db = PropertyGraph()
        pairs = [file_pair(db, work, name, g) for name, g in (("a", a), ("b", b), ("c", c))]
        a_b, b_a = prepare_files(pairs[0], pairs[1], ["k"], ["k"])
        a_c, c_a = prepare_files(pairs[0], pairs[2], ["k"], ["k"])
        # B's and C's replicas continue A's, as they do in prepare_files
        full = []
        for i in (1, 2):
            loaded = PropertyGraph()
            full.append([prepare(load_graph_pair(loaded, *pairs[j]), ["k"]) for j in (0, i)])
        (_, full_b), (full_a, full_c) = full
        for n, pruned in enumerate((a_b, reloaded_alike(a_b))):
            step = os.path.join(work, str(n))
            joins_exactly_or_raises(pruned, full_c, (full_a, full_c), os.path.join(step, "c"))
            joins_exactly_or_raises(pruned, c_a, (a_c, c_a), os.path.join(step, "c-pruned"))
            # its own partner, pruned or in full, never raises
            for partner in (b_a, full_b):
                for semantics in (CONJUNCTIVE, DISJUNCTIVE):
                    assert raw_signature(run_join(pruned, partner, semantics)) == raw_signature(
                        run_join(a_b, b_a, semantics)
                    )


def test_a_pruned_operand_of_the_baseline_raises_with_another_partner(tmp_path):
    # dense-disj-shaped data: 2^10, 30x8 key values.  A pruned to B,
    # saved and loaded, joined with the C operand of prepare_files(A, C),
    # gave 4,270 vertices with no error before the buckets were flagged;
    # A joined with C gives 4,330
    common = dict(scale=10, edge_factor=2, dob_values=30, company_values=8)
    pairs = {
        s: generate(GeneratorParams(seed=s, attr_suffix=str(s), **common), tmp_path, f"g{s}")
        for s in (1, 2, 3)
    }
    keys = {s: [f"dob{s}", f"company{s}"] for s in (1, 2, 3)}
    a_b, b_a = prepare_files(pairs[1], pairs[2], keys[1], keys[2])
    a_b.save(tmp_path / "a_b.gjix")
    a_c, c_a = prepare_files(pairs[1], pairs[3], keys[1], keys[3])
    assert run_join(a_c, c_a, CONJUNCTIVE).n_vertices == 4330
    for pruned in (a_b, EngineIndex.load_file(tmp_path / "a_b.gjix")):
        for semantics in (CONJUNCTIVE, DISJUNCTIVE):
            with pytest.raises(IncompleteBucket, match="incomplete on the left operand"):
                run_join(pruned, c_a, semantics)
            with pytest.raises(IncompleteBucket, match="incomplete on the right operand"):
                run_join(c_a, pruned, semantics)
        assert run_join(pruned, b_a, CONJUNCTIVE).n_vertices == run_join(a_b, b_a).n_vertices


def test_prepare_files_rejects_bad_keys(tmp_path):
    lv, le, rv, re_, _, _ = FILE_CASES["shared-names"]
    left_pair = write_pair(tmp_path / "left", lv, le)
    right_pair = write_pair(tmp_path / "right", rv, re_)
    with pytest.raises(ValidationError):
        prepare_files(left_pair, right_pair, [], ["k"])
    with pytest.raises(SpecMismatch):
        prepare_files(left_pair, right_pair, ["k", "c"], ["k"])


def test_prepare_files_takes_less_than_1_kib_per_vertex_row(tmp_path):
    # the sparse-oneshot key domains, 365x512 key values, at 2^12: most
    # rows are never built, so what the first pass keeps per row sets
    # the peak
    pairs = [
        generate(GeneratorParams(12, s, attr_suffix=str(s)), tmp_path, f"side{s}") for s in (1, 2)
    ]
    tracemalloc.start()
    try:
        a, b = prepare_files(*pairs, ["dob1", "company1"], ["dob2", "company2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (a.skipped_vertices, b.skipped_vertices) == (0, 0)
    assert a.n_vertices + b.n_vertices < 2 * 4096 // 4
    assert peak < 1024 * 2 * 4096


# SHA-256 of to_bytes() for both operands: prepare on build_pair seeds
# 0-4, prepare_files on each FILE_CASES entry.  Ordinals and edge ids
# shape every section of the bytes, so a builder that orders vertices or
# out-edges differently fails here.
FROZEN_PREPARE_DIGESTS = {
    0: (
        "07061aad1da7e314d9b16cab01d7ca4e89a77e1d8cde65595a1bc6f81230df0f",
        "a0003aef88eeb2f7bc510ced45e38fee0a6a6d33eb9fdd34c44ef2894593a63c",
    ),
    1: (
        "ff5d368cd1b07585814d46f7acdad361e66908ebba3e99349669e8435736eb74",
        "0115779d47b1da7752d84243fe010476648e18ca826f6c6c6037854f7f56c5e8",
    ),
    2: (
        "bdb6b8a47b77a01efa34d4bfdfff2606f098022962a7540ccbca665bd6490901",
        "fd5a7e55da2b392c7b4e64f6abb871c190a698d5fa50a041a210bc2c3cdd65b1",
    ),
    3: (
        "4cb689f18cd889d77b7191d5c31ca4853281c6bfb7ec303e2c8c3388e0396d7d",
        "4bca17704fd2649e2cea1cb4f2633a14b4c875263b7b6498f5957316ef6febdf",
    ),
    4: (
        "bd017bcc533cc451dcebf08f9cd7549f12abfadc280a0f5c43c3460f8828d24c",
        "1d0938ba26f56300650cc4d0346c7a183d7e98fb02047c14dc8aa299c15abe63",
    ),
}
FROZEN_PREPARE_FILES_DIGESTS = {
    "key-column-missing-on-one-side": (
        "c09854251405770f6945f70a8c1bfe3f9856c833aa32a26f0934383554e8c23f",
        "22854cc9ea5204c412a05ab50223fe7fcdbafef87f37b3ec2d27544b5bf4f4d7",
    ),
    "no-common-bucket": (
        "a2a30024e76a8796c6449687d666ff09b2349b83cf4991cfccdd632ab0d67f6e",
        "e40c1e12ba303c4472e6f308d27a4ffc6b06ad0de381e7c3f9953bfabec3221f",
    ),
    "reordered-columns": (
        "dafc5ba96b9dd3f32997e22f268d799f2f9decab4c094656ea3ec15bd6418186",
        "21dda85ddf5d04730acfdaa1c2794f5916f858b548e4353f2e60327dcc9da658",
    ),
    "extra-column-empty-on-some-rows": (
        "037ef61af51220d10d6148d72d1365f2543e63aafcd39e5e8200d269e3b163f4",
        "e30da6529af93e18775b53d05b55b7050e1433b60727f492c1fb147109a1a009",
    ),
    "repeated-column-name": (
        "9a35bd35b7b17a0db11be9992bd42031fd6d61e939115f5183beb2d4b900b51a",
        "0126adc63e4340137dc3a0c8efc178c8e9c6684b91ece55252591f4c5292bc85",
    ),
    "shared-names": (
        "e24aee47ca39cd2390f10998088e9e926b9372c158f93dbf7ff3b73a4ad85fb4",
        "52b157fc312f367fc53eb7ea70d3cc140e16b85828a9da0f08db0c802d8645aa",
    ),
}


def test_index_bytes_are_frozen(tmp_path):
    def digests(ops):
        return tuple(hashlib.sha256(op.to_bytes()).hexdigest() for op in ops)

    for seed, frozen in FROZEN_PREPARE_DIGESTS.items():
        db, left, right, pairs = build_pair(seed)
        assert digests((prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]))) == frozen
    for case, frozen in FROZEN_PREPARE_FILES_DIGESTS.items():
        lv, le, rv, re_, keys_a, keys_b = FILE_CASES[case]
        left_pair = write_pair(tmp_path / f"{case}-left", lv, le)
        right_pair = write_pair(tmp_path / f"{case}-right", rv, re_)
        assert digests(prepare_files(left_pair, right_pair, keys_a, keys_b)) == frozen


# SHA-256 of every section's width, length and inflated body, in file
# order, for the same operands.  These do not depend on how the zlib
# build deflates: a zlib that deflates differently fails only the test
# above, a format change fails both.
FROZEN_INFLATED_DIGESTS = {
    0: (
        "1a18783a0d51e4b5cfde5a0642b999bfd84a7be77b981dda31b0b00f59ad9652",
        "451f5b84eade3c624c5abf8322735f9523cbb434406303bc239d703b28c2bbcf",
    ),
    1: (
        "48d5c5fe4bb99971e77251f30a3b2e0c85b6fa3bcdb6dfc1024b98f737b299e3",
        "8f590839dbd02f7a91ddad89c6ca620b83b2a87e337a1cdb07d561981cf1082e",
    ),
    2: (
        "bf0208af6023c4b405f3ac504d97bb54105f31f4836e3666fe9ce40809dc7ffc",
        "499c45492cdb22feaccea8934c4f5f98b9ba2c09e37e1f28422d12eebc9b954f",
    ),
    3: (
        "e26d369daced6e86461a4ddcea36e8350cd83c62de03e4b82e07d3635b3f1edc",
        "304a03abeed90bfa639acfb1355c64c3e014bb37ea9c0853041ac62406414aa2",
    ),
    4: (
        "d03f44a81fac6b36761279594c208986f096d35886383fe3a579f8c66889f73c",
        "2f314e5fe372a7d3df66545d967f3906b305d55a2a1c8d99be4bb75e749e2fca",
    ),
}
FROZEN_INFLATED_FILES_DIGESTS = {
    "key-column-missing-on-one-side": (
        "a4c8e16f3315f5f5b05b653f99ed20581e3ea7533c78a9daeec41278339a5476",
        "1d7902b01fbf0130fcb8c7db2b32a90f9089870993190d9af025ea1be56e4243",
    ),
    "no-common-bucket": (
        "e6be44f6c4939ec792f969790360efb45896154fda893fc2430a236af574f560",
        "6e9e8042f82d96600aec6f72f6a3436da49cfd992a7771500bc67aea9f6e0ebf",
    ),
    "reordered-columns": (
        "2053a7897d327981aa01e764f5acc83eb7c48beceff01f1df7bb0ae66ca22968",
        "a2fa4bda99af7429f1347da617ca251804173ebc3aa396f9a2cc3b899563b8f5",
    ),
    "extra-column-empty-on-some-rows": (
        "09293aaec7bf342e0e25c30918e47f0faad04d7e2c07b69eea33ba7e4491d39b",
        "db236d26ee1c70444e0c619514e4669c0e7115c63264c60cfc42e6feb7beb00a",
    ),
    "repeated-column-name": (
        "41742113299f08d8783f822fa16456bfbb3ed280d51cbfc1b58c91f9e50d4b41",
        "c2b51a8feb9e7e7d48b812360fa2a9a4bebfcc8e577cc4adcc4a1d212be88230",
    ),
    "shared-names": (
        "d4f09b2f9e97a74be35d0b1282f85110a00a687b1de2b56b37b6417a9005d232",
        "ec0a7dce241ab4ab150465d1f3b7afda4c7ab26cbc782f7860648741d5d6df64",
    ),
}


def inflated_digest(raw: bytes) -> str:
    h = hashlib.sha256()
    for width, body in _unpack_sections(raw).values():
        h.update(struct.pack("<BQ", width, len(body)))
        h.update(body)
    return h.hexdigest()


def test_inflated_sections_are_frozen(tmp_path):
    def digests(ops):
        return tuple(inflated_digest(op.to_bytes()) for op in ops)

    for seed, frozen in FROZEN_INFLATED_DIGESTS.items():
        db, left, right, pairs = build_pair(seed)
        assert digests((prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]))) == frozen
    for case, frozen in FROZEN_INFLATED_FILES_DIGESTS.items():
        lv, le, rv, re_, keys_a, keys_b = FILE_CASES[case]
        left_pair = write_pair(tmp_path / f"{case}-left", lv, le)
        right_pair = write_pair(tmp_path / f"{case}-right", rv, re_)
        assert digests(prepare_files(left_pair, right_pair, keys_a, keys_b)) == frozen


# ---------------------------------------------------------------------------
# phase 3: join, frozen on the citation instance


def test_citation_counters_are_frozen(citation_instance):
    db, researcher, citation = citation_instance
    run = run_join(prepare(researcher, ["Name"]), prepare(citation, ["1Author"]), CONJUNCTIVE)
    c = run.counters
    # two singleton buckets in common: each directory match costs one
    # step per side, each bucket scans 1x1 vertices, and the single
    # joined source pair crosses 1x1 out-edges
    assert c.directory_steps == 4
    assert c.bucket_visits == 2
    assert c.vertex_comparisons == 2
    assert c.edge_comparisons == 1
    assert c.disjunction_scans == 0
    assert c.fill_edge_emissions == 0
    assert c.comparison_total == 3


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_citation_engine_matches_reference(citation_instance, semantics):
    db, researcher, citation = citation_instance
    oracle = oracle_join(researcher, citation, [("Name", "1Author")], semantics)
    run = run_join(
        prepare(researcher, ["Name"]), prepare(citation, ["1Author"]), semantics
    )
    assert raw_signature(run) == raw_signature(oracle)
    assert sorted(v.replica for v in run.vertices) == [6, 6]
    assert [e.replica for e in run.edges] == [10]


def test_result_lands_in_a_fresh_database_by_default(citation_instance):
    db, researcher, citation = citation_instance
    run = run_join(prepare(researcher, ["Name"]), prepare(citation, ["1Author"]), CONJUNCTIVE)
    assert run.db is not db
    assert run.graph.vertices == run.vertices
    run.db.validate()


def test_result_can_land_in_the_operand_database(citation_instance):
    db, researcher, citation = citation_instance
    run = run_join(
        prepare(researcher, ["Name"]),
        prepare(citation, ["1Author"]),
        CONJUNCTIVE,
        target_db=db,
    )
    assert run.db is db
    assert db.get_graph(run.component_id).vertices == run.vertices
    db.validate()


def test_mismatched_key_widths_are_rejected(citation_instance):
    db, researcher, citation = citation_instance
    a = prepare(researcher, ["Name", "Name"])
    b = prepare(citation, ["1Author"])
    with pytest.raises(SpecMismatch):
        run_join(a, b)


def test_run_join_validates_arguments(citation_instance):
    db, researcher, citation = citation_instance
    a = prepare(researcher, ["Name"])
    b = prepare(citation, ["1Author"])
    with pytest.raises(ValidationError):
        run_join(a, b, "both")


# ---------------------------------------------------------------------------
# disjunctive semantics


def fill_instance():
    """Left edge whose source pair joins but whose destination pair
    does not bond on the right (the right graph has no edges), so the
    disjunctive run must synthesize exactly one placeholder fill."""
    db = PropertyGraph()
    left = component_from_payloads(
        db,
        [Record({"k": "a"}), Record({"k": "b"})],
        [(0, 1, Record({"w": "x"}))],
        edge_labels=[["E"]],
    )
    right = component_from_payloads(
        db,
        [Record({"k": "a"}), Record({"k": "b"})],
        [],
    )
    return db, left, right


def test_disjunctive_fills_match_reference():
    db, left, right = fill_instance()
    oracle = oracle_join(left, right, [("k", "k")], DISJUNCTIVE)
    run = run_join(prepare(left, ["k"]), prepare(right, ["k"]), DISJUNCTIVE)
    assert raw_signature(run) == raw_signature(oracle)
    assert run.counters.fill_edge_emissions == 1
    assert len(run.edges) == 1
    (fill,) = run.edges
    assert fill.record == Record({"w": "x"})
    assert run.db.edge_labels_of(fill) == frozenset({"E"})
    assert fill.parts[1].synthetic


def test_conjunctive_run_drops_what_disjunctive_fills():
    db, left, right = fill_instance()
    conj = run_join(prepare(left, ["k"]), prepare(right, ["k"]), CONJUNCTIVE)
    assert len(conj.edges) == 0
    assert conj.counters.fill_edge_emissions == 0
    assert conj.counters.disjunction_scans == 0


def test_unbonded_edge_counts_feed_bucket_stats():
    db, left, right = fill_instance()
    run = run_join(prepare(left, ["k"]), prepare(right, ["k"]), DISJUNCTIVE)
    assert sum(s.left_unbonded for s in run.bucket_stats) == 1
    assert sum(s.right_unbonded for s in run.bucket_stats) == 0
    assert run.counters.el_peak == 1
    assert run.counters.er_peak == 0


# ---------------------------------------------------------------------------
# bucket hashing does not change results


def test_bucket_collisions_change_counters_not_results():
    db, left, right, pairs = build_pair(31)
    keys_l, keys_r = [pairs[0][0]], [pairs[0][1]]
    normal = run_join(prepare(left, keys_l), prepare(right, keys_r), DISJUNCTIVE)
    with hashing(lambda kt: 0):
        squashed = run_join(prepare(left, keys_l), prepare(right, keys_r), DISJUNCTIVE)
    assert raw_signature(squashed) == raw_signature(normal)
    assert len(squashed.bucket_stats) <= 1
    assert squashed.counters.vertex_comparisons >= normal.counters.vertex_comparisons


# ---------------------------------------------------------------------------
# the factorized result: edges materialize on demand


def written(run_or_graph, out_dir):
    write_join_result(run_or_graph, out_dir)
    return [(out_dir / name).read_bytes() for name in ("vertices.csv", "edges.tsv")]


def assert_writes_what_it_materializes(run, out_dir):
    """A fresh run writes the bytes it writes once materialized, and the
    bytes its materialized graph writes through endpoint lookups; the
    size it reports up front is the materialized size.  The fresh write
    builds no merged vertex."""
    n_vertices, n_edges = run.n_vertices, run.n_edges
    fresh = written(run, out_dir / "fresh")
    assert not run.materialized
    assert run._vertices is None
    graph = run.graph
    assert run.materialized
    assert written(run, out_dir / "forced") == fresh
    assert written(graph, out_dir / "graph") == fresh
    assert (n_vertices, n_edges) == (len(run.vertices), len(run.edges))
    assert n_edges == len(graph.edges) == fresh[1].count(b"\n")
    run.db.validate()


def fill_numbering_keys(run):
    """(real edge, source mate, destination mate) sort keys of the fills
    in placeholder order: the reference numbers placeholders by them."""
    keyed = []
    for m in run.edges:
        if m.parts is None or not any(p.synthetic for p in m.parts):
            continue
        eps, real = sorted(m.parts, key=lambda p: not p.synthetic)
        v, v2 = run.db.endpoints_of(eps)
        keyed.append((eps.replica, real.sort_key, v.sort_key, v2.sort_key))
    return [key[1:] for key in sorted(keyed)]


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_factorized_result_writes_what_it_materializes(tmp_path, semantics):
    fills = 0
    for seed in range(40):
        db, left, right, pairs = build_pair(seed)
        run = run_join(prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]), semantics)
        assert_writes_what_it_materializes(run, tmp_path / str(seed))
        oracle = oracle_join(left, right, pairs, semantics)
        assert raw_signature(run) == raw_signature(oracle)
        fills += run.counters.fill_edge_emissions
    assert fills > 0 if semantics == DISJUNCTIVE else fills == 0


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_factorized_citation_result_writes_what_it_materializes(
    tmp_path, citation_instance, semantics
):
    db, researcher, citation = citation_instance
    run = run_join(prepare(researcher, ["Name"]), prepare(citation, ["1Author"]), semantics)
    assert_writes_what_it_materializes(run, tmp_path)
    oracle = oracle_join(researcher, citation, [("Name", "1Author")], semantics)
    assert raw_signature(run) == raw_signature(oracle)


def test_fills_of_one_edge_on_both_sides_number_in_reference_order(tmp_path):
    # operands from two databases share edge elements, so one element
    # can be an unbonded edge on both sides; its fills from the two
    # sides interleave in placeholder order
    shared = 0
    for seed in range(60):
        _, g1, _, _ = build_pair(seed)
        _, g2, _, _ = build_pair(seed + 1000)
        run = run_join(prepare(g1, ["k"]), prepare(g2, ["k"]), DISJUNCTIVE)
        assert_writes_what_it_materializes(run, tmp_path / str(seed))
        keys = fill_numbering_keys(run)
        assert keys == sorted(keys)
        lefts = {m.parts[0] for m in run.edges if m.parts[1].synthetic}
        rights = {m.parts[1] for m in run.edges if m.parts[0].synthetic}
        shared += len(lefts & rights)
    assert shared > 0


def reversed_buckets(index):
    """``index`` with the vertices of every bucket in reverse order, their
    out-edges moved along.  A file read back is not checked for that
    order, so a join must not depend on it."""
    moved = list(range(index.n_vertices))
    for _, start, count in directory(index):
        moved[start : start + count] = reversed(moved[start : start + count])
    # reversing is its own inverse: ordinal o now holds moved[o]
    edges = [e for o in moved for e in out_edges(index, o)]
    return replace(
        index,
        elements=tuple(index.elements[o] for o in moved),
        key_values=tuple(index.key_values[o] for o in moved),
        labels=tuple(index.labels[o] for o in moved),
        edge_offsets=array("Q", accumulate((len(out_edges(index, o)) for o in moved), initial=0)),
        edge_dest=array("Q", [moved[index.edge_dest[e]] for e in edges]),
        edge_elements=tuple(index.edge_elements[e] for e in edges),
        edge_labels=tuple(index.edge_labels[e] for e in edges),
    )


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_vertex_order_within_buckets_does_not_change_the_result(tmp_path, semantics):
    multi_mate_fills = 0
    for seed in range(40):
        db, left, right, pairs = build_pair(seed)
        a, b = prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]])
        run = run_join(a, b, semantics)
        back = run_join(reversed_buckets(a), reversed_buckets(b), semantics)
        assert written(back, tmp_path / f"{seed}-reversed") == written(run, tmp_path / str(seed))
        assert raw_signature(back) == raw_signature(run)
        assert back.counters == run.counters
        assert back.bucket_stats == run.bucket_stats
        multi_mate_fills += sum(
            len(fs.src_mates) > 1 or len(fs.dst_mates) > 1 for fs in run._fills
        )
    assert multi_mate_fills > 0 if semantics == DISJUNCTIVE else multi_mate_fills == 0


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_joined_vertices_are_built_in_canonical_order(semantics):
    # they skip the indexed set's sort, so the sorting constructor must
    # find them in its order already
    for seed in range(40):
        db, left, right, pairs = build_pair(seed)
        run = run_join(prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]), semantics)
        merged = run.vertices.elements
        assert run.vertices == IndexedSet(reversed(merged))
        assert IndexedSet._canonical(merged) == IndexedSet(merged)
        if merged:
            with pytest.raises(ValidationError, match="duplicate"):
                IndexedSet._canonical(merged + merged[:1])


def test_a_failed_materialization_raises_its_error_again():
    db, left, right = fill_instance()
    a, b = prepare(left, ["k"]), prepare(right, ["k"])
    run_join(a, b, CONJUNCTIVE, target_db=db).db
    # the disjunctive result has fills and the conjunctive one's
    # vertices, which the database already holds: its placeholders are
    # attached before registering its vertices fails
    run = run_join(a, b, DISJUNCTIVE, target_db=db)
    assert run.counters.fill_edge_emissions > 0
    for _ in range(2):
        with pytest.raises(ValidationError, match="vertex .* already exists"):
            run.db
    assert not run.materialized


def test_fills_with_equal_sort_keys_number_in_discovery_order(tmp_path):
    # the operands share a real edge and the vertices its ends join
    # with, so two of its fills tie on (real edge, source mate,
    # destination mate); the reference numbers tied fills in the order
    # the disjunctive pass finds them, which gives these rows
    _, g1, _, _ = build_pair(133)
    _, g2, _, _ = build_pair(1133)
    run = run_join(prepare(g1, ["k"]), prepare(g2, ["k"]), DISJUNCTIVE)
    rows = [
        (3, 3), (3, 2), (2, 1), (3, 1), (4, 1), (3, 3), (3, 3), (2, 3), (2, 2), (2, 1), (3, 1),
        (4, 1), (0, 3), (1, 3), (4, 3), (0, 2), (1, 2), (2, 0), (3, 0), (4, 0), (4, 2),
    ]
    assert written(run, tmp_path)[1] == b"".join(b"%d\t%d\r\n" % row for row in rows)
    assert_writes_what_it_materializes(run, tmp_path / "again")


def test_fill_order_takes_memory_per_fill_set_not_per_fill():
    # the dense-disj data: generated 2^10 graphs with 30x8 key values
    db = PropertyGraph()
    params = [
        GeneratorParams(10, s, dob_values=30, company_values=8, attr_suffix=str(s)) for s in (1, 2)
    ]
    a, b = (prepare(build_graph(db, p), [f"dob{s}", f"company{s}"]) for p, s in zip(params, (1, 2)))
    run = run_join(a, b, DISJUNCTIVE)
    n_sets, n_fills = len(run._fills), run.counters.fill_edge_emissions
    assert (n_sets, n_fills) == (3933, 70396)
    tracemalloc.start()
    try:
        next(iter(run.edge_rows()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n_sets
    assert peak < 64 * n_fills


def test_join_takes_memory_per_result_vertex_not_per_merged_record():
    # the dense-disj data: generated 2^10 graphs with 30x8 key values
    db = PropertyGraph()
    params = [
        GeneratorParams(10, s, dob_values=30, company_values=8, attr_suffix=str(s)) for s in (1, 2)
    ]
    a, b = (prepare(build_graph(db, p), [f"dob{s}", f"company{s}"]) for p, s in zip(params, (1, 2)))
    tracemalloc.start()
    try:
        run = run_join(a, b, DISJUNCTIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.n_vertices == 4371
    assert peak < 1024 * run.n_vertices


def colliding_pairs():
    """Operands whose vertices both hold one payload twice, replicas 1
    and 2, so the pairs (x1, y2) and (x2, y1) merge into one (payload,
    replica) value, with edges and labels that tell the two apart."""
    db = PropertyGraph()
    left = component_from_payloads(
        db,
        [Record({"k": "a", "l": "x"})] * 2 + [Record({"k": "b", "l": "x"})],
        [(0, 1, EMPTY_RECORD), (1, 2, EMPTY_RECORD), (2, 0, Record({"w": "p"}))],
        vertex_labels=[["L1"], ["L2"], ["L3"]],
        edge_labels=[["E"], ["F"], ["G"]],
    )
    right = component_from_payloads(
        db,
        [Record({"k": "a", "r": "y"})] * 2 + [Record({"k": "b"})],
        [(1, 0, EMPTY_RECORD), (0, 2, EMPTY_RECORD), (2, 2, EMPTY_RECORD)],
        vertex_labels=[["R1"], ["R2"], ["R3"]],
    )
    return left, right


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_colliding_merges_keep_the_least_operand_tree(tmp_path, semantics):
    left, right = colliding_pairs()
    a, b = prepare(left, ["k"]), prepare(right, ["k"])
    run = run_join(a, b, semantics)
    back = run_join(reversed_buckets(a), reversed_buckets(b), semantics)
    for r in (run, back):
        # (x1, y1), (x2, y2), one of (x1, y2) and (x2, y1), and (x3, y3)
        assert (r.n_vertices, r.counters.vertex_comparisons) == (4, 5)
        # the least decomposition key keeps (x1, y2), in either scan order
        kept = [(x.replica, y.replica) for x, y in r.vertex_operands()]
        assert sorted(kept) == [(1, 1), (1, 1), (1, 2), (2, 2)]
    assert_writes_what_it_materializes(run, tmp_path / "run")
    assert_writes_what_it_materializes(back, tmp_path / "back")
    assert written(back, tmp_path / "back-again") == written(run, tmp_path / "run-again")
    assert raw_signature(run) == raw_signature(oracle_join(left, right, [("k", "k")], semantics))
    assert raw_signature(back) == raw_signature(run)


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_disjunctive_chains_write_what_they_materialize(tmp_path, semantics):
    # the left operand of the second join holds fill edges of the first
    refilled = 0
    for seed in range(60):
        _, a, b, c = build_triple(seed)
        ab = run_join(prepare(a, ["k"]), prepare(b, ["k"]), DISJUNCTIVE)
        run = run_join(prepare(ab.graph, ["k"]), prepare(c, ["k"]), semantics)
        assert_writes_what_it_materializes(run, tmp_path / str(seed))
        _, a, b, c = build_triple(seed)
        ab = oracle_join(a, b, [("k", "k")], DISJUNCTIVE)
        oracle = oracle_join(ab.graph, c, [("k", "k")], semantics)
        assert raw_signature(run) == raw_signature(oracle)
        refilled += sum(any(p.synthetic for p in fs.element.parts or ()) for fs in run._fills)
    assert refilled > 0 if semantics == DISJUNCTIVE else refilled == 0


def test_writing_and_sizing_a_result_does_not_materialize_it(tmp_path):
    db, left, right, pairs = build_pair(3)
    run = run_join(prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]), DISJUNCTIVE)
    assert run.counters.fill_edge_emissions == 35
    write_join_result(run, tmp_path)
    explain(run)
    assert (len(run.vertices), run.n_edges) == (9, 39)
    assert not run.materialized
    run.db
    assert run.materialized
    assert len(run.edges) == 39


# ---------------------------------------------------------------------------
# cost reports


def test_cost_report_bounds_hold_and_vertex_bound_is_tight():
    db, left, right, pairs = build_pair(17)
    run = run_join(prepare(left, [pairs[0][0]]), prepare(right, [pairs[0][1]]), DISJUNCTIVE)
    report = explain(run)
    assert report.within_bounds()
    # the vertex phase scans every bucket pair exhaustively, and the
    # disjunction pass charges exactly the opposite bucket per unbonded
    # edge, so those two bounds are met with equality
    assert report.measured["vertex_comparisons"] == report.vertex_bound
    assert report.measured["disjunction_scans"] == report.scan_bound
    assert report.measured["edge_comparisons"] <= report.edge_bound


def test_cost_report_renders_all_counters(citation_instance):
    db, researcher, citation = citation_instance
    run = run_join(prepare(researcher, ["Name"]), prepare(citation, ["1Author"]), CONJUNCTIVE)
    text = explain(run).render()
    for name in run.counters.as_dict():
        assert name in text
    assert "bound" in text


# ---------------------------------------------------------------------------
# randomized parity with the reference implementation


@pytest.mark.parametrize("semantics", [CONJUNCTIVE, DISJUNCTIVE])
def test_engine_matches_reference_on_random_instances(semantics):
    for seed in range(60):
        assert check_oracle_engine(seed, semantics) is None


def test_engine_self_join_matches_reference():
    db, left, right, pairs = build_pair(2)
    oracle = oracle_join(left, left, [("k", "k")], CONJUNCTIVE)
    a = prepare(left, ["k"])
    run = run_join(a, a, CONJUNCTIVE)
    assert raw_signature(run) == raw_signature(oracle)
