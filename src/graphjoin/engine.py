"""Hash-bucketed equi-join engine with observable costs.

The reference join in ``logical.py`` is quadratic in everything.  This
engine computes the same result for equality conditions in two phases,
each independently usable:

1. **Prepare** (:func:`prepare`): index one graph component on its join
   attributes in one pass.  Vertices are bucketed by the hash of their
   key values and numbered by ordinal in bucket order; out-edges are
   numbered by source ordinal and held as columns in CSR form (offsets
   per ordinal, then destination, element and labels per edge).
   Vertices missing a join attribute are skipped; edges touching a
   skipped endpoint are dropped (they can never bond and never find a
   joined partner, so the result is unaffected).  :func:`prepare`,
   :func:`prepare_files` and a loaded index's bucket decoder share one
   bucket hash, the module global :func:`stable_hash`, so patching it
   forces collisions on every path.  The result is an
   :class:`EngineIndex`, which also serializes to a stable binary
   format, GJIX version 8 (:meth:`EngineIndex.to_bytes`, the module
   ``gjix``), so one side of a repeated join can be prepared once and
   reused.  An index read back (:meth:`EngineIndex.load_file`,
   :meth:`EngineIndex.from_bytes`) keeps the file's int columns and
   string text; it decodes a bucket's vertices and edges, and the
   strings they use, only when the join first touches that bucket.

   :func:`prepare_files` is the pruned variant for a one-off join of two
   file pairs: it reads both pairs, intersects their bucket hashes, and
   builds only the part of each operand the join can reach.  Each
   operand flags the buckets it holds only in part, and a join raises
   :class:`IncompleteBucket` when a bucket both sides hold is flagged on
   either, so a pruned operand never joins silently wrong with a
   partner it was not pruned to.
2. **Join** (:func:`run_join`): merge the two directories, scan common
   buckets pairwise for joined vertices, then cross the out-edge ranges
   of joined source pairs for bonded edges.  The disjunctive variant
   additionally finds edges that bonded with nothing; each of them
   fills in once per pair of vertices its source and its destination
   joined with, merged with a placeholder edge, exactly as in the
   reference implementation.

The join result is late-materialized.  :func:`run_join` returns with
every phase done and every counter final, the bonded edges built as
elements, and the rest as ints: each joined vertex as its left
ordinal, right ordinal and replica, in canonical order, and the fills
factorized, per unbonded edge, as the ints that name its source and
destination mates.  The vertex and edge counts are exact at that
point.  The result writer writes each vertex row from the vertex's two
operand records and streams edge rows from the factorized form
(:meth:`EngineRun.vertex_operands`, :meth:`EngineRun.edge_rows`).  The
merged vertices are built only when a caller first asks for
``vertices``; the fill and placeholder elements, the edge set and the
result's database component only when it first asks for ``edges``,
``db``, ``graph`` or ``component_id``.

The writer and materialization take the fills in placeholder order
from one stream that holds nothing per fill: the fill sets sorted by real edge, and
within a set the product of its source mates and its destination
mates, each sorted once.  Sets that share a real edge are merged on
their mates as they are read.  Writing a result therefore takes memory
per fill set, not per fill.

Every unit of work the join performs is counted in
:class:`OpCounters`:

* ``vertex_comparisons`` is exactly the sum over common buckets of the
  two bucket sizes multiplied;
* ``edge_comparisons`` counts out-edge pairs inspected under joined
  source pairs, bounded by the per-bucket product of total out-degrees;
* ``disjunction_scans`` charges, per unbonded edge, the size of the
  opposite bucket: the cost model's scan for the edge's mates.  The
  disjunctive pass itself looks the mates up, so this is the modelled
  cost, not work the pass performs.

Per-bucket sizes are reported in ``bucket_stats`` so callers can check
the measured counters against the cost model themselves
(:func:`explain` does that rendering).

Determinism: identical inputs produce identical results, counters, and
serialized bytes.  Replica indices for merged elements are computed
from the largest replica of each operand's full index universes, which
the index stores (skipped vertices and dropped edges still occupy their
indices).
"""

from __future__ import annotations

import heapq
import io
import os
import struct
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from itertools import accumulate, chain, compress, count, groupby, islice, product, repeat
from operator import attrgetter, getitem, itemgetter, ne, not_, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

try:
    # the module hashlib takes it from, without loading OpenSSL
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - a build without the module
    from hashlib import blake2b

from . import gjix
from .gjix import _NO_LABELS, _narrowest
from .graphio import read_graph_rows
from .logical import CONJUNCTIVE, DISJUNCTIVE
from .model import (
    EMPTY_RECORD,
    Element,
    Graph,
    IncompleteBucket,
    IndexedSet,
    PropertyGraph,
    Record,
    SpecMismatch,
    ValidationError,
    _bulk,
    _pair_index,
    fresh_fill_start,
    pick_canonical,
)

__all__ = [
    "stable_hash",
    "prepare",
    "prepare_files",
    "EngineIndex",
    "OpCounters",
    "BucketStat",
    "EngineRun",
    "run_join",
    "explain",
    "CostReport",
]

_HASH_KEY = b"graphjoin.bucket.v1"
# every hash starts from a copy of this keyed state, which is never updated
_HASH_STATE = blake2b(digest_size=8, key=_HASH_KEY)
_U32 = struct.Struct("<I").pack


def stable_hash(values: tuple[str, ...]) -> int:
    """Keyed 64-bit hash of a key-value tuple, stable across runs and
    platforms.  Values are length-prefixed so ("ab","c") and ("a","bc")
    differ."""
    data = b""
    for v in values:
        raw = v.encode("utf-8")
        data += _U32(len(raw)) + raw
    h = _HASH_STATE.copy()
    h.update(data)
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# phase 1: prepare


class EngineIndex:
    """One prepared operand, in a serializable form.

    Vertices are numbered by ordinal in directory order (ascending
    bucket hash, then key, then element identity).  The directory is
    held as columns, one item per bucket: ``bucket_hash``, strictly
    ascending, ``bucket_count``, its vertex count, and
    ``bucket_incomplete``, a byte that is 1 where the bucket lacks some
    of its vertices (only in an operand of :func:`prepare_files`, see
    there); a bucket's first ordinal, ``bucket_start``, is the sum of
    the counts before it, summed up once when the index is built.  ``elements``,
    ``key_values`` and ``labels`` are indexed by ordinal.  Out-edges
    are held in CSR form, as in the file: the out-edges of ordinal
    ``o`` have the edge ids ``edge_offsets[o]`` to
    ``edge_offsets[o + 1]``, ascending by destination ordinal, replica
    and payload, and ``edge_dest``, ``edge_elements`` and
    ``edge_labels`` are indexed by edge id.

    The directory, ``edge_offsets`` and ``edge_dest`` are int arrays,
    and an index built in memory holds its other columns as tuples.
    One read back with :meth:`from_bytes` keeps the columns
    :func:`gjix.read` gives; its other columns are sequence views of
    one bucket decoder, which reads the directory, CSR offsets and keys
    from this index.  The first access to an ordinal or an edge id
    decodes its whole bucket, one ``(element, key tuple, labels)`` row
    per vertex and one ``(element, labels)`` row per out-edge, and
    slices out the strings they use, each once, so a join pays only for
    the buckets it visits (``decoded_buckets`` counts them); ``n_edges``
    decodes nothing.

    ``vertex_max`` and ``edge_max`` are the largest replicas of the
    operand's vertex and edge index universes, 0 for an empty one; the
    universes cover skipped vertices and dropped edges too.
    """

    __slots__ = (
        "keys",
        "elements",
        "key_values",
        "labels",
        "edge_offsets",
        "edge_dest",
        "edge_elements",
        "edge_labels",
        "bucket_hash",
        "bucket_count",
        "bucket_incomplete",
        "bucket_start",
        "vertex_max",
        "edge_max",
        "skipped_vertices",
        "dropped_edges",
        "_payload",
    )

    def __init__(
        self,
        keys: tuple[str, ...],
        elements: Sequence[Element],
        key_values: Sequence[tuple[str, ...]],
        labels: Sequence[frozenset],
        edge_offsets: Sequence[int],
        edge_dest: Sequence[int],
        edge_elements: Sequence[Element],
        edge_labels: Sequence[frozenset],
        bucket_hash: Sequence[int],
        bucket_count: Sequence[int],
        bucket_incomplete: bytes,
        vertex_max: int,
        edge_max: int,
        skipped_vertices: int,
        dropped_edges: int,
    ):
        self.keys = keys
        self.elements = elements
        self.key_values = key_values
        self.labels = labels
        self.edge_offsets = edge_offsets
        self.edge_dest = edge_dest
        self.edge_elements = edge_elements
        self.edge_labels = edge_labels
        self.bucket_hash = bucket_hash
        self.bucket_count = bucket_count
        self.bucket_incomplete = bucket_incomplete
        self.bucket_start = _starts(bucket_count)
        self.vertex_max = vertex_max
        self.edge_max = edge_max
        self.skipped_vertices = skipped_vertices
        self.dropped_edges = dropped_edges
        self._payload: Optional[_LazyPayload] = None

    @property
    def n_vertices(self) -> int:
        return len(self.elements)

    @property
    def n_edges(self) -> int:
        return len(self.edge_dest)

    @property
    def decoded_buckets(self) -> int:
        """Buckets whose vertices and edges have been decoded; every
        bucket of an index built in memory."""
        if self._payload is None:
            return len(self.bucket_hash)
        return self._payload.done.count(1)

    # -- serialization, format GJIX version 8 (see the module gjix)

    MAGIC = gjix.MAGIC
    VERSION = gjix.VERSION

    def to_bytes(self) -> bytes:
        """Serialize; on an index read back from bytes this decodes
        every bucket that holds vertices first."""
        # classes and each attribute's values are numbered in order of
        # first use, which a read-back index repeats, so the bytes
        # round-trip exactly; a dict keeps its values in id order
        values: dict[str, dict[str, int]] = {}
        classes = [((), (), _NO_LABELS)]
        class_of = {}

        def element(el: Element, labels: frozenset, class_ids: list, value_ids: list) -> None:
            attrs, vals = zip(*el.record.items) if el.record.items else ((), ())
            key = (attrs, labels)
            entry = class_of.get(key)
            if entry is None:
                dictionaries = [values.setdefault(a, {}) for a in attrs]
                entry = class_of[key] = len(classes), dictionaries
                classes.append((attrs, dictionaries, labels))
            code, dictionaries = entry
            class_ids.append(code)
            value_ids += [d.setdefault(v, len(d)) for d, v in zip(dictionaries, vals)]

        offsets = self.edge_offsets
        edges = zip(self.edge_elements, self.edge_labels)
        vertex_class, vertex_values, edge_class, edge_values = [], [], [], []
        # a vertex binds its keys, so only an edge can be of class 0
        for el, labs, degree in zip(self.elements, self.labels, map(sub, offsets[1:], offsets)):
            element(el, labs, vertex_class, vertex_values)
            for ee, elabs in islice(edges, degree):
                if ee.record.items or elabs:
                    element(ee, elabs, edge_class, edge_values)
                else:
                    # class 0 is the empty record with no labels
                    edge_class.append(0)
        tables = []
        for els, class_ids, value_ids, top in (
            (self.elements, vertex_class, vertex_values, self.vertex_max),
            (self.edge_elements, edge_class, edge_values, self.edge_max),
        ):
            replicas = [el.replica for el in els]
            base = min(replicas, default=0)
            tables.append(gjix.Table([r - base for r in replicas], class_ids, value_ids, base, top))
        columns = gjix.Columns(
            self.keys, self.skipped_vertices, self.dropped_edges, classes, *tables,
            self.bucket_hash, self.bucket_count, self.bucket_incomplete, offsets, self.edge_dest
        )
        return gjix.write(columns)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EngineIndex":
        """Read an index back from its bytes, as :meth:`load_file` reads
        it from a file."""
        return cls._read(gjix.read(io.BytesIO(raw).read, len(raw)))

    @classmethod
    def _read(cls, columns: gjix.Columns) -> "EngineIndex":
        """The index of ``columns`` read back; buckets are decoded on
        first access."""
        lazy = _LazyPayload(columns)
        nverts, nedges = len(columns.vertex.replica), len(columns.edge.replica)
        index = cls(
            # without a key, every bucket would join as a cross product
            _check_keys(columns.keys),
            _LazyColumn(lazy.vertices, 0, nverts, lazy.decode_ordinal),
            _LazyColumn(lazy.vertices, 1, nverts, lazy.decode_ordinal),
            _LazyColumn(lazy.vertices, 2, nverts, lazy.decode_ordinal),
            columns.edge_offsets,
            columns.edge_dest,
            _LazyColumn(lazy.edges, 0, nedges, lazy.decode_edge),
            _LazyColumn(lazy.edges, 1, nedges, lazy.decode_edge),
            columns.bucket_hash,
            columns.bucket_count,
            columns.bucket_incomplete,
            columns.vertex.top,
            columns.edge.top,
            columns.skipped_vertices,
            columns.dropped_edges,
        )
        lazy.index = index
        index._payload = lazy
        return index

    def save(self, path) -> None:
        """Write the index to ``path`` through a temporary file in the
        same directory, so a write that fails part way leaves the file
        that was there before as it was."""
        raw = self.to_bytes()
        tmp = f"{os.fsdecode(path)}.{os.urandom(6).hex()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(raw)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load_file(cls, path) -> "EngineIndex":
        """Read an index back from ``path``, one section at a time, so
        the file and the columns read from it are never held together."""
        with open(path, "rb") as fh:
            return cls._read(gjix.read(fh.read, os.fstat(fh.fileno()).st_size))


def _starts(counts) -> array:
    """Each bucket's first ordinal, where the ones before it end, as narrow as the offsets."""
    return array(_narrowest(sum(counts)), map(sub, accumulate(counts), counts))


class _LazyPayload:
    """The ordinal and edge columns of a deserialized index, filled one
    bucket at a time.

    ``vertex``, ``edge`` and ``classes`` are those of the index's
    :class:`gjix.Columns`: the vertex and edge tables and each class's
    attribute names, their value dictionaries and its label set.  Their
    structure was checked at load, so a record is built without checking
    or sorting its names again.  The directory, the CSR offsets and the
    keys are read from ``index``, the index these columns belong to, set
    once it is built.  A vertex's key values come from its record.

    ``vertices`` holds an ``(element, key tuple, labels)`` row per
    decoded ordinal and ``edges`` an ``(element, labels)`` row per
    decoded edge id.
    """

    __slots__ = ("classes", "vertex", "edge", "index", "vertices", "edges", "done")

    def __init__(self, columns: gjix.Columns):
        self.classes, self.vertex, self.edge = columns.classes, columns.vertex, columns.edge
        self.index: Optional[EngineIndex] = None
        self.vertices, self.edges = {}, {}
        self.done = bytearray(len(columns.bucket_hash))

    def decode_ordinal(self, o: int) -> None:
        # the last bucket starting at or before o; an empty bucket
        # shares its start with the next one, so it is never picked
        self.decode(bisect_right(self.index.bucket_start, o) - 1)

    def decode_edge(self, e: int) -> None:
        # its source: the last ordinal whose out-edges start at or
        # before e, so never one without out-edges
        self.decode_ordinal(bisect_right(self.index.edge_offsets, e) - 1)

    def decode(self, b: int) -> None:
        index = self.index
        start, end = index.bucket_start[b], index.bucket_start[b] + index.bucket_count[b]
        keys, edge_offsets = index.keys, index.edge_offsets
        try:
            vertices = [
                (el, tuple([el.record[k] for k in keys]), labs)
                for el, labs in self._elements(self.vertex, start, end)
            ]
        except KeyError as exc:
            raise ValidationError(f"a record in bucket {b} lacks join key {exc.args[0]!r}") from exc
        edges = self._elements(self.edge, edge_offsets[start], edge_offsets[end])
        h = index.bucket_hash[b]
        for kvs in {row[1] for row in vertices}:
            if stable_hash(kvs) != h:
                raise ValidationError(f"key {kvs!r} does not hash to its bucket {h:#x}")
        self.vertices.update(zip(range(start, end), vertices))
        self.edges.update(zip(range(edge_offsets[start], edge_offsets[end]), edges))
        self.done[b] = 1

    def _elements(self, table: gjix.Table, lo: int, hi: int) -> list:
        """``(element, labels)`` for positions ``lo`` to ``hi`` of the
        vertex or edge ``table``."""
        replicas, class_ids, values, at = table.replica, table.class_ids, table.values, table.starts
        base = table.base
        # a replica past its universe's maximum would fold into another
        # merged element's replica
        if max(replicas[lo:hi], default=0) + base > table.top:
            raise ValidationError("a replica exceeds its universe's maximum")
        classes = self.classes
        rows = []
        ids = repeat(class_ids) if isinstance(class_ids, int) else class_ids[lo:hi]
        for replica, c, i, j in zip(replicas[lo:hi], ids, at[lo:hi], at[lo + 1 : hi + 1]):
            names, dictionaries, labels = classes[c]
            rec = Record._sorted(names, map(getitem, dictionaries, values[i:j])) if names else EMPTY_RECORD
            rows.append((Element(rec, replica + base), labels))
        return rows


class _LazyColumn(Sequence):
    """One ordinal or edge column of a deserialized index, of length
    ``n``: item ``field`` of each row of ``rows``, which holds the rows
    of the decoded positions.  Reading a position decodes its bucket on
    first access; ``decode`` decodes the bucket of a position."""

    __slots__ = ("_rows", "_field", "_n", "_decode")

    def __init__(self, rows: dict, field: int, n: int, decode: Callable[[int], None]):
        self._rows = rows
        self._field = field
        self._n = n
        self._decode = decode

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(self._n)[i]))
        row = self._rows.get(i)
        if row is None:
            # raises the IndexError a tuple raises
            i = range(self._n)[i]
            self._decode(i)
            row = self._rows[i]
        return row[self._field]


def _check_keys(keys: Iterable[str]) -> tuple[str, ...]:
    keys = tuple(keys)
    if not keys or any(not isinstance(k, str) or not k for k in keys):
        raise ValidationError("join keys must be a non-empty sequence of attribute names")
    return keys


def _index_operand(keys, vertices, incomplete, edges, vertex_max, edge_max, skipped) -> EngineIndex:
    """The index of one operand, in one sort of its vertices and one of
    its edges.

    ``vertices`` yields ``(tag, bucket hash, key tuple, element, labels)``
    per vertex, in any order; a tag names one vertex within the call.
    ``incomplete`` holds the hashes of buckets that lack some of their
    vertices; the directory lists them, and flags them, even when no
    vertex falls in them.  ``edges`` yields ``(source tag, destination
    tag, element, labels)`` per edge; an edge with an endpoint that is
    not among ``vertices`` is dropped and counted.

    Ordinals follow the bucket hash, then the key tuple, then the
    element's sort key.  Edge ids follow the source ordinal, then the
    destination ordinal, replica and payload, then the order of
    ``edges``.
    """
    # sort keys hold only ints and strings, so the collector stops
    # tracking them: building an index of any size leaves no pile of
    # promoted objects that brings on a full collection later
    tags, vertex_keys, elements, labels = [], [], [], []
    for tag, h, kt, element, labs in vertices:
        tags.append(tag)
        vertex_keys.append((h, kt, element.sort_key))
        elements.append(element)
        labels.append(labs)
    order = sorted(range(len(tags)), key=vertex_keys.__getitem__)
    ordinal = {tags[v]: o for o, v in enumerate(order)}
    sizes = Counter([h for h, _, _ in vertex_keys])
    bucket_hash = array("Q", sorted(sizes.keys() | incomplete))

    edge_keys, edge_elements, edge_labels = [], [], []
    dropped = 0
    degree = [0] * (len(tags) + 1)
    for src, dst, element, labs in edges:
        so, do = ordinal.get(src), ordinal.get(dst)
        if so is None or do is None:
            dropped += 1
        else:
            edge_keys.append((so, do, element.replica, element.record.items))
            edge_elements.append(element)
            edge_labels.append(labs)
            degree[so + 1] += 1
    # stable, so ties keep the order of edges
    edge_order = sorted(range(len(edge_keys)), key=edge_keys.__getitem__)

    return EngineIndex(
        keys,
        tuple([elements[v] for v in order]),
        tuple([vertex_keys[v][1] for v in order]),
        tuple([labels[v] for v in order]),
        array("Q", accumulate(degree)),
        array("Q", [edge_keys[e][1] for e in edge_order]),
        tuple([edge_elements[e] for e in edge_order]),
        tuple([edge_labels[e] for e in edge_order]),
        bucket_hash,
        array("Q", [sizes[h] for h in bucket_hash]),
        bytes([h in incomplete for h in bucket_hash]),
        vertex_max,
        edge_max,
        skipped,
        dropped,
    )


@_bulk()
def prepare(graph: Graph, keys: Iterable[str]) -> EngineIndex:
    """Index one component on the join attributes ``keys``.

    Vertices are bucketed by :func:`stable_hash` of their key values; a
    vertex missing one is skipped, and an edge touching a skipped
    vertex is dropped."""
    keys = _check_keys(keys)
    db = graph.db
    key_of = [tuple([v.record.get(k) for k in keys]) for v in graph.vertices]
    # one hash per distinct key tuple
    hash_of = {kt: stable_hash(kt) for kt in set(key_of) if None not in kt}
    return _index_operand(
        keys,
        (
            (v, hash_of[kt], kt, v, db.vertex_labels_of(v))
            for v, kt in zip(graph.vertices, key_of)
            if None not in kt
        ),
        frozenset(),
        ((*db.endpoints_of(e), e, db.edge_labels_of(e)) for e in graph.edges),
        max(graph.vertices.universe, default=0),
        max(graph.edges.universe, default=0),
        sum(None in kt for kt in key_of),
    )


@_bulk()
def prepare_files(left_pair, right_pair, keys_a, keys_b) -> tuple[EngineIndex, EngineIndex]:
    """Both operands of a join of two vertex/edge file pairs, read
    straight from the files and pruned to each other (a semi-join
    reduction: only buckets whose hash occurs on both sides can join).

    Pass 1 streams the four files through the reader
    :func:`graphio.load_graph_pair` uses, in the order left vertices,
    left edges, right vertices, right edges, so it raises what that
    raises.  It hashes each distinct key tuple once and keeps per
    vertex row only the reader's payload identity (a shared tuple of
    names and a tuple of interned cells), its replica in an int array
    and its bucket hash, an int shared by the rows of its key; each
    edge file becomes two int arrays of row positions.  Pass 2 builds,
    with vertices tagged by row number, only the vertices of buckets
    found on both sides, the destinations of their out-edges and those
    out-edges, each vertex's record from its payload identity.

    :func:`run_join` on the pair gives the result, counters and bucket
    statistics it gives on ``prepare`` of both pairs loaded into one
    database.  Replicas are counted database-wide, left rows first; the
    largest vertex and edge replicas and the skipped and dropped counts
    cover every row of a side (its edge maximum is 0 when it has no edge
    rows); every bucket hash of a side stays in its directory, with
    count 0 unless it holds an out-edge destination.

    Each operand lacks what the other makes irrelevant, and flags as
    incomplete every bucket outside the common ones.  It saves and
    loads, and it joins exactly with its own partner and with
    :func:`prepare` of that partner's graph.  With any other partner,
    :func:`run_join` raises :class:`IncompleteBucket` if a bucket both
    sides hold is incomplete on either, and is exact otherwise; use
    :func:`prepare` for an operand of several joins.
    """
    keys_a = _check_keys(keys_a)
    keys_b = _check_keys(keys_b)
    if len(keys_a) != len(keys_b):
        raise SpecMismatch(f"key widths differ: {keys_a} vs {keys_b}")

    # pass 1: validate every row, number replicas, hash key tuples;
    # keep per row its payload identity, its replica and its bucket hash
    hashes: dict[tuple[str, ...], int] = {}
    vertex_mu: dict[tuple, int] = {}
    sides = []
    edge_base = 0
    for (vertex_path, edge_path), keys in ((left_pair, keys_a), (right_pair, keys_b)):
        payloads, replicas, hash_of = [], array("Q"), []
        ends = array("Q"), array("Q")
        # per payload shape, the positions of the keys, () without one
        key_at: dict[tuple[str, ...], tuple[int, ...]] = {}
        for payload in read_graph_rows(vertex_path, edge_path, ends):
            r = vertex_mu.get(payload, 0) + 1
            vertex_mu[payload] = r
            payloads.append(payload)
            replicas.append(r)
            names, values = payload
            at = key_at.get(names)
            if at is None:
                keyless = not set(keys) <= set(names)
                at = key_at[names] = () if keyless else tuple(map(names.index, keys))
            if at:
                kt = tuple([values[i] for i in at])
                h = hashes.get(kt)
                if h is None:
                    h = hashes[kt] = stable_hash(kt)
            else:
                h = None
            hash_of.append(h)
        present = set(hash_of)
        present.discard(None)
        sides.append((keys, payloads, replicas, hash_of, ends, edge_base, present))
        edge_base += len(ends[0])
    # pass 2 needs neither, so they go before it allocates
    del hashes, vertex_mu
    common = sides[0][-1] & sides[1][-1]

    # pass 2: build what can take part in the join
    indices = []
    for keys, payloads, replicas, hash_of, (src, dst), edge_base, present in sides:
        rows = {row for row, h in enumerate(hash_of) if h in common}
        rows.update(d for s, d in zip(src, dst) if hash_of[s] in common and hash_of[d] is not None)
        # the edges out of common buckets, which the builder keeps, and
        # those with a keyless end, which it counts as dropped
        out_edges = (
            (s, d, Element(EMPTY_RECORD, replica), _NO_LABELS)
            for replica, s, d in zip(count(edge_base + 1), src, dst)
            if hash_of[s] in common or hash_of[s] is None or hash_of[d] is None
        )
        indices.append(
            _index_operand(
                keys,
                _file_vertices(keys, rows, payloads, replicas, hash_of),
                present - common,
                out_edges,
                max(replicas, default=0),
                edge_base + len(src) if src else 0,
                hash_of.count(None),
            )
        )
    return tuple(indices)


def _file_vertices(keys, rows, payloads, replicas, hash_of):
    """The builder's vertices for the given rows of one side of
    :func:`prepare_files`, each built from its payload identity."""
    for row in rows:
        rec = Record._sorted(*payloads[row])
        kt = tuple([rec[k] for k in keys])
        yield row, hash_of[row], kt, Element(rec, replicas[row]), _NO_LABELS


# ---------------------------------------------------------------------------
# phase 2: join


class OpCounters:
    """The units of work of one join, each an int from 0."""

    __slots__ = (
        "directory_steps",
        "bucket_visits",
        "vertex_comparisons",
        "edge_comparisons",
        "disjunction_scans",
        "fill_edge_emissions",
        "el_peak",
        "er_peak",
    )

    def __init__(self, **counts: int):
        for name in self.__slots__:
            setattr(self, name, counts.pop(name, 0))
        if counts:
            raise TypeError(f"unknown counters {sorted(counts)}")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"OpCounters({', '.join(f'{k}={v!r}' for k, v in self.as_dict().items())})"

    @property
    def comparison_total(self) -> int:
        return self.vertex_comparisons + self.edge_comparisons + self.disjunction_scans


class BucketStat(NamedTuple):
    """Observed sizes for one common bucket: vertex counts, total
    out-degrees, and (disjunctive only) unbonded edge counts."""

    hash: int
    left_size: int
    right_size: int
    left_out: int
    right_out: int
    left_unbonded: int = 0
    right_unbonded: int = 0


class EngineRun:
    """Everything one engine join produced.

    Set when :func:`run_join` returns: ``counters``, ``bucket_stats``,
    ``semantics``, the operands ``left`` and ``right``, ``n_vertices``
    and ``n_edges``.

    The joined vertices are kept as ints, ``(left ordinal, right
    ordinal, replica)`` each, in canonical order;
    :meth:`vertex_operands` reads their two operand elements, and
    ``vertices`` builds the merged elements on first access.  The edges
    are kept factorized: bonded edges as elements, and the
    fills of each unbonded edge as the lists of vertices its source
    and its destination joined with, so their number is known before
    any fill exists.  :meth:`edge_rows` streams the edges' endpoints
    from that form and builds nothing.  It and materializing take the
    fills in placeholder order from one stream over the fill sets,
    sorted by real edge (:func:`_fill_order`); the order holds no list,
    key or tuple per fill.

    ``edges``, ``db``, ``graph`` and ``component_id`` materialize the
    result on first access: fill and placeholder elements are built,
    and the result is registered as a component of the target
    database (the one given to :func:`run_join`, a fresh one
    otherwise).  Registration errors therefore surface there, not in
    :func:`run_join`, and every later access raises the same error.
    ``materialized`` tells whether materializing succeeded.
    """

    def __init__(
        self,
        vertex_sources: list,
        bonded: list,
        fills: list,
        counters: OpCounters,
        bucket_stats: tuple[BucketStat, ...],
        semantics: str,
        left: EngineIndex,
        right: EngineIndex,
        target_db: Optional[PropertyGraph],
    ):
        self.counters = counters
        self.bucket_stats = bucket_stats
        self.semantics = semantics
        self.left = left
        self.right = right
        self.n_vertices = len(vertex_sources)
        self.n_edges = len(bonded) + counters.fill_edge_emissions
        # (left ordinal, right ordinal, replica) per result vertex, in
        # canonical order
        self._vertex_sources = vertex_sources
        self._vertices = None
        # (edge, ((source, destination) positions in vertices, labels))
        # per bonded edge
        self._bonded = bonded
        self._fills = fills
        self._db = target_db
        self._component_id = None
        self._edges = None
        self._failure = None

    @property
    def vertices(self) -> IndexedSet:
        """The joined vertices as merged elements, built on first
        access."""
        if self._vertices is None:
            a, b = self.left.elements, self.right.elements
            # the sources are in canonical order already
            with _bulk():
                self._vertices = IndexedSet._canonical(
                    Element(a[xo].record.combine(b[yo].record), replica, parts=(a[xo], b[yo]))
                    for xo, yo, replica in self._vertex_sources
                )
        return self._vertices

    def vertex_operands(self) -> Iterable[tuple[Element, Element]]:
        """(left element, right element) per result vertex, in the order
        of ``vertices``, without building the merged vertices."""
        a, b = self.left.elements, self.right.elements
        return ((a[xo], b[yo]) for xo, yo, _ in self._vertex_sources)

    @property
    def materialized(self) -> bool:
        return self._edges is not None

    @property
    def edges(self) -> IndexedSet:
        self._materialize()
        return self._edges

    @property
    def db(self) -> PropertyGraph:
        self._materialize()
        return self._db

    @property
    def component_id(self) -> int:
        self._materialize()
        return self._component_id

    @property
    def graph(self) -> Graph:
        return self.db.get_graph(self.component_id)

    def edge_rows(self) -> Iterable[tuple[int, int]]:
        """(source, destination) per result edge as positions in
        ``vertices``, in the canonical order of ``edges``, without
        materializing the edges.

        Edges sort by (payload, replica).  A fill's replica exceeds
        every bonded edge's, and among fills of one payload it grows
        with the fill's place in the fill order, which sorts by payload
        first.  So the canonical order is the fills in fill order,
        merged by payload with the sorted bonded edges, bonded first on
        a tie.

        The rows are chained from :meth:`edge_runs`, so the stream
        holds nothing per fill.
        """
        return chain.from_iterable(
            product(run.srcs, run.dsts) if isinstance(run, _FillSet) else run
            for run in self.edge_runs()
        )

    def edge_runs(self) -> Iterator:
        """The rows of :meth:`edge_rows`, in their order, in runs: one
        per group of fill sets with an equal real edge (see
        :func:`_fill_order`), each preceded by a list of the bonded edges'
        rows that sort before it, and one such list last.  A group of one
        set is that :class:`_FillSet`, whose rows are the product of its
        ``srcs`` and ``dsts``; a larger group is an iterator of rows."""
        bonded = sorted(self._bonded, key=lambda t: t[0].sort_key)
        payloads = [m.record.items for m, _ in bonded]
        rows = [ends for _, (ends, _) in bonded]
        k = 0
        for group in _fill_order(self._fills):
            stop = bisect_right(payloads, group[0].element.record.items, k)
            yield rows[k:stop]
            k = stop
            if len(group) == 1:
                yield group[0]
            else:
                yield ((fs.srcs[i], fs.dsts[j]) for fs, i, j in self._merged(group))
        yield rows[k:]

    def _merged(self, group: list) -> Iterable[tuple]:
        """The fills of fill sets with an equal real edge as ``(fill
        set, i, j)``, the fill of ``src_mates[i]`` and ``dst_mates[j]``,
        in placeholder order: by (source mate, destination mate) sort
        keys, side-blind, ties in the order of ``group``."""

        def keyed(fs):
            mates = self.right.elements if fs.side == "left" else self.left.elements
            dst_keys = [mates[o].sort_key for o in fs.dst_mates]
            for i, o in enumerate(fs.src_mates):
                src_key = mates[o].sort_key
                for j, dst_key in enumerate(dst_keys):
                    yield (src_key, dst_key), (fs, i, j)

        return map(itemgetter(1), heapq.merge(*map(keyed, group), key=itemgetter(0)))

    def _fills_in_order(self) -> Iterable[tuple]:
        """Every fill as ``(fill set, i, j)`` in placeholder order."""
        for group in _fill_order(self._fills):
            if len(group) == 1:
                fs = group[0]
                cells = product(range(len(fs.srcs)), range(len(fs.dsts)))
                yield from ((fs, i, j) for i, j in cells)
            else:
                yield from self._merged(group)

    def _materialize(self) -> None:
        if self._edges is not None:
            return
        if self._failure is not None:
            # the target database may keep part of the failed attempt,
            # so a second attempt would fail on that, not on the cause
            raise self._failure
        try:
            self._build()
        except Exception as exc:
            self._failure = exc
            raise

    @_bulk()
    def _build(self) -> None:
        a, b = self.left, self.right
        joined = self.vertices.elements
        result_edges = [m for m, _ in self._bonded]
        endpoint_map = {m: (joined[src], joined[dst]) for m, ((src, dst), _) in self._bonded}
        edge_labels = {m: labs for m, (_, labs) in self._bonded}
        placeholder_entries: dict[Element, tuple[tuple[Element, Element], frozenset]] = {}
        if self._fills:
            # placeholder numbering is side-blind, matching the reference
            pool_start = fresh_fill_start(
                (a.edge_max, b.edge_max), (m.replica for m in result_edges)
            )
            fill_offset = pool_start + self.counters.fill_edge_emissions
            k = pool_start
            for fs, i, j in self._fills_in_order():
                real = fs.element
                mates = b.elements if fs.side == "left" else a.elements
                eps = Element(EMPTY_RECORD, k, synthetic=True)
                k += 1
                placeholder_entries[eps] = (
                    (mates[fs.src_mates[i]], mates[fs.dst_mates[j]]),
                    frozenset(),
                )
                idx = _pair_index(real.replica, eps.replica, fill_offset)
                parts = (real, eps) if fs.side == "left" else (eps, real)
                m = Element(real.record, idx, parts=parts)
                result_edges.append(m)
                endpoint_map[m] = (joined[fs.srcs[i]], joined[fs.dsts[j]])
                edge_labels[m] = fs.labels
        vertex_labels = {
            m: a.labels[xo] | b.labels[yo] for m, (xo, yo, _) in zip(joined, self._vertex_sources)
        }

        rdb = self._db if self._db is not None else PropertyGraph()
        if placeholder_entries:
            rdb.attach_placeholder_edges(placeholder_entries)
        edges = IndexedSet(result_edges)
        self._component_id = rdb.register_component(
            self.vertices, edges, endpoint_map, vertex_labels, edge_labels
        )
        self._db = rdb
        self._edges = edges


class _FillSet(NamedTuple):
    """The fills of one unbonded edge, its ``element`` with its
    ``labels``, one per (source mate, destination mate) pair.  Mates
    are ordinals of the opposite operand, each list sorted by the
    mates' sort keys, ties in ordinal order; ``srcs[i]`` is the
    position in the result's vertices of the vertex the edge's source
    joined into with ``src_mates[i]``, ``dsts[j]`` likewise.  In that
    order the product of the two lists is the set's placeholder order,
    as mates of one set are distinct elements of one operand.  Sets
    whose edges share an end share that end's lists, which nothing
    changes after :func:`_mates` built them."""

    element: Element
    labels: frozenset
    side: str
    src_mates: list
    dst_mates: list
    srcs: list
    dsts: list


def _fill_order(fills: list) -> list:
    """The fill sets in the order in which the reference numbers their
    placeholders, in groups of sets with an equal real edge.

    The reference sorts fills by the sort keys of (real edge, source
    mate, destination mate), ties in discovery order, side-blind.  The
    sets sort stably by real edge here, and a set's own fills come in
    that order already (see :class:`_FillSet`).  Only operands from two
    databases share a real edge, one set per side; the fills of such a
    group are merged on their mates when read (``EngineRun._merged``).
    """
    ordered = sorted(fills, key=lambda fs: fs.element.sort_key)
    return [list(group) for _, group in groupby(ordered, key=attrgetter("element"))]


def _merge_directories(a: EngineIndex, b: EngineIndex, counters: OpCounters) -> list:
    """The buckets both operands hold, in hash order, as a pair of
    ``(hash, start, count)`` triples each, found by one walk of the two
    hash columns; each step moves past one bucket of one side.  Raises
    :class:`IncompleteBucket` if one of them is incomplete on either
    side, where the join would miss the vertices it lacks."""
    ha, hb = a.bucket_hash, b.bucket_hash
    na, nb = len(ha), len(hb)
    matches = []
    i = j = 0
    while i < na and j < nb:
        x, y = ha[i], hb[j]
        if x == y:
            matches.append((i, j))
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    counters.directory_steps += i + j
    fa, fb = a.bucket_incomplete, b.bucket_incomplete
    for i, j in matches:
        if fa[i] or fb[j]:
            side = "left" if fa[i] else "right"
            raise IncompleteBucket(
                f"bucket {ha[i]:#x} is incomplete on the {side} operand, which"
                " prepare_files pruned to another partner"
            )
    sa, ca, sb, cb = a.bucket_start, a.bucket_count, b.bucket_start, b.bucket_count
    return [((ha[i], sa[i], ca[i]), (hb[j], sb[j], cb[j])) for i, j in matches]


def _vertex_scan(a, b, common, offset_v):
    """Scan every common bucket: all left x right vertex pairs, key
    equality plus payload agreement.  Returns the candidate merges as
    (left ordinal, right ordinal) pairs in scan order, the payload items
    and the replica of the value each merges into, and the comparison
    count.

    The payload items are those of ``Record.combine``, as a list of the
    operands' own pairs: the two pairs of a shared name are equal, as
    the records agree, and one of them is dropped."""
    pairs = []
    payloads = []
    replicas = []
    comparisons = 0
    a_elems, b_elems = a.elements, b.elements
    a_keys, b_keys = a.key_values, b.key_values
    for (ha, sa, ca), (hb, sb, cb) in common:
        comparisons += ca * cb
        for xo in range(sa, sa + ca):
            xk = a_keys[xo]
            x = a_elems[xo]
            xrec = x.record
            names, xitems = xrec._map.keys(), xrec.items
            for yo in range(sb, sb + cb):
                if xk != b_keys[yo]:
                    continue
                y = b_elems[yo]
                yrec = y.record
                if names.isdisjoint(yrec._map):
                    # two sorted runs, which the sort merges
                    items = sorted(xitems + yrec.items)
                elif xrec.agrees_with(yrec):
                    items = sorted({*xitems, *yrec.items})
                else:
                    continue
                pairs.append((xo, yo))
                payloads.append(items)
                replicas.append(_pair_index(x.replica, y.replica, offset_v))
    return pairs, payloads, replicas, comparisons


def _canonical_vertices(a, b, pairs, payloads, replicas):
    """One result vertex per (payload, replica) value the candidate
    ``pairs`` merge into, as ``(left ordinal, right ordinal, replica)``
    in canonical order, and each candidate pair's position among them.

    The candidates are ranked by value in two stable sorts, by replica
    and then by payload items, and equal neighbours are one vertex.  Of
    those, the least :meth:`Element.decomposition_key` wins, the first
    in scan order on a tie, as :func:`pick_canonical` picks."""
    # sorting on the payload lists alone compares each common prefix
    # once; a (payload, replica) key would compare it twice
    order = sorted(range(len(pairs)), key=replicas.__getitem__)
    order.sort(key=payloads.__getitem__)
    ranked = [payloads[c] for c in order]
    reps = [replicas[c] for c in order]
    # a candidate starts a vertex unless it merges into its neighbour's
    fresh = list(map(or_, map(ne, ranked, [None, *ranked]), map(ne, reps, [None, *reps])))
    positions = list(accumulate(fresh, initial=-1))[1:]
    sources = [(*pairs[c], r) for c, r in compress(zip(order, reps), fresh)]
    a_elems, b_elems = a.elements, b.elements
    for c, p in compress(zip(order, positions), map(not_, fresh)):
        (xo, yo), kept = pairs[c], sources[p]
        if _decomposition_key(a_elems[xo], b_elems[yo]) < _decomposition_key(
            a_elems[kept[0]], b_elems[kept[1]]
        ):
            sources[p] = (xo, yo, kept[2])
    return sources, dict(zip(map(pairs.__getitem__, order), positions))


def _decomposition_key(x: Element, y: Element) -> tuple:
    """The :meth:`Element.decomposition_key` of the merge of ``x`` and
    ``y``, without building it."""
    return tuple(sorted(leaf.sort_key for leaf in chain(x.leaves(), y.leaves())))


def _edge_scan(a, b, pairs, pair_pos, offset_e):
    """Cross the out-edges of every joined source pair, in scan order;
    a dest-pair hit means the edges bond.  Bonded edges whose payloads
    agree are merged; returns them as (merged edge, ((source,
    destination) positions, labels)), the bonded edge ids of each side
    and the comparison count."""
    cand = []
    bonded_a = set()
    bonded_b = set()
    comparisons = 0
    a_offsets, b_offsets = a.edge_offsets, b.edge_offsets
    a_dest, b_dest = a.edge_dest, b.edge_dest
    a_edges, b_edges = a.edge_elements, b.edge_elements
    a_labels, b_labels = a.edge_labels, b.edge_labels
    get_pair = pair_pos.get
    for xo, yo in pairs:
        outs_x = range(a_offsets[xo], a_offsets[xo + 1])
        outs_y = range(b_offsets[yo], b_offsets[yo + 1])
        if not (outs_x and outs_y):
            continue
        src = pair_pos[(xo, yo)]
        for ex in outs_x:
            dx = a_dest[ex]
            for ey in outs_y:
                comparisons += 1
                dst = get_pair((dx, b_dest[ey]))
                if dst is None:
                    continue
                bonded_a.add(ex)
                bonded_b.add(ey)
                ee, fe = a_edges[ex], b_edges[ey]
                if ee.record.agrees_with(fe.record):
                    merged = Element(
                        ee.record.combine(fe.record),
                        _pair_index(ee.replica, fe.replica, offset_e),
                        parts=(ee, fe),
                    )
                    cand.append((merged, ((src, dst), a_labels[ex] | b_labels[ey])))
    return cand, bonded_a, bonded_b, comparisons


def _fill_sets(side, own, own_range, other_range, bonded, mates, counters, fills):
    """Append to ``fills`` the fill sets of one side's unbonded edges in
    one common bucket, and return how many edges there are unbonded.

    ``own`` is that side's operand, ``own_range`` and ``other_range``
    the bucket's ordinals on it and on the opposite one.  ``mates`` maps
    an own ordinal to the opposite ordinals it joined with, in the order
    of :class:`_FillSet`, and the positions of the result's vertices
    they joined into (see :func:`_mates`).  An unbonded edge's source
    and destination mates are both looked up there; no bucket is
    scanned.  ``disjunction_scans`` still charges the size of the
    opposite bucket per unbonded edge, the cost model's scan."""
    offsets = own.edge_offsets
    unbonded = [
        (o, e) for o in own_range for e in range(offsets[o], offsets[o + 1]) if e not in bonded
    ]
    for o, e in unbonded:
        counters.disjunction_scans += len(other_range)
        src_row = mates.get(o)
        dst_row = mates.get(own.edge_dest[e])
        if src_row and dst_row:
            (src_mates, srcs), (dst_mates, dsts) = src_row, dst_row
            fills.append(
                _FillSet(
                    own.edge_elements[e], own.edge_labels[e], side, src_mates, dst_mates, srcs, dsts
                )
            )
            counters.fill_edge_emissions += len(src_mates) * len(dst_mates)
    return len(unbonded)


def _mates(pairs: list, pair_pos: dict, side: int, other) -> dict:
    """Per ordinal of one side that joined, ``(mates, positions)``: the
    opposite ordinals it joined with, sorted by their elements' sort
    keys, and the positions in the result's vertices of the vertices
    each pair joined into.  ``side`` is 0 for the left operand and 1 for
    the right, ``other`` the opposite operand.

    Buckets read from a file are not checked for order, so the mates
    are sorted here, once per ordinal; ties keep ordinal order, which
    is the order of ``pairs`` (the vertex scan's)."""
    rows: dict[int, list] = {}
    for pair in pairs:
        rows.setdefault(pair[side], []).append((pair[1 - side], pair_pos[pair]))
    elements = other.elements
    mates = {}
    for o, row in rows.items():
        row.sort(key=lambda mate: elements[mate[0]].sort_key)
        mates[o] = ([m for m, _ in row], [p for _, p in row])
    return mates


@_bulk()
def run_join(
    a: EngineIndex,
    b: EngineIndex,
    semantics: str = CONJUNCTIVE,
    *,
    target_db: Optional[PropertyGraph] = None,
) -> EngineRun:
    """Join two prepared operands.

    Every phase runs here and every counter is final on return; the
    result's vertices stay ints and its edges factorized until first
    asked for (see :class:`EngineRun`).  The result lands in
    ``target_db`` when given (operands built from live graphs in that
    database keep one shared element namespace) or in a fresh database
    otherwise.
    """
    if semantics not in (CONJUNCTIVE, DISJUNCTIVE):
        raise ValidationError(f"unknown semantics {semantics!r}")
    if len(a.keys) != len(b.keys):
        raise SpecMismatch(
            f"operands prepared for different key widths: {a.keys} vs {b.keys}"
        )

    counters = OpCounters()
    common = _merge_directories(a, b, counters)
    counters.bucket_visits = len(common)

    # past both universes; with one of them empty, nothing of that kind
    # merges
    offset_v = max(a.vertex_max, b.vertex_max) + 1
    offset_e = max(a.edge_max, b.edge_max) + 1

    # vertex phase
    pairs, payloads, replicas, counters.vertex_comparisons = _vertex_scan(a, b, common, offset_v)

    # one canonical vertex per (payload, replica) value, least operand
    # tree wins; every contributing pair resolves to its canonical
    # vertex, named by its position in the result's vertices
    sources, pair_pos = _canonical_vertices(a, b, pairs, payloads, replicas)
    del payloads, replicas

    # edge phase
    e_cands, bonded_a, bonded_b, counters.edge_comparisons = _edge_scan(
        a, b, pairs, pair_pos, offset_e
    )
    e_best = pick_canonical(e_cands)

    # disjunctive pass: unbonded edges look up the mates of their source
    # and of their destination, which the vertex phase found.  Each
    # unbonded edge's fills stay factorized as its source mates times
    # its destination mates, with the joined vertices as positions in
    # the result.
    fills = []
    bucket_stats = []
    disjunctive = semantics == DISJUNCTIVE
    if disjunctive:
        mates_a, mates_b = _mates(pairs, pair_pos, 0, b), _mates(pairs, pair_pos, 1, a)
    a_offsets, b_offsets = a.edge_offsets, b.edge_offsets
    for (ha, sa, ca), (hb, sb, cb) in common:
        range_a, range_b = range(sa, sa + ca), range(sb, sb + cb)
        unbonded_a = unbonded_b = 0
        if disjunctive:
            # left fills first, then right: fills keep discovery order
            unbonded_a = _fill_sets("left", a, range_a, range_b, bonded_a, mates_a, counters, fills)
            unbonded_b = _fill_sets("right", b, range_b, range_a, bonded_b, mates_b, counters, fills)
            counters.el_peak += unbonded_a
            counters.er_peak += unbonded_b
        bucket_stats.append(
            BucketStat(
                ha,
                ca,
                cb,
                a_offsets[sa + ca] - a_offsets[sa],
                b_offsets[sb + cb] - b_offsets[sb],
                unbonded_a,
                unbonded_b,
            )
        )

    return EngineRun(
        vertex_sources=sources,
        bonded=list(e_best.values()),
        fills=fills,
        counters=counters,
        bucket_stats=tuple(bucket_stats),
        semantics=semantics,
        left=a,
        right=b,
        target_db=target_db,
    )


# ---------------------------------------------------------------------------
# cost reporting


class CostReport(NamedTuple):
    """Measured counters next to the bounds the cost model predicts
    from observed bucket sizes."""

    measured: dict
    vertex_bound: int
    edge_bound: int
    scan_bound: int

    def rows(self) -> list[tuple[str, int, int]]:
        return [
            ("vertex_comparisons", self.measured["vertex_comparisons"], self.vertex_bound),
            ("edge_comparisons", self.measured["edge_comparisons"], self.edge_bound),
            ("disjunction_scans", self.measured["disjunction_scans"], self.scan_bound),
        ]

    def within_bounds(self) -> bool:
        return all(measured <= bound for _, measured, bound in self.rows())

    def render(self) -> str:
        lines = [f"{'counter':<22} {'measured':>12} {'bound':>12}"]
        for name, measured, bound in self.rows():
            lines.append(f"{name:<22} {measured:>12} {bound:>12}")
        extra = {
            k: v
            for k, v in self.measured.items()
            if k not in ("vertex_comparisons", "edge_comparisons", "disjunction_scans")
        }
        for k, v in sorted(extra.items()):
            lines.append(f"{k:<22} {v:>12}")
        return "\n".join(lines)


def explain(run: EngineRun) -> CostReport:
    vertex_bound = sum(s.left_size * s.right_size for s in run.bucket_stats)
    edge_bound = sum(s.left_out * s.right_out for s in run.bucket_stats)
    scan_bound = sum(
        s.right_size * s.left_unbonded + s.left_size * s.right_unbonded
        for s in run.bucket_stats
    )
    return CostReport(
        measured=run.counters.as_dict(),
        vertex_bound=vertex_bound,
        edge_bound=edge_bound,
        scan_bound=scan_bound,
    )
