"""GJIX version 8, the file format of a saved ``engine.EngineIndex``.

A file is the magic ``GJIX``, a u16 version, the u16 byte length of the
section table, the table, a CRC32 of everything before it, then the
stored section bodies back to back, in the order of ``_SECTIONS``.  The
table holds per section three varints (width, stored length, inflated
length) and the CRC32 of the stored bytes.  A section is stored as a
zlib stream at level ``_LEVEL`` where that is strictly smaller, and as
it is otherwise, so its stored length is below its inflated length
exactly when it is deflated.  A byte section has width 1; an int column
is little-endian and unsigned, at the narrowest width of 1, 2, 4 or 8
bytes that holds its largest item, stored as its byte planes (byte 0 of
every item, then byte 1, ...), or width 0, as varints, where none does.

The file keeps one dictionary of the key, attribute and label names
(dictionary 0) and one of each attribute's values, every element class
(its sorted attribute names and its labels) once, and per vertex and
per edge its replica past the smallest one of its kind, its class id
and its value ids, then the directory and the CSR out-degrees and
destinations.  Every table is numbered from 0 in order of first use.
It stores nothing its reader can derive, so offsets are stored as
lengths, which the reader sums up, or derived from the classes.  A load
keeps most of what it reads, so the sections that inflate to the most
come first, while it holds little.

The module has two calls.  :func:`write` turns one :class:`Columns`
into the file's bytes.  :func:`read` reads, checks and inflates one
section at a time, in pieces, straight into the column it becomes,
checks the structure at once, and gives the :class:`Columns` back; it
builds nothing per vertex, edge or bucket.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from collections import deque
from collections.abc import Sequence
from itertools import accumulate, chain, islice
from operator import lt, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .model import ValidationError

__all__ = ["MAGIC", "VERSION", "Table", "Columns", "write", "read"]

MAGIC = b"GJIX"
VERSION = 8

_NO_LABELS: frozenset = frozenset()


class Table(NamedTuple):
    """The vertices or the edges of an index: per ordinal or edge id
    its replica less ``base``, the smallest one, and its class id (one
    id for a table of one class); ``values``, each one's value ids in
    turn, one per attribute name of its class; ``top``, the largest
    replica of the index universe; and ``starts``, where each one's
    value ids start, then where the last ones end, which :func:`read`
    derives and :func:`write` does not read."""

    replica: Sequence[int]
    class_ids: Union[Sequence[int], int]
    values: Sequence[int]
    base: int
    top: int
    starts: Sequence[int] = ()


class Columns(NamedTuple):
    """What a file holds.  ``classes`` holds per class, from class 0,
    the empty record with no labels, its attribute names, ascending,
    the value dictionary of each and its label set.  A dictionary maps
    each value to its id, in id order, for :func:`write`, and each id
    to its value in one :func:`read` gives.  The directory and CSR
    columns are those of ``engine.EngineIndex``."""

    keys: tuple
    skipped_vertices: int
    dropped_edges: int
    classes: list
    vertex: Table
    edge: Table
    bucket_hash: Sequence[int]
    bucket_count: Sequence[int]
    bucket_incomplete: bytes
    edge_offsets: Sequence[int]
    edge_dest: Sequence[int]


def write(columns: Columns) -> bytes:
    """The file of ``columns``; a given ``columns`` always gives the same
    bytes."""
    names: dict[str, int] = {}

    def name_ids(strings: Iterable[str]) -> list[int]:
        return [names.setdefault(s, len(names)) for s in strings]

    keys = name_ids(columns.keys)
    values: dict[str, dict] = {}
    classes = []
    for attrs, dictionaries, labels in islice(columns.classes, 1, None):
        for attr, d in zip(attrs, dictionaries):
            values.setdefault(attr, d)
        classes += [len(attrs), *name_ids(attrs), len(labels), *name_ids(sorted(labels))]
    vertex, edge = columns.vertex, columns.edge
    meta = [len(keys), *keys, columns.skipped_vertices, columns.dropped_edges]
    meta += [vertex.top, edge.top, vertex.base, edge.base]
    dictionaries = [len(names), *chain.from_iterable((names[a], len(d)) for a, d in values.items())]
    strings = list(chain(names, *values.values()))
    return _pack_sections(
        {
            "meta": (1, _varints(meta)),
            "string_lengths": _column(list(map(len, strings))),
            "string_text": (1, "".join(strings).encode("utf-8")),
            "dictionaries": (1, _varints(dictionaries)),
            "classes": (1, _varints(classes)),
            "bucket_hash": _column(columns.bucket_hash),
            "bucket_count": _column(columns.bucket_count),
            "bucket_incomplete": (1, bytes(columns.bucket_incomplete)),
            "edge_degrees": _column(list(map(sub, columns.edge_offsets[1:], columns.edge_offsets))),
            "edge_dest": _column(columns.edge_dest),
            "vertex_replica": _column(vertex.replica),
            "vertex_class": _column(vertex.class_ids),
            "vertex_values": _column(vertex.values),
            "edge_replica": _column(edge.replica),
            "edge_class": _column(edge.class_ids),
            "edge_values": _column(edge.values),
        }
    )


def read(read: Callable[[int], bytes], size: int) -> Columns:
    """The columns of the file of ``size`` bytes that ``read`` reads.
    Each section is taken in file order and turned into the column it
    becomes before the next is read; the structure is checked here, and
    a fault raises :class:`ValidationError`."""
    sec = _StoredSections(read, size)
    meta = _read_varints(_byte_section(sec, "meta"))
    lengths = _read_column(sec, "string_lengths")
    try:
        text = str(_byte_section(sec, "string_text"), "utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError("string table is not UTF-8") from exc
    offsets = _offsets(lengths, len(text), "string table offsets do not fit the string text")
    names, values = _read_dictionaries(_byte_section(sec, "dictionaries"), text, offsets)

    nkeys = meta[0] if meta else -1
    if len(meta) != nkeys + 7 or max(meta[1 : 1 + nkeys], default=-1) >= names.n:
        raise ValidationError("corrupt index header fields")
    keys = tuple([names[i] for i in meta[1 : 1 + nkeys]])
    skipped, dropped, vertex_max, edge_max, vertex_base, edge_base = meta[-6:]
    classes = _read_classes(_byte_section(sec, "classes"), names, values)
    arity = [len(c[0]) for c in classes]
    vertex = _element_columns(sec, "vertex", arity, vertex_base, vertex_max)
    edge = _element_columns(sec, "edge", arity, edge_base, edge_max)

    hashes, counts = _read_column(sec, "bucket_hash"), _read_column(sec, "bucket_count")
    incomplete = bytes(_byte_section(sec, "bucket_incomplete"))
    if not len(hashes) == len(counts) == len(incomplete):
        raise ValidationError("directory columns differ in length")
    if max(incomplete, default=0) > 1:
        raise ValidationError("a bucket flag is neither 0 nor 1")
    if sum(counts) != len(vertex.replica):
        raise ValidationError("directory does not cover the vertex table")
    # the directory merge walks both directories in hash order
    if not all(map(lt, hashes, islice(hashes, 1, None))):
        raise ValidationError("directory hashes do not strictly ascend")
    degrees, dest = _read_column(sec, "edge_degrees"), _read_column(sec, "edge_dest")
    edge_offsets = _offsets(degrees, len(dest), "edge offsets do not fit the edge table")
    if len(degrees) != len(vertex.replica) or len(dest) != len(edge.replica):
        raise ValidationError("the CSR columns do not fit the vertex and edge tables")
    if dest and max(dest) >= len(vertex.replica):
        raise ValidationError(f"out-edge destination {max(dest)} outside the vertex table")
    return Columns(
        keys, skipped, dropped, classes, vertex, edge, hashes, counts, incomplete, edge_offsets, dest
    )


_SECTIONS = (
    "meta",  # varints: key count, key name ids, skipped, dropped,
    # vertex max, edge max, smallest vertex replica, smallest edge replica
    "string_lengths",  # column per string: its length in code points
    "string_text",  # every dictionary's strings, back to back, as UTF-8
    "dictionaries",  # varints: dictionary 0's count, then per attribute
    # dictionary its name id and its count
    "classes",  # varints per class: name count, name ids ascending by
    # name, label count, label ids
    "vertex_replica",  # column per ordinal: replica less the smallest one
    "vertex_class",  # column per ordinal: class id
    "vertex_values",  # column: per ordinal, one value id per name of its class
    "edge_replica",  # column per edge id: replica less the smallest one
    "edge_class",  # column per edge id: class id
    "edge_values",  # column: per edge id, one value id per name of its class
    "bucket_hash",  # column per bucket, strictly ascending
    "bucket_count",  # column per bucket: vertex count
    "bucket_incomplete",  # byte per bucket: 1 where it lacks vertices
    "edge_degrees",  # column per ordinal: out-edge count, CSR in ordinal order
    "edge_dest",  # column per edge id: destination ordinal
)
_LEVEL = 6
# no deflate stream inflates to more than 1032 bytes per byte stored
_MAX_INFLATE = 1032
_HEAD = struct.Struct("<4sHH")
_CRC = struct.Struct("<I")
_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_CHUNK = 1 << 12  # bytes of a section read or inflated at a time
_SWAP = sys.byteorder == "big"


def _pack_sections(sections: dict) -> bytes:
    """The file for ``{name: (width, body)}``, one entry per name of
    ``_SECTIONS``, each body in item order; an int column is stored as
    its byte planes, and each body deflated where that makes it smaller."""
    stored = []
    for name in _SECTIONS:
        width, body = sections[name]
        if width in _TYPECODES:
            body = b"".join([body[j::width] for j in range(width)])
        data = zlib.compress(body, _LEVEL)
        stored.append((width, data if len(data) < len(body) else body, len(body)))
    return _pack_stored(stored)


def _pack_stored(stored: list) -> bytes:
    """The file of one ``(width, stored bytes, inflated length)`` per
    section, its checksums computed here."""
    table = b"".join(
        _varint(width) + _varint(len(data)) + _varint(length) + _CRC.pack(zlib.crc32(data))
        for width, data, length in stored
    )
    head = _HEAD.pack(MAGIC, VERSION, len(table)) + table
    return b"".join([head, _CRC.pack(zlib.crc32(head)), *[data for _, data, _ in stored]])


class _StoredSections:
    """The sections of a file of ``size`` bytes, read through ``read``.

    Opening it reads the header and section table, checks the magic,
    version and checksum, and that the section lengths add up to
    ``size``; ``table`` then holds ``(width, stored length, inflated
    length, CRC32)`` per section.  Indexing it by the name of the next
    section in file order reads that section alone, checks its CRC32 and
    gives its ``(width, column)``, an array of exactly its items, of 1
    byte where the width is not 1, 2, 4 or 8, read straight into it."""

    __slots__ = ("_read", "_entries", "table")

    def __init__(self, read: Callable[[int], bytes], size: int):
        head = read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise ValidationError("truncated index")
        magic, version, table_size = _HEAD.unpack(head)
        if magic != MAGIC:
            raise ValidationError("not an engine index: bad magic")
        if version != VERSION:
            raise ValidationError(f"unsupported index version {version}")
        table = read(table_size + _CRC.size)
        if len(table) < table_size + _CRC.size:
            raise ValidationError("truncated index")
        if zlib.crc32(table[:table_size], zlib.crc32(head)) != _CRC.unpack_from(table, table_size)[0]:
            raise ValidationError("index header checksum mismatch")
        self.table = []
        pos = 0
        try:
            for _ in _SECTIONS:
                width, pos = _varint_at(table, pos)
                stored, pos = _varint_at(table, pos)
                length, pos = _varint_at(table, pos)
                self.table.append((width, stored, length, *_CRC.unpack_from(table, pos)))
                pos += _CRC.size
        except (IndexError, struct.error) as exc:
            raise ValidationError("corrupt section table") from exc
        if pos != table_size:
            raise ValidationError("corrupt section table")
        end = len(head) + len(table) + sum(entry[1] for entry in self.table)
        if end > size:
            raise ValidationError("truncated index")
        if end < size:
            raise ValidationError("trailing bytes after index payload")
        self._read = read
        self._entries = zip(_SECTIONS, self.table)

    def __getitem__(self, name: str) -> tuple[int, array]:
        at, (width, stored, length, crc) = next(self._entries)
        # the reader asks for the sections in file order
        assert at == name, (at, name)
        if stored > length:
            raise ValidationError(f"index section {name} stores {stored} bytes, more than its {length}")
        if length > _MAX_INFLATE * stored:
            raise ValidationError(
                f"index section {name} declares {length} bytes, more than its"
                f" {stored} stored bytes can inflate to"
            )
        size = width if width in _TYPECODES else 1
        if length % size:
            raise ValidationError(f"index section {name} is not an int column")
        col = array(_TYPECODES[size], [0]) * (length // size)
        pieces = self._pieces(name, stored, crc)
        try:
            _unshuffle(col, _inflate(name, pieces, length) if stored < length else pieces)
        except ValidationError:
            # a fault in bytes that fail their CRC32 is reported as the mismatch
            deque(pieces, 0)
            raise
        return width, col

    def _pieces(self, name: str, stored: int, crc: int) -> Iterator[bytes]:
        """The ``stored`` bytes of section ``name``, ``_CHUNK`` at a time,
        then a check of their CRC32 against ``crc``."""
        total = 0
        for left in range(stored, 0, -_CHUNK):
            piece = self._read(min(left, _CHUNK))
            total = zlib.crc32(piece, total)
            yield piece
        if total != crc:
            raise ValidationError(f"checksum mismatch in index section {name}")


def _unshuffle(col: array, planes: Iterable[bytes]) -> None:
    """Write ``planes``, the stored bytes of ``col``, byte 0 of every item,
    then byte 1, and so on, into it through copies of at most ``_CHUNK``
    bytes: a strided write to a bytearray is ten times faster than to a memoryview."""
    view, n, w = memoryview(col).cast("B"), len(col), col.itemsize
    at = 0
    for piece in map(memoryview, planes):
        while piece:
            plane, i = divmod(at, n)
            k = min(len(piece), n - i, _CHUNK // w)
            items = bytearray(view[i * w : (i + k) * w])
            items[plane::w] = piece[:k]
            view[i * w : (i + k) * w] = items
            at += k
            piece = piece[k:]


def _inflate(name: str, pieces: Iterator[bytes], length: int) -> Iterator[bytes]:
    """The zlib stream ``pieces`` of section ``name`` inflated, at most
    ``_CHUNK`` bytes at a time, to exactly ``length`` bytes and never one more."""
    stream = zlib.decompressobj()
    at = 0
    try:
        while not stream.eof:
            feed = stream.unconsumed_tail or next(pieces, b"")
            # a stream that runs on past the declared length gives one byte more
            piece = stream.decompress(feed, min(_CHUNK, length + 1 - at))
            if not (piece or feed):
                break
            at += len(piece)
            if at > length:
                raise ValidationError(f"index section {name} inflates past its declared length")
            yield piece
    except zlib.error as exc:
        raise ValidationError(f"index section {name} is not a zlib stream") from exc
    if not stream.eof or at < length:
        raise ValidationError(f"index section {name} ends short of its declared length")
    if stream.unused_data or next(pieces, None) is not None:
        raise ValidationError(f"bytes after the zlib stream of index section {name}")


def _narrowest(top: int) -> str:
    """The typecode of the narrowest unsigned column item that holds
    ``top``; 8 bytes for anything wider, which ``array`` then rejects."""
    for width, code in _TYPECODES.items():
        if top < 1 << 8 * width:
            return code
    return "Q"


def _column(values: Sequence[int]) -> tuple[int, bytes]:
    try:
        col = array("Q", values)
    except OverflowError:
        # an item past 8 bytes: the column is stored as varints
        return 0, _varints(values)
    code = _narrowest(max(col, default=0))
    if code != "Q":
        col = array(code, col)
    if _SWAP:
        col.byteswap()
    return col.itemsize, col.tobytes()


def _read_column(sections, name: str) -> Sequence[int]:
    """An int column: an array at its width, a list at width 0."""
    width, col = sections[name]
    if width == 0:
        return _read_varints(col)
    if width not in _TYPECODES:
        raise ValidationError(f"index section {name} is not an int column")
    if _SWAP:
        col.byteswap()
    return col


def _byte_section(sections, name: str) -> array:
    width, body = sections[name]
    if width != 1:
        raise ValidationError(f"index section {name} is not a byte section")
    return body


def _offsets(lengths, end: int, fault: str) -> array:
    """Where each item starts, and then where the last one ends: the
    sums of the lengths before it, which must come to ``end``; a sum
    past it raises ``ValidationError(fault)``."""
    try:
        at = array(_narrowest(end), accumulate(lengths, initial=0))
        if at[-1] == end:
            return at
    except OverflowError:
        pass
    raise ValidationError(fault)


def _element_columns(sec, kind: str, arity: list, base: int, top: int) -> Table:
    """The :class:`Table` of the vertices or the edges (``kind``) of an
    index read back, with ``base`` and ``top``, its smallest replica and
    its universe's maximum, and its starts summed up from the arities of
    the classes.  The replica column sets the length of the table, which
    the class column must fit, and each class id must lie in the class
    table."""
    replica, class_ids, values = (_read_column(sec, f"{kind}_{c}") for c in ("replica", "class", "values"))
    n = len(replica)
    if len(class_ids) != n:
        raise ValidationError(f"the {kind} columns differ in length")
    one = class_ids[0] if n and class_ids.count(class_ids[0]) == n else None
    if (max(class_ids, default=0) if one is None else one) >= len(arity):
        raise ValidationError(f"a class id of the {kind} table is past the class table")
    if one is not None and n * arity[one] == len(values):
        # all of one class, as every operand of a file pair's edges is:
        # kept as one id, its starts stepping by its arity (or 1, unread)
        class_ids = one
        at = range(0, len(values) + 1, arity[one]) if arity[one] else range(n + 1)
    else:
        fault = f"the {kind} value column does not fit the {kind} classes"
        at = _offsets(map(arity.__getitem__, class_ids), len(values), fault)
    return Table(replica, class_ids, values, base, top, at)


def _read_dictionaries(table, text: str, offsets: array) -> tuple[_Strings, dict]:
    """Dictionary 0 of an index read back, and each attribute's
    dictionary by attribute name.  Their counts, in table order, split
    the string table into ranges; they must cover it, and no two
    dictionaries may name one attribute."""
    ints = _read_varints(table)
    if len(ints) % 2 != 1:
        raise ValidationError("corrupt dictionary table")
    counts = ints[::2]
    if sum(counts) != len(offsets) - 1:
        raise ValidationError("dictionary counts do not sum to the string table")
    names = _Strings(text, offsets, 0, counts[0], "dictionary 0")
    values = {}
    bases = accumulate(counts)
    for attr, base, n in zip(map(names.__getitem__, ints[1::2]), bases, counts[1:]):
        if attr in values:
            raise ValidationError(f"two dictionaries name attribute {attr!r}")
        values[attr] = _Strings(text, offsets, base, n, f"the dictionary of attribute {attr!r}")
    return names, values


def _read_classes(table, names: _Strings, values: dict) -> list[tuple]:
    """The element classes of an index read back, as ``(names,
    dictionaries, labels)``: the record's attribute names, the value
    dictionary of each, and the label set.  Class 0, the empty record
    with no labels, comes first.  Each class of the table is checked to
    name strings of dictionary 0, its attribute names strictly
    ascending and each with a dictionary, its labels distinct."""
    ints = _read_varints(table)
    classes = [((), (), _NO_LABELS)]
    pos = 0
    try:
        while pos < len(ints):
            c = len(classes)
            n = ints[pos]
            name_ids = ints[pos + 1 : pos + 1 + n]
            pos += 1 + n
            m = ints[pos]
            label_ids = ints[pos + 1 : pos + 1 + m]
            pos += 1 + m
            if not (len(name_ids) == n and len(label_ids) == m and n + m):
                raise ValidationError("corrupt class table")
            if max(name_ids + label_ids) >= names.n:
                raise ValidationError(f"class {c} names a string past dictionary 0")
            attrs = tuple(map(names.__getitem__, name_ids))
            if not all(map(lt, attrs, attrs[1:])):
                raise ValidationError(f"the names of class {c} do not strictly ascend")
            labels = frozenset(map(names.__getitem__, label_ids))
            if len(labels) != m:
                raise ValidationError(f"the labels of class {c} repeat")
            dictionaries = tuple(map(values.get, attrs))
            if None in dictionaries:
                raise ValidationError(f"an attribute of class {c} has no dictionary")
            classes.append((attrs, dictionaries, labels or _NO_LABELS))
    except IndexError as exc:
        raise ValidationError("corrupt class table") from exc
    return classes


class _Strings(dict):
    """One dictionary of the string table of an index read back: the
    ``n`` strings from string ``base`` on, by id from 0, each sliced
    out of the text on first use and shared after that.  An id past the
    dictionary raises ``ValidationError``, so it never reads a string
    of the next dictionary."""

    __slots__ = ("text", "offsets", "base", "n", "what")

    def __init__(self, text: str, offsets: array, base: int, n: int, what: str):
        self.text = text
        self.offsets = offsets
        self.base = base
        self.n = n
        self.what = what

    def __missing__(self, i: int) -> str:
        if i >= self.n:
            raise ValidationError(f"id {i} is past {self.what}")
        at = self.base + i
        s = self[i] = self.text[self.offsets[at] : self.offsets[at + 1]]
        return s


_SMALL_VARINTS = [bytes((v,)) for v in range(0x80)]


def _varint(v: int) -> bytes:
    """Unsigned LEB128: seven bits per byte, low bits first."""
    if v < 0x80:
        return _SMALL_VARINTS[v]
    if v < 0x4000:
        return bytes((v & 0x7F | 0x80, v >> 7))
    w = bytearray()
    while v > 0x7F:
        w.append(v & 0x7F | 0x80)
        v >>= 7
    w.append(v)
    return bytes(w)


def _varints(values: Iterable[int]) -> bytes:
    return b"".join(map(_varint, values))


def _read_varints(buf) -> list[int]:
    values, pos = [], 0
    try:
        while pos < len(buf):
            v, pos = _varint_at(buf, pos)
            values.append(v)
    except IndexError:
        raise ValidationError("truncated varint in index") from None
    return values


def _varint_at(buf: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``pos`` of ``buf`` and the position after it; one
    cut short raises ``IndexError``."""
    v = shift = 0
    while buf[pos] & 0x80:
        v |= (buf[pos] & 0x7F) << shift
        shift += 7
        pos += 1
    return v | buf[pos] << shift, pos + 1
