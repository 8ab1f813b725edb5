"""File ingestion, result serialization, and a synthetic generator.

Formats:

* vertex file: CSV with a header row; the first column is a unique
  non-negative integer id consumed as identity (not an attribute
  unless ``keep_id``); an empty cell means the attribute is absent on
  that row.
* edge file: tab-separated, no header, exactly two columns ``src`` and
  ``dst`` referencing ids from the paired vertex file.  Edges carry
  empty payloads.

Replica indices are assigned by occurrence counting per payload, and
the counting continues across everything already registered in the
target database, so two file pairs loaded into one database never
collide on (payload, replica).
"""

from __future__ import annotations

import csv
import os
from array import array
from itertools import chain, islice
from sys import intern
from typing import Iterable, NamedTuple

try:
    # the module hashlib takes it from, without loading OpenSSL
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - a build without the module
    from hashlib import blake2b

from .model import (
    EMPTY_RECORD,
    DataFormatError,
    Element,
    Graph,
    PropertyGraph,
    Record,
    ValidationError,
    _bulk,
    component_from_payloads,
)

__all__ = [
    "MalformedRowError",
    "DuplicateIdError",
    "DanglingEndpointError",
    "read_graph_rows",
    "load_graph_pair",
    "write_graph",
    "write_join_result",
    "GeneratorParams",
    "generate_rows",
    "build_graph",
    "generate",
    "read_config",
]


class MalformedRowError(DataFormatError):
    pass


class DuplicateIdError(DataFormatError):
    pass


class DanglingEndpointError(DataFormatError):
    pass


# ---------------------------------------------------------------------------
# loading


def _parse_id(cell: str, line: int) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise MalformedRowError(f"id {cell!r} is not an integer", line) from None
    if value < 0:
        raise MalformedRowError(f"id {value} is negative", line)
    return value


def read_graph_rows(vertex_path, edge_path, ends, *, keep_id: bool = False):
    """Read and validate one vertex/edge file pair row by row, without
    building any model object.

    Yields one payload identity ``(names, values)`` per vertex row, in
    file order: ``names`` is the sorted tuple of the row's attribute
    names with a non-empty cell, shared by every row of that shape, and
    ``values`` the tuple of their cells, each interned.  Where a name
    repeats in the header, its last non-empty cell counts.  Two rows'
    identities are equal exactly when their bindings are, in any two
    files, and ``Record(zip(names, values))`` is the row's record.

    Once the last vertex row is taken, the edge file is read: ``ends``
    is a pair of int arrays, and each edge row appends its source's and
    its destination's vertex row position to them, in file order.
    Malformed rows, repeated vertex ids and dangling endpoints raise
    line-numbered :class:`DataFormatError` subclasses; the vertex file
    is read, and checked, before the edge file.
    """
    position: dict[int, int] = {}
    with open(vertex_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError("vertex file has no header row", 1) from None
        if len(header) < 1 or any(not c for c in header):
            raise MalformedRowError("empty column name in header", 1)
        width = len(header)
        first = 0 if keep_id else 1
        attrs = list(enumerate(header))[first:]
        # a row without an empty cell binds every name to its last cell
        last_cell = {name: i for i, name in attrs}
        full_names = tuple(sorted(last_cell))
        full_cells = [last_cell[name] for name in full_names]
        shapes = {full_names: full_names}
        for line, row in enumerate(reader, start=2):
            if len(row) != width:
                raise MalformedRowError(f"expected {width} cells, found {len(row)}", line)
            vid = _parse_id(row[0], line)
            if vid in position:
                raise DuplicateIdError(f"vertex id {vid} repeats", line)
            position[vid] = len(position)
            if all(row):
                yield full_names, tuple([intern(row[i]) for i in full_cells])
            else:
                bindings = {name: row[i] for i, name in attrs if row[i]}
                names = tuple(sorted(bindings))
                names = shapes.setdefault(names, names)
                yield names, tuple([intern(bindings[name]) for name in names])

    src, dst = ends
    with open(edge_path, newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if len(row) != 2:
                raise MalformedRowError(f"expected 2 cells, found {len(row)}", line)
            try:
                # fast path: no negative id is ever a key of ``position``
                s, d = position[int(row[0])], position[int(row[1])]
            except (ValueError, KeyError):
                s = None
            if s is None:
                # both ids parse before either may be reported as dangling
                for vid in [_parse_id(cell, line) for cell in row]:
                    if vid not in position:
                        raise DanglingEndpointError(f"unknown vertex id {vid}", line)
            src.append(s)
            dst.append(d)


@_bulk()
def load_graph_pair(
    db: PropertyGraph,
    vertex_path,
    edge_path,
    *,
    vertex_labels: Iterable[str] = (),
    edge_labels: Iterable[str] = (),
    keep_id: bool = False,
) -> Graph:
    """Load one vertex/edge file pair as a new component of ``db``."""
    src, dst = ends = array("Q"), array("Q")
    # the reader's names are sorted and distinct, and its cells text
    records = [
        Record._sorted(names, values)
        for names, values in read_graph_rows(vertex_path, edge_path, ends, keep_id=keep_id)
    ]
    return component_from_payloads(
        db,
        records,
        [(s, d, EMPTY_RECORD) for s, d in zip(src, dst)],
        vertex_labels=[frozenset(vertex_labels)] * len(records),
        edge_labels=[frozenset(edge_labels)] * len(src),
    )


# ---------------------------------------------------------------------------
# writing


def _attr_union(elements) -> list[str]:
    names: set[str] = set()
    for el in elements:
        names.update(el.record.domain)
    return sorted(names)


def write_graph(graph: Graph, vertex_path, edge_path) -> None:
    """Serialize one component in the load format.  Canonical element
    order, sequential ids.  Labels and edge payloads have no place in
    the format and are not written."""
    attrs = _attr_union(graph.vertices)
    if "id" in attrs:
        raise DataFormatError("attribute name 'id' collides with the id column")
    ids = {v: i for i, v in enumerate(graph.vertices)}
    with open(vertex_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + attrs)
        for v in graph.vertices:
            rec = v.record
            w.writerow([ids[v]] + [rec.get(a, "") for a in attrs])
    with open(edge_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter="\t")
        for e in graph.edges:
            src, dst = graph.db.endpoints_of(e)
            w.writerow([ids[src], ids[dst]])


def _leaf_token(leaf: Element) -> str:
    digest = blake2b(repr(leaf.record.items).encode("utf-8"), digest_size=4).hexdigest()
    tag = "~" if leaf.synthetic else ""
    return f"{tag}{digest}:{leaf.replica}"


def provenance_token(element: Element, tokens: dict | None = None) -> str:
    """Compact description of an element's operand tree leaves.
    ``tokens`` memoizes leaf tokens by leaf identity; a caller passing it
    keeps the leaves alive while it holds it."""
    tokens = {} if tokens is None else tokens
    parts = []
    for leaf in element.leaves():
        token = tokens.get(id(leaf))
        if token is None:
            token = tokens[id(leaf)] = _leaf_token(leaf)
        parts.append(token)
    return "+".join(parts)


def write_join_result(result, out_dir) -> tuple[str, str]:
    """Write a join result as a loadable file pair: vertex CSV with the
    union of attribute columns plus a provenance column, edge TSV with
    src/dst ids.  Returns the two paths.

    A vertex's id is its position in ``result.vertices``.  A result
    that offers ``vertex_operands`` and ``edge_rows`` (an engine run)
    writes each vertex row from the vertex's two operands, whose records
    merge as :meth:`Record.combine` merges them and whose leaves make
    its provenance, and streams its edges' rows, without building a
    merged vertex or an edge; any other result (a reference result, a
    graph) is read through its elements and its database.  Each
    operand's provenance token is computed once, and edge rows are
    written in blocks of formatted text."""
    os.makedirs(out_dir, exist_ok=True)
    vertex_path = os.path.join(out_dir, "vertices.csv")
    edge_path = os.path.join(out_dir, "edges.tsv")
    engine_run = hasattr(result, "vertex_operands")

    def operands():
        # per vertex, the elements whose records merge into its record,
        # later ones winning on a shared name, and whose leaves in turn
        # make its provenance
        if engine_run:
            return result.vertex_operands()
        return ((v,) for v in result.vertices)

    attrs = _attr_union(chain.from_iterable(operands()))
    for reserved in ("id", "_provenance"):
        if reserved in attrs:
            raise DataFormatError(
                f"attribute name {reserved!r} collides with a reserved column"
            )
    # a row is the id, a cell per attribute, then the provenance
    header = ["id"] + attrs + ["_provenance"]
    column = {name: i for i, name in enumerate(header)}
    blank = [""] * len(header)
    # vertices share operands and leaves, which the result keeps alive
    operand_tokens: dict = {}
    leaf_tokens: dict = {}
    with open(vertex_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, parts in enumerate(operands()):
            row = blank.copy()
            row[0] = i
            tokens = []
            for p in parts:
                for name, value in p.record.items:
                    row[column[name]] = value
                token = operand_tokens.get(id(p))
                if token is None:
                    token = operand_tokens[id(p)] = provenance_token(p, leaf_tokens)
                tokens.append(token)
            row[-1] = "+".join(tokens)
            w.writerow(row)
    if engine_run:
        rows = result.edge_rows()
    else:
        ids = {v: i for i, v in enumerate(result.vertices)}
        rows = ((ids[src], ids[dst]) for src, dst in map(result.db.endpoints_of, result.edges))
    # edge rows hold only ints, formatted as the CSV writer would write
    # them; a block of 256 rows per write keeps the text held small
    row_text = "%d\t%d\r\n".__mod__
    with open(edge_path, "w", newline="", encoding="utf-8") as fh:
        while block := "".join(map(row_text, islice(rows, 256))):
            fh.write(block)
    return vertex_path, edge_path


# ---------------------------------------------------------------------------
# synthetic data


class _GeneratorFields(NamedTuple):
    scale: int
    seed: int = 1
    edge_factor: int = 2
    dob_values: int = 365
    company_values: int = 512
    name_values: int = 128
    surname_values: int = 128
    residence_values: int = 64
    scale_cap: int = 22
    attr_suffix: str = ""


class GeneratorParams(_GeneratorFields):
    """Recursive-matrix graph with attribute enrichment.

    ``scale`` is log2 of the vertex count.  ``dob_values`` and
    ``company_values`` size the value domains of the two join-key
    attributes and therefore set join selectivity; the remaining
    attribute domains are cosmetic.

    ``attr_suffix`` is appended to every attribute name except ``id``.
    Two operands generated with different suffixes have disjoint
    schemas, so joining them constrains nothing beyond the equality
    predicate.  With equal suffixes the shared unique email column
    vetoes every merge.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.scale < 0:
            raise ValidationError("scale must be non-negative")
        if self.scale > self.scale_cap:
            raise ValidationError(
                f"scale {self.scale} exceeds the configured cap {self.scale_cap}"
            )
        if self.edge_factor < 0:
            raise ValidationError("edge_factor must be non-negative")
        for fieldname in ("dob_values", "company_values", "name_values",
                          "surname_values", "residence_values"):
            if getattr(self, fieldname) < 1:
                raise ValidationError(f"{fieldname} must be positive")
        if not all(c.isalnum() or c == "_" for c in self.attr_suffix):
            raise ValidationError("attr_suffix must be alphanumeric")
        return self


VERTEX_HEADER = ("id", "sex", "name", "surname", "dob", "email", "company", "residence")

# community-standard recursive-matrix quadrant probabilities
_RMAT_P = (0.57, 0.19, 0.19, 0.05)


def generate_rows(params: GeneratorParams):
    """All file content in memory: (header, vertex rows, edge pairs).
    Deterministic for fixed params."""
    # imported here so that reading and joining files never pays for them
    from datetime import date

    import numpy as np

    n = 1 << params.scale
    m = params.edge_factor * n
    rng = np.random.Generator(np.random.PCG64(params.seed))

    # as lists of ints: the row loop below indexes and formats them, which
    # is several times slower on numpy scalars
    sex_pick = rng.integers(0, 2, size=n).tolist()
    name_pick = rng.integers(0, params.name_values, size=n).tolist()
    surname_pick = rng.integers(0, params.surname_values, size=n).tolist()
    dob_pick = rng.integers(0, params.dob_values, size=n).tolist()
    company_pick = rng.integers(0, params.company_values, size=n).tolist()
    residence_pick = rng.integers(0, params.residence_values, size=n).tolist()

    dob_pool = [date.fromordinal(710000 + k).isoformat() for k in range(params.dob_values)]

    vrows = []
    for i in range(n):
        vrows.append(
            (
                str(i),
                "F" if sex_pick[i] else "M",
                f"name{name_pick[i]}",
                f"surname{surname_pick[i]}",
                dob_pool[dob_pick[i]],
                f"user{i}@example.net",
                f"company{company_pick[i]}",
                f"city{residence_pick[i]}",
            )
        )

    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(params.scale):
        q = rng.choice(4, size=m, p=_RMAT_P)
        src = src * 2 + (q >> 1)
        dst = dst * 2 + (q & 1)
    erows = list(zip(src.tolist(), dst.tolist()))

    header = VERTEX_HEADER
    if params.attr_suffix:
        header = ("id",) + tuple(a + params.attr_suffix for a in VERTEX_HEADER[1:])
    return header, vrows, erows


def build_graph(
    db: PropertyGraph,
    params: GeneratorParams,
    *,
    vertex_labels: Iterable[str] = (),
    edge_labels: Iterable[str] = (),
) -> Graph:
    """Generate directly into ``db``, skipping the filesystem.  Output
    is element-for-element what generate + load_graph_pair would give."""
    header, vrows, erows = generate_rows(params)
    attr_names = header[1:]
    records = [
        Record((nm, cell) for nm, cell in zip(attr_names, row[1:]) if cell != "")
        for row in vrows
    ]
    triples = [(s, d, EMPTY_RECORD) for s, d in erows]
    return component_from_payloads(
        db,
        records,
        triples,
        vertex_labels=[vertex_labels] * len(records),
        edge_labels=[edge_labels] * len(triples),
    )


def generate(params: GeneratorParams, out_dir, basename: str = "graph") -> tuple[str, str]:
    """Write the generated graph as a loadable file pair; returns the
    two paths."""
    os.makedirs(out_dir, exist_ok=True)
    header, vrows, erows = generate_rows(params)
    vertex_path = os.path.join(out_dir, f"{basename}.vertices.csv")
    edge_path = os.path.join(out_dir, f"{basename}.edges.tsv")
    with open(vertex_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(vrows)
    with open(edge_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter="\t")
        w.writerows(erows)
    return vertex_path, edge_path


# ---------------------------------------------------------------------------
# config files


def read_config(path) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"expected key=value, got {line!r}", line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise DataFormatError("empty key", line_no)
            out[key] = value.strip()
    return out
