"""Core data model for property-graph joins.

Vertices and edges are attributed tuples living in *indexed sets*:
multisets whose members carry a replica index, so two otherwise equal
tuples stay distinguishable.  Everything the join machinery needs from
this module boils down to three ideas:

* a type-directed merge (``combine_*``) that unions label sets, merges
  attribute tuples with right bias, folds two replica indices into one
  fresh index, and acts componentwise on pairs;
* elements that stay decomposable after merging (an element built by
  ``combine_elements`` remembers its two operands), so a base map such
  as a labelling can be extended at run time over merged values by
  recursively taking them apart;
* a database object holding disjoint graph components over shared
  vertex/edge sets, able to answer label and endpoint queries for
  merged elements it never saw explicitly.

Attribute names and values are opaque text; equality is exact string
equality and no numeric coercion ever happens.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = [
    "GraphJoinError",
    "IncompleteBucket",
    "ValidationError",
    "UndefinedIndexUniverse",
    "UndefinedExtension",
    "UnknownComponent",
    "SpecMismatch",
    "DataFormatError",
    "Record",
    "EMPTY_RECORD",
    "Element",
    "IndexedSet",
    "PropertyGraph",
    "Graph",
    "component_from_payloads",
    "combine_sets",
    "combine_records",
    "combine_indices",
    "combine_elements",
    "combine_pairs",
    "combine_value",
    "decompose",
    "pick_canonical",
    "runtime_extend",
    "fresh_fill_start",
]


# ---------------------------------------------------------------------------
# errors


class GraphJoinError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GraphJoinError):
    """A model invariant or operation precondition was violated."""


class UndefinedIndexUniverse(GraphJoinError):
    """Replica indices cannot be folded over an empty index universe."""


class UndefinedExtension(GraphJoinError):
    """A run-time extension query hit a value that is neither in the
    base map nor decomposable into covered operands."""


class UnknownComponent(GraphJoinError):
    """A component id does not exist in the database."""


class SpecMismatch(GraphJoinError):
    """Two engine inputs disagree on the join they were prepared for."""


class IncompleteBucket(GraphJoinError):
    """A bucket both operands of a join hold is incomplete on one of
    them: an operand of ``prepare_files`` met a partner it was not
    pruned to."""


class DataFormatError(GraphJoinError):
    """A data file is malformed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# records (attributed tuples)


class Record:
    """An immutable finite map from attribute names to text values."""

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, bindings: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        m = dict(bindings)
        for k, v in m.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValidationError(
                    f"attribute names and values must be text, got {k!r}={v!r}"
                )
        self._map = m
        self._items = tuple(sorted(m.items()))
        self._hash = hash(self._items)

    @classmethod
    def _sorted(cls, names: tuple[str, ...], values: Iterable[str]) -> "Record":
        """The record binding ``names``, strictly ascending, to
        ``values``, all text.  Nothing is checked or sorted: the index
        decoder and the file reader call it on names and values they
        have checked already."""
        rec = cls.__new__(cls)
        rec._items = items = tuple(zip(names, values))
        rec._map = dict(items)
        rec._hash = hash(items)
        return rec

    @property
    def items(self) -> tuple[tuple[str, str], ...]:
        """Bindings as a sorted tuple of pairs; doubles as a sort key."""
        return self._items

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._map.get(name, default)

    def __getitem__(self, name: str) -> str:
        return self._map[name]

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __len__(self) -> int:
        return len(self._map)

    def combine(self, other: "Record") -> "Record":
        # Right operand wins wherever both bind the same attribute.
        # Both operands were validated at construction, so the merge
        # skips __init__ and its per-binding checks; this is the join
        # engine's hottest allocation.
        if not self._map:
            return other
        if not other._map:
            return self
        merged = dict(self._map)
        merged.update(other._map)
        rec = Record.__new__(Record)
        rec._map = merged
        if len(merged) == len(self._map) + len(other._map):
            # no shared name: the two sorted runs of the operands' own
            # pairs, which the sort merges
            rec._items = tuple(sorted(self._items + other._items))
        else:
            rec._items = tuple(sorted(merged.items()))
        rec._hash = hash(rec._items)
        return rec

    def agrees_with(self, other: "Record") -> bool:
        """True when both records bind equal values on every shared name."""
        a, b = self._map, other._map
        if len(b) < len(a):
            a, b = b, a
        for k, v in a.items():
            w = b.get(k)
            if w is not None and w != v:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return "{" + inner + "}"


EMPTY_RECORD = Record()


# ---------------------------------------------------------------------------
# indexed elements


class Element:
    """A record plus a replica index.

    Two elements are equal exactly when payload and replica agree; a
    merged element additionally remembers the two operands it came from
    (``parts``) so label/endpoint maps can be extended over it later.
    ``synthetic`` marks the empty placeholder edges minted by the
    disjunctive join; it never takes part in equality.
    """

    __slots__ = ("record", "replica", "parts", "synthetic", "_hash", "_dkey")

    def __init__(
        self,
        record: Record,
        replica: int,
        parts: Optional[tuple["Element", "Element"]] = None,
        synthetic: bool = False,
    ):
        if not isinstance(replica, int) or replica < 0:
            raise ValidationError(f"replica index must be a non-negative int, got {replica!r}")
        self.record = record
        self.replica = replica
        self.parts = parts
        self.synthetic = synthetic
        self._hash = hash((record._hash, replica))
        self._dkey: Optional[tuple] = None

    @property
    def sort_key(self) -> tuple:
        return (self.record._items, self.replica)

    def leaves(self) -> Iterator["Element"]:
        """Base operands of this element, left to right."""
        stack = [self]
        out = []
        while stack:
            e = stack.pop()
            if e.parts is None:
                out.append(e)
            else:
                stack.append(e.parts[1])
                stack.append(e.parts[0])
        return iter(out)

    def decomposition(self) -> tuple["Element", ...]:
        return tuple(self.leaves())

    def decomposition_key(self) -> tuple:
        """Sorted multiset of base (payload, replica) pairs; a total
        order used to pick one canonical operand tree when two merges
        land on the same element."""
        if self._dkey is None:
            self._dkey = tuple(sorted((l.record._items, l.replica) for l in self.leaves()))
        return self._dkey

    def real_decomposition_key(self) -> tuple:
        """Like :meth:`decomposition_key` but without synthetic leaves."""
        return tuple(
            sorted((l.record._items, l.replica) for l in self.leaves() if not l.synthetic)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.replica == other.replica
            and self.record == other.record
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tag = "~" if self.synthetic else ""
        return f"{tag}{self.record!r}_{self.replica}"


def pick_canonical(pairs: Iterable[tuple[Element, object]]) -> dict:
    """Per distinct element of the ``(element, data)`` pairs, the pair
    whose element has the least :meth:`Element.decomposition_key`, the
    first one on a tie: merges that land on one (payload, replica) value
    keep one canonical operand tree, whatever order they come in.
    Returned as ``{element: kept pair}`` in order of first appearance."""
    best: dict = {}
    for pair in pairs:
        e = pair[0]
        cur = best.get(e)
        if cur is None or e.decomposition_key() < cur[0].decomposition_key():
            best[e] = pair
    return best


def decompose(value: Element) -> Optional[tuple[Element, Element]]:
    """The two operands a merged element was built from, or None."""
    if isinstance(value, Element):
        return value.parts
    return None


# ---------------------------------------------------------------------------
# indexed sets


class IndexedSet:
    """An immutable set of elements with no duplicate (payload, replica)
    pair, kept in canonical order, together with the index universe the
    replica indices range over."""

    __slots__ = ("elements", "universe", "_members")

    def __init__(self, elements: Iterable[Element] = (), universe: Optional[Iterable[int]] = None):
        self._fill(sorted(elements, key=lambda e: (e.record._items, e.replica)), universe)

    @classmethod
    def _canonical(cls, elements: Iterable[Element]) -> "IndexedSet":
        """Build from elements already in canonical order, without
        sorting them again; duplicates are still rejected."""
        s = cls.__new__(cls)
        s._fill(tuple(elements), None)
        return s

    def _fill(self, elems: Sequence[Element], universe: Optional[Iterable[int]]) -> None:
        members = frozenset(elems)
        if len(members) != len(elems):
            raise ValidationError("duplicate (payload, replica) pair in indexed set")
        self.elements: tuple[Element, ...] = tuple(elems)
        self._members = members
        if universe is None:
            self.universe = frozenset(e.replica for e in elems)
        else:
            self.universe = frozenset(universe)
            missing = [e for e in elems if e.replica not in self.universe]
            if missing:
                raise ValidationError(
                    f"element replica {missing[0].replica} outside the declared universe"
                )

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "IndexedSet":
        """Build from a multiset of payloads: the k-th occurrence of a
        payload becomes its replica k, so each payload covers 1..count."""
        counts: dict[Record, int] = {}
        elems = []
        for rec in records:
            n = counts.get(rec, 0) + 1
            counts[rec] = n
            elems.append(Element(rec, n))
        return cls(elems)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __contains__(self, element: Element) -> bool:
        return element in self._members

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IndexedSet)
            and self.elements == other.elements
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.universe))

    def __repr__(self) -> str:
        return f"IndexedSet({list(self.elements)!r})"


# ---------------------------------------------------------------------------
# the merge family


def combine_sets(a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
    """Label sets merge by union."""
    return frozenset(a) | frozenset(b)


def combine_records(f: Record, g: Record) -> Record:
    """Attribute tuples merge right-biased: ``g`` wins on shared names."""
    return f.combine(g)


def _pair_index(i: int, j: int, offset: int) -> int:
    # offset + triangular(i + j) + min:  symmetric in (i, j), injective on
    # unordered pairs, and strictly larger than offset - 1.
    s = i + j
    return offset + s * (s + 1) // 2 + min(i, j)


def combine_indices(i: int, m_universe: Iterable[int], j: int, n_universe: Iterable[int]) -> int:
    """Fold two replica indices into a fresh one.

    The result exceeds the maxima of both universes, is symmetric in
    its arguments, and never coincides for two different unordered
    index pairs drawn from the same pair of universes.
    """
    m = frozenset(m_universe)
    n = frozenset(n_universe)
    if not m or not n:
        raise UndefinedIndexUniverse("cannot combine indices over an empty index universe")
    if i not in m:
        raise ValidationError(f"index {i} not in its declared universe")
    if j not in n:
        raise ValidationError(f"index {j} not in its declared universe")
    return _pair_index(i, j, max(max(m), max(n)) + 1)


def combine_elements(
    x: Element,
    y: Element,
    x_universe: Iterable[int],
    y_universe: Iterable[int],
) -> Element:
    """Merge two indexed elements: payloads merge right-biased, replica
    indices fold via :func:`combine_indices`, and the result keeps both
    operands so it can be decomposed again."""
    idx = combine_indices(x.replica, x_universe, y.replica, y_universe)
    return Element(x.record.combine(y.record), idx, parts=(x, y))


def combine_value(a, b, a_universe=None, b_universe=None):
    """Type-directed merge: dispatch on the operands' shape."""
    if isinstance(a, Element) and isinstance(b, Element):
        if a_universe is None or b_universe is None:
            raise ValidationError("merging elements requires their index universes")
        return combine_elements(a, b, a_universe, b_universe)
    if isinstance(a, Record) and isinstance(b, Record):
        return combine_records(a, b)
    if isinstance(a, (set, frozenset)) and isinstance(b, (set, frozenset)):
        return combine_sets(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return combine_pairs(a, b, a_universe, b_universe)
    raise ValidationError(f"cannot merge values of types {type(a).__name__}/{type(b).__name__}")


def combine_pairs(p: tuple, q: tuple, p_universe=None, q_universe=None) -> tuple:
    """Merge two pairs componentwise (endpoint pairs, mostly)."""
    if len(p) != 2 or len(q) != 2:
        raise ValidationError("pair merge expects 2-tuples")
    return (
        combine_value(p[0], q[0], p_universe, q_universe),
        combine_value(p[1], q[1], p_universe, q_universe),
    )


def runtime_extend(base: Mapping, z, combine: Callable):
    """Evaluate a base map over a possibly merged value.

    Values found in ``base`` answer directly; merged values answer by
    recursively evaluating both operands and merging the two results
    with ``combine``.  Evaluation follows the recorded operand tree and
    each node is computed once.
    """
    cache: dict[int, object] = {}

    def walk(v):
        key = id(v)
        if key in cache:
            return cache[key]
        if v in base:
            out = base[v]
        else:
            pieces = decompose(v)
            if pieces is None:
                raise UndefinedExtension(f"no base entry and no decomposition for {v!r}")
            out = combine(walk(pieces[0]), walk(pieces[1]))
        cache[key] = out
        return out

    return walk(z)


def fresh_fill_start(*index_pools: Iterable[int]) -> int:
    """First replica index safely above everything already in use.

    Placeholder edges minted by the disjunctive join are numbered from
    here; starting past the merged conjunctive indices keeps every fill
    element distinct from every bonded one (the folded index of a fill
    strictly exceeds the largest index in its extended universes).
    """
    top = 0
    for pool in index_pools:
        for v in pool:
            if v > top:
                top = v
    return top + 1


# ---------------------------------------------------------------------------
# the database


class _Component:
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: IndexedSet, edges: IndexedSet):
        self.vertices = vertices
        self.edges = edges


class Graph:
    """A view of one database component."""

    __slots__ = ("db", "component_id", "vertices", "edges")

    def __init__(self, db: "PropertyGraph", component_id: int, vertices: IndexedSet, edges: IndexedSet):
        self.db = db
        self.component_id = component_id
        self.vertices = vertices
        self.edges = edges

    def vertex_labels_of(self, vertex: Element) -> frozenset[str]:
        return self.db.vertex_labels_of(vertex)

    def edge_labels_of(self, edge: Element) -> frozenset[str]:
        return self.db.edge_labels_of(edge)

    def endpoints_of(self, edge: Element) -> tuple[Element, Element]:
        return self.db.endpoints_of(edge)

    def __repr__(self) -> str:
        return f"Graph(component={self.component_id}, |V|={len(self.vertices)}, |E|={len(self.edges)})"


class PropertyGraph:
    """A database of disjoint graph components over shared vertex and
    edge sets, with total labelling and endpoint maps.

    Construction happens through :meth:`register_component`; everything
    registered is immutable afterwards.  Label and endpoint queries on
    merged elements that were never registered resolve by decomposing
    the element and merging the answers of its operands.
    """

    def __init__(self):
        self._components: dict[int, _Component] = {}
        self._vertex_labels: dict[Element, frozenset[str]] = {}
        self._edge_labels: dict[Element, frozenset[str]] = {}
        self._lambda: dict[Element, tuple[Element, Element]] = {}
        self._vertex_home: dict[Element, int] = {}
        self._edge_home: dict[Element, int] = {}
        self._phantom_edges: set[Element] = set()
        self._vertex_mu: dict[Record, int] = {}
        self._edge_mu: dict[Record, int] = {}
        self._next_id = 0

    # -- construction

    def register_component(
        self,
        vertices: IndexedSet,
        edges: IndexedSet,
        endpoints: Mapping[Element, tuple[Element, Element]],
        vertex_labels: Optional[Mapping[Element, Iterable[str]]] = None,
        edge_labels: Optional[Mapping[Element, Iterable[str]]] = None,
    ) -> int:
        """Add a component.  Vertices and edges are separate sorts;
        uniqueness is enforced within each sort across the whole
        database, and every edge must map to two endpoint vertices of
        this same component.  Label maps are per sort because one value
        may be a vertex and an edge at once."""
        vertex_labels = vertex_labels or {}
        edge_labels = edge_labels or {}
        for v in vertices:
            if v in self._vertex_home:
                raise ValidationError(f"vertex {v!r} already exists in the database")
        for e in edges:
            if e in self._edge_home or e in self._phantom_edges:
                raise ValidationError(f"edge {e!r} already exists in the database")
        canon_v = {v: v for v in vertices}
        fixed_lambda = {}
        for e in edges:
            ep = endpoints.get(e)
            if ep is None:
                raise ValidationError(f"edge {e!r} has no endpoints")
            src = canon_v.get(ep[0])
            dst = canon_v.get(ep[1])
            if src is None or dst is None:
                raise ValidationError(f"edge {e!r} has an endpoint outside its component")
            fixed_lambda[e] = (src, dst)

        cid = self._next_id
        self._next_id += 1
        self._components[cid] = _Component(vertices, edges)
        for v in vertices:
            self._vertex_home[v] = cid
            self._vertex_labels[v] = frozenset(vertex_labels.get(v, ()))
            self._vertex_mu[v.record] = self._vertex_mu.get(v.record, 0) + 1
        for e in edges:
            self._edge_home[e] = cid
            self._edge_labels[e] = frozenset(edge_labels.get(e, ()))
            self._lambda[e] = fixed_lambda[e]
            self._edge_mu[e.record] = self._edge_mu.get(e.record, 0) + 1
        return cid

    def attach_placeholder_edges(
        self,
        entries: Mapping[Element, tuple[tuple[Element, Element], Iterable[str]]],
    ) -> None:
        """Record endpoint/label facts for placeholder edges minted by a
        disjunctive join.  They belong to no component but queries on
        merged fill edges must be able to reach them."""
        for eps, (pair, labs) in entries.items():
            if eps in self._edge_home or eps in self._phantom_edges:
                raise ValidationError(f"placeholder {eps!r} collides with an existing edge")
            self._phantom_edges.add(eps)
            self._lambda[eps] = (pair[0], pair[1])
            self._edge_labels[eps] = frozenset(labs)

    # -- lookup

    def get_graph(self, component_id: int) -> Graph:
        comp = self._components.get(component_id)
        if comp is None:
            raise UnknownComponent(f"no component with id {component_id}")
        return Graph(self, component_id, comp.vertices, comp.edges)

    def vertex_labels_of(self, vertex: Element) -> frozenset[str]:
        hit = self._vertex_labels.get(vertex)
        if hit is not None:
            return hit
        if vertex.parts is None:
            raise UndefinedExtension(f"labels undefined for vertex {vertex!r}")
        x, y = vertex.parts
        return self.vertex_labels_of(x) | self.vertex_labels_of(y)

    def edge_labels_of(self, edge: Element) -> frozenset[str]:
        hit = self._edge_labels.get(edge)
        if hit is not None:
            return hit
        if edge.parts is None:
            raise UndefinedExtension(f"labels undefined for edge {edge!r}")
        x, y = edge.parts
        return self.edge_labels_of(x) | self.edge_labels_of(y)

    def endpoints_of(self, element: Element) -> tuple[Element, Element]:
        hit = self._lambda.get(element)
        if hit is not None:
            return hit
        if element.parts is None:
            raise UndefinedExtension(f"endpoints undefined for {element!r}")
        x, y = element.parts
        ux, wx = self.endpoints_of(x)
        uy, wy = self.endpoints_of(y)
        return (
            combine_elements(ux, uy, self._vertex_universe_of(ux), self._vertex_universe_of(uy)),
            combine_elements(wx, wy, self._vertex_universe_of(wx), self._vertex_universe_of(wy)),
        )

    def _vertex_universe_of(self, vertex: Element) -> frozenset[int]:
        cid = self._vertex_home.get(vertex)
        if cid is None:
            raise UndefinedExtension(f"vertex {vertex!r} belongs to no component")
        return self._components[cid].vertices.universe

    def vertex_multiplicity(self, payload: Record) -> int:
        return self._vertex_mu.get(payload, 0)

    def edge_multiplicity(self, payload: Record) -> int:
        return self._edge_mu.get(payload, 0)

    # -- invariants, each independently checkable

    def check_disjointness(self) -> None:
        overlap = set(self._edge_home) & self._phantom_edges
        if overlap:
            raise ValidationError("placeholder edge collides with a registered edge")

    def check_endpoint_totality(self) -> None:
        for e, cid in self._edge_home.items():
            pair = self._lambda.get(e)
            if pair is None:
                raise ValidationError(f"edge {e!r} has no endpoints")
            comp = self._components[cid]
            if pair[0] not in comp.vertices or pair[1] not in comp.vertices:
                raise ValidationError(f"edge {e!r} leaves its component")

    def check_label_totality(self) -> None:
        for v in self._vertex_home:
            if v not in self._vertex_labels:
                raise ValidationError(f"vertex {v!r} has no label set")
        for e in self._edge_home:
            if e not in self._edge_labels:
                raise ValidationError(f"edge {e!r} has no label set")

    def check_component_partition(self) -> None:
        seen_v: set[Element] = set()
        seen_e: set[Element] = set()
        for cid, comp in self._components.items():
            for v in comp.vertices:
                if v in seen_v:
                    raise ValidationError(f"vertex {v!r} appears in two components")
                seen_v.add(v)
                if self._vertex_home.get(v) != cid:
                    raise ValidationError(f"vertex {v!r} has a stale component record")
            for e in comp.edges:
                if e in seen_e:
                    raise ValidationError(f"edge {e!r} appears in two components")
                seen_e.add(e)
                if self._edge_home.get(e) != cid:
                    raise ValidationError(f"edge {e!r} has a stale component record")

    def validate(self) -> None:
        self.check_disjointness()
        self.check_endpoint_totality()
        self.check_label_totality()
        self.check_component_partition()


def component_from_payloads(
    db: PropertyGraph,
    vertex_records: Iterable[Record],
    edge_triples: Iterable[tuple[int, int, Record]] = (),
    vertex_labels: Optional[Iterable[Iterable[str]]] = None,
    edge_labels: Optional[Iterable[Iterable[str]]] = None,
) -> Graph:
    """Build a component from plain payloads.

    Replica indices count occurrences per payload, continuing whatever
    the database has already registered, so repeated payloads across
    components stay distinct elements.  Edge triples reference vertices
    by position in ``vertex_records``.
    """
    vertex_records = list(vertex_records)
    edge_triples = list(edge_triples)
    local_v: dict[Record, int] = {}
    vertices = []
    for rec in vertex_records:
        k = local_v.get(rec, 0)
        local_v[rec] = k + 1
        vertices.append(Element(rec, db.vertex_multiplicity(rec) + k + 1))
    local_e: dict[Record, int] = {}
    edges = []
    endpoints = {}
    for si, di, rec in edge_triples:
        k = local_e.get(rec, 0)
        local_e[rec] = k + 1
        el = Element(rec, db.edge_multiplicity(rec) + k + 1)
        edges.append(el)
        endpoints[el] = (vertices[si], vertices[di])
    vlabs: dict[Element, frozenset[str]] = {}
    if vertex_labels is not None:
        for v, labs in zip(vertices, vertex_labels):
            vlabs[v] = frozenset(labs)
    elabs: dict[Element, frozenset[str]] = {}
    if edge_labels is not None:
        for e, labs in zip(edges, edge_labels):
            elabs[e] = frozenset(labs)
    cid = db.register_component(
        IndexedSet(vertices), IndexedSet(edges), endpoints, vlabs, elabs
    )
    return db.get_graph(cid)


@contextmanager
def _bulk() -> Iterator[None]:
    """The collector off for a bulk build, whose new objects a collection
    would only walk again, then on again if it was; process-wide."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
