"""Graph theta-joins, reference implementation.

A graph join runs the vertex condition through the relational
theta-join, then derives the result's edges purely from endpoint
adjacency: a left edge and a right edge bond when their source pair
and their target pair each produced a vertex of the joined vertex set.

Two edge semantics exist.  *Conjunctive* keeps only merged bonded
pairs.  *Disjunctive* additionally preserves every real edge that
bonded with nothing: each such edge is merged with a freshly minted
placeholder edge on the opposite side, once per pair of opposite
vertices its endpoints joined with.

Everything here favours clarity over speed; the optimized engine in
``engine.py`` must agree with this module on every input.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .model import (
    EMPTY_RECORD,
    Element,
    Graph,
    IndexedSet,
    PropertyGraph,
    ValidationError,
    _pair_index,
    combine_elements,
    fresh_fill_start,
    pick_canonical,
)
from .relational import ThetaPredicate, theta_join

__all__ = ["JoinSpec", "JoinResult", "join_vertices", "graph_join", "CONJUNCTIVE", "DISJUNCTIVE"]

CONJUNCTIVE = "conjunctive"
DISJUNCTIVE = "disjunctive"


class _JoinSpecFields(NamedTuple):
    theta: ThetaPredicate
    semantics: str = CONJUNCTIVE


class JoinSpec(_JoinSpecFields):
    """What to join on and which edge semantics to apply."""

    __slots__ = ()

    def __new__(cls, theta: ThetaPredicate, semantics: str = CONJUNCTIVE):
        if semantics not in (CONJUNCTIVE, DISJUNCTIVE):
            raise ValidationError(f"unknown semantics {semantics!r}")
        return super().__new__(cls, theta, semantics)


class JoinResult(NamedTuple):
    """A joined component registered in the operands' database."""

    db: PropertyGraph
    component_id: int
    vertices: IndexedSet
    edges: IndexedSet
    provenance: dict
    left_component: int = 0
    right_component: int = 0
    spec: Optional[JoinSpec] = None

    @property
    def graph(self) -> Graph:
        return self.db.get_graph(self.component_id)


def join_vertices(left: Graph, right: Graph, theta: ThetaPredicate) -> IndexedSet:
    """The joined vertex set on its own."""
    if left.db is not right.db:
        raise ValidationError("graph operands must live in the same database")
    return theta_join(left.vertices, right.vertices, theta)


def graph_join(left: Graph, right: Graph, spec: JoinSpec) -> JoinResult:
    """Join two components of one database and register the result as a
    new component of that database."""
    if left.db is not right.db:
        raise ValidationError("graph operands must live in the same database")
    db = left.db
    theta = spec.theta
    lvu = left.vertices.universe
    rvu = right.vertices.universe
    leu = left.edges.universe
    reu = right.edges.universe

    # Vertex phase.  Distinct operand pairs can land on one (payload,
    # replica) value; each value keeps the candidate with the least
    # operand-tree key, and every contributing pair maps to that kept
    # instance so the edge phase sees one canonical vertex per value.
    v_cands = []
    for x in left.vertices:
        for y in right.vertices:
            if theta(x, y) and x.record.agrees_with(y.record):
                v_cands.append((x, y, combine_elements(x, y, lvu, rvu)))
    v_best = pick_canonical((m, None) for _, _, m in v_cands)
    joined_pair: dict[tuple[Element, Element], Element] = {
        (x, y): v_best[m][0] for x, y, m in v_cands
    }
    vjoin = IndexedSet(m for m, _ in v_best.values())

    left_lam = {e: db.endpoints_of(e) for e in left.edges}
    right_lam = {f: db.endpoints_of(f) for f in right.edges}

    # Edge phase.  Bonding is decided by the endpoint pairs alone; edge
    # payload agreement gates emission but never bondedness, so a pair
    # that bonds with a conflicting payload still suppresses fills.
    e_cands = []
    bonded_left: set[Element] = set()
    bonded_right: set[Element] = set()
    for e in left.edges:
        e_src, e_dst = left_lam[e]
        for f in right.edges:
            f_src, f_dst = right_lam[f]
            src = joined_pair.get((e_src, f_src))
            if src is None:
                continue
            dst = joined_pair.get((e_dst, f_dst))
            if dst is None:
                continue
            bonded_left.add(e)
            bonded_right.add(f)
            if e.record.agrees_with(f.record):
                e_cands.append((combine_elements(e, f, leu, reu), (src, dst)))

    e_best = pick_canonical(e_cands)
    merged_edges = [c for c, _ in e_best.values()]
    endpoint_map = {c: pair for c, pair in e_best.values()}

    placeholder_entries: dict[Element, tuple[tuple[Element, Element], frozenset]] = {}

    if spec.semantics == DISJUNCTIVE:
        # Preserved edges: every real edge that bonded with nothing is
        # merged with a placeholder on the opposite side, once per pair
        # of opposite vertices its endpoints joined with.
        fills = []
        for e in left.edges:
            if e in bonded_left:
                continue
            e_src, e_dst = left_lam[e]
            src_mates = [v for v in right.vertices if (e_src, v) in joined_pair]
            dst_mates = [v for v in right.vertices if (e_dst, v) in joined_pair]
            for v in src_mates:
                for v2 in dst_mates:
                    fills.append((e, v, v2, "left"))
        for f in right.edges:
            if f in bonded_right:
                continue
            f_src, f_dst = right_lam[f]
            src_mates = [v for v in left.vertices if (v, f_src) in joined_pair]
            dst_mates = [v for v in left.vertices if (v, f_dst) in joined_pair]
            for v in src_mates:
                for v2 in dst_mates:
                    fills.append((f, v, v2, "right"))

        # Placeholder numbering must not depend on which operand is
        # written first, so the ordering key ignores the side.
        fills.sort(key=lambda t: (t[0].sort_key, t[1].sort_key, t[2].sort_key))
        pool_start = fresh_fill_start(leu, reu, (c.replica for c in merged_edges))
        fill_offset = pool_start + len(fills)

        for k, (real, v, v2, side) in enumerate(fills):
            eps = Element(EMPTY_RECORD, pool_start + k, synthetic=True)
            placeholder_entries[eps] = ((v, v2), frozenset())
            idx = _pair_index(real.replica, eps.replica, fill_offset)
            r_src, r_dst = left_lam[real] if side == "left" else right_lam[real]
            if side == "left":
                merged = Element(real.record, idx, parts=(real, eps))
                pair = (joined_pair[(r_src, v)], joined_pair[(r_dst, v2)])
            else:
                merged = Element(real.record, idx, parts=(eps, real))
                pair = (joined_pair[(v, r_src)], joined_pair[(v2, r_dst)])
            merged_edges.append(merged)
            endpoint_map[merged] = pair

    vertex_labels = {
        m: db.vertex_labels_of(m.parts[0]) | db.vertex_labels_of(m.parts[1]) for m in vjoin
    }
    edge_labels = {}
    for c in merged_edges:
        x, y = c.parts
        lx = frozenset() if x.synthetic else db.edge_labels_of(x)
        ly = frozenset() if y.synthetic else db.edge_labels_of(y)
        edge_labels[c] = lx | ly

    if placeholder_entries:
        db.attach_placeholder_edges(placeholder_entries)

    ejoin = IndexedSet(merged_edges)
    cid = db.register_component(vjoin, ejoin, endpoint_map, vertex_labels, edge_labels)

    provenance = {el: el.parts for el in list(vjoin) + list(ejoin)}
    return JoinResult(
        db=db,
        component_id=cid,
        vertices=vjoin,
        edges=ejoin,
        provenance=provenance,
        left_component=left.component_id,
        right_component=right.component_id,
        spec=spec,
    )
