"""Reference theta-join over indexed sets: predicate shapes, agreement
semantics, collapse, and the algebraic laws the optimized path
inherits."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphjoin.model import (
    Element,
    IndexedSet,
    Record,
    ValidationError,
    combine_elements,
)
from graphjoin.relational import (
    ThetaPredicate,
    collapse_canonical,
    invert_predicate,
    theta_join,
)


def iset(*payloads):
    return IndexedSet.from_records([Record(p) for p in payloads])


# ---------------------------------------------------------------------------
# predicates


def test_predicate_shapes():
    t = ThetaPredicate.always_true()
    a = Element(Record({"x": "1"}), 1)
    b = Element(Record({"y": "2"}), 1)
    assert t(a, b)

    eq = ThetaPredicate.equalities([("x", "y")])
    assert not eq(a, b)
    assert eq(Element(Record({"x": "2"}), 1), b)
    # missing attribute is unsatisfied, not an error
    assert not eq(Element(Record({"z": "2"}), 1), b)
    assert not eq(a, Element(Record({"z": "2"}), 1))

    op = ThetaPredicate.opaque(lambda l, r: l.replica <= r.replica)
    assert op(Element(Record(), 1), Element(Record(), 2))
    assert not op(Element(Record(), 3), Element(Record(), 2))

    with pytest.raises(ValidationError):
        ThetaPredicate.equalities([])
    with pytest.raises(ValidationError):
        ThetaPredicate("nope")


def test_invert_predicate():
    a = Element(Record({"x": "1", "w": "0"}), 1)
    b = Element(Record({"y": "1"}), 2)
    eq = ThetaPredicate.equalities([("x", "y")])
    assert invert_predicate(eq).pairs == (("y", "x"),)
    assert invert_predicate(eq)(b, a) == eq(a, b)

    op = ThetaPredicate.opaque(lambda l, r: l.replica < r.replica)
    assert invert_predicate(op)(b, a) == op(a, b)
    assert invert_predicate(invert_predicate(op))(a, b) == op(a, b)

    t = ThetaPredicate.always_true()
    assert invert_predicate(t) is t


# ---------------------------------------------------------------------------
# the join itself


def test_join_requires_agreement_on_shared_names():
    r = iset({"A": "1"})
    s = iset({"A": "2"})
    assert len(theta_join(r, s, ThetaPredicate.always_true())) == 0

    r = iset({"A": "1", "B": "3"})
    s = iset({"A": "1", "C": "4"})
    out = theta_join(r, s, ThetaPredicate.always_true())
    assert [e.record.items for e in out] == [(("A", "1"), ("B", "3"), ("C", "4"))]


def test_join_cross_product_on_disjoint_domains():
    r = iset({"a": "1"}, {"a": "2"}, {"a": "3"})
    s = iset({"b": "1"}, {"b": "2"})
    out = theta_join(r, s, ThetaPredicate.always_true())
    assert len(out) == len(r) * len(s)


def test_join_merged_indices_and_parts():
    r = iset({"a": "1"})
    s = iset({"b": "2"})
    (m,) = theta_join(r, s, ThetaPredicate.always_true())
    assert m.replica == 6  # universes {1},{1}: offset 2, diagonal 2, min 1
    assert m.parts is not None
    x, y = m.parts
    assert x.record == Record({"a": "1"}) and y.record == Record({"b": "2"})
    assert m.record == Record({"a": "1", "b": "2"})


def test_join_equality_predicate_and_duplicates():
    r = IndexedSet.from_records(
        [Record({"k": "1", "pl": "l"}), Record({"k": "1", "pl": "l"}), Record({"k": "2"})]
    )
    s = IndexedSet.from_records([Record({"k2": "1", "pr": "r"})])
    out = theta_join(r, s, ThetaPredicate.equalities([("k", "k2")]))
    # both replicas of the duplicate left payload match, distinct results
    assert len(out) == 2
    assert {e.replica for e in out} == {
        # universes {1,2} and {1}: offset 3
        3 + 3 + 1,  # (1,1)
        3 + 6 + 1,  # (2,1)
    }


def test_collapse_keeps_least_decomposition():
    x1 = Element(Record({"a": "1"}), 1)
    x2 = Element(Record({"a": "2"}), 1)
    y = Element(Record({"a": "2"}), 2)
    # (x1, y) and (x2, y_swapped...) engineered to the same element:
    m1 = combine_elements(x1, y, {1}, {2})  # payload {a:2}, idx 3+T(3)+1
    m2 = combine_elements(x2, y, {1}, {2})
    assert m1 == m2  # same payload (right bias) and same folded index
    kept = collapse_canonical([m1, m2])
    assert len(kept) == 1
    assert kept[0].decomposition_key() == min(m1.decomposition_key(), m2.decomposition_key())
    # order independence
    kept_rev = collapse_canonical([m2, m1])
    assert kept_rev[0].decomposition_key() == kept[0].decomposition_key()


# ---------------------------------------------------------------------------
# laws


@st.composite
def indexed_sets(draw):
    n = draw(st.integers(0, 5))
    recs = []
    for _ in range(n):
        k = draw(st.sampled_from(["1", "2", "3"]))
        extra = draw(st.sampled_from(["", "p", "q"]))
        d = {"k": k}
        if extra:
            d[extra] = draw(st.sampled_from(["x", "y"]))
        recs.append(Record(d))
    return IndexedSet.from_records(recs)


def sig(s: IndexedSet):
    return sorted((e.record.items, e.replica, e.decomposition_key()) for e in s)


@given(indexed_sets(), indexed_sets(), st.booleans())
def test_join_commutes_up_to_predicate_inversion(r, s, use_eq):
    theta = (
        ThetaPredicate.equalities([("k", "k")]) if use_eq else ThetaPredicate.always_true()
    )
    fwd = theta_join(r, s, theta)
    rev = theta_join(s, r, invert_predicate(theta))
    assert sig(fwd) == sig(rev)


@given(indexed_sets(), indexed_sets(), indexed_sets())
def test_join_associates_on_payload_sets(r, s, t):
    # Bracketing changes which intermediate merges collide on the same
    # folded index, so on duplicate payloads both the cardinality and
    # the set of leaf multisets can differ between bracketings (see the
    # frozen instances below).  The set of payloads does not.
    theta = ThetaPredicate.equalities([("k", "k")])
    left = theta_join(theta_join(r, s, theta), t, theta)
    right = theta_join(r, theta_join(s, t, theta), theta)
    assert {e.record.items for e in left} == {e.record.items for e in right}


def test_bracketing_can_change_cardinality_but_not_signatures():
    # Frozen anomaly: the symmetric index fold makes merge collisions
    # bracketing-dependent on duplicate payloads.
    theta = ThetaPredicate.equalities([("k", "k")])
    r = IndexedSet.from_records([Record({"k": "2"})])
    s = IndexedSet.from_records([Record({"k": "2"}), Record({"k": "2"})])
    t = IndexedSet.from_records([Record({"k": "2"}), Record({"k": "2"})])
    left = theta_join(theta_join(r, s, theta), t, theta)
    right = theta_join(r, theta_join(s, t, theta), theta)
    assert len(left) == 4 and len(right) == 3
    lsig = {(e.record.items, e.decomposition_key()) for e in left}
    rsig = {(e.record.items, e.decomposition_key()) for e in right}
    assert lsig == rsig


def test_bracketing_can_change_leaf_sets():
    # Frozen counterexample to leaf-set associativity: s_2+t_1 and
    # s_1+t_2 fold to one index, so the right bracketing keeps a single
    # (s, t) leaf pair where the left one keeps both, and the leaf set
    # (r_1, s_2, t_1) exists only on the left.  Payload sets still agree.
    theta = ThetaPredicate.equalities([("k", "k")])
    r = IndexedSet.from_records([Record({"k": "1"})])
    s = IndexedSet.from_records([Record({"k": "1"})] * 2)
    t = IndexedSet.from_records([Record({"k": "1", "p": "x"})] * 2)
    left = theta_join(theta_join(r, s, theta), t, theta)
    right = theta_join(r, theta_join(s, t, theta), theta)
    assert len(left) == 4 and len(right) == 3
    assert {e.record.items for e in left} == {e.record.items for e in right}
    lsig = {(e.record.items, e.decomposition_key()) for e in left}
    rsig = {(e.record.items, e.decomposition_key()) for e in right}
    assert rsig < lsig


@given(indexed_sets())
def test_join_never_collides_distinct_leaf_multisets(r):
    out = theta_join(r, r, ThetaPredicate.always_true())
    by_identity = {}
    for e in out:
        key = (e.record.items, e.replica)
        assert key not in by_identity
        by_identity[key] = e
