"""Reference theta-join over indexed sets.

This is the slow, obviously correct layer: a double loop that tries
every element pair, applies the predicate, insists that shared
attribute names agree, and merges the survivors.  The optimized engine
is checked against it, never the other way round.
"""

from __future__ import annotations

from typing import Callable, Optional

from .model import (
    Element,
    IndexedSet,
    ValidationError,
    combine_elements,
    pick_canonical,
)

__all__ = ["ThetaPredicate", "invert_predicate", "theta_join", "collapse_canonical"]


class ThetaPredicate:
    """A join condition over two indexed elements.

    Three shapes cover everything this package needs:

    * ``always_true`` - the cross-product condition;
    * ``equalities(pairs)`` - a conjunction of left-attr = right-attr
      equalities, the shape the optimized engine accepts;
    * ``opaque(fn)`` - an arbitrary boolean function of both elements.

    Instances are callable as ``theta(left, right)``.  An equality over
    an attribute missing on either side is unsatisfied, not an error.
    """

    __slots__ = ("kind", "pairs", "fn", "swapped")

    def __init__(
        self,
        kind: str,
        pairs: tuple[tuple[str, str], ...] = (),
        fn: Optional[Callable[[Element, Element], bool]] = None,
        swapped: bool = False,
    ):
        if kind not in ("true", "eq", "opaque"):
            raise ValidationError(f"unknown predicate kind {kind!r}")
        self.kind = kind
        self.pairs = tuple(pairs)
        self.fn = fn
        self.swapped = swapped

    @classmethod
    def always_true(cls) -> "ThetaPredicate":
        return cls("true")

    @classmethod
    def equalities(cls, pairs) -> "ThetaPredicate":
        pairs = tuple((str(a), str(b)) for a, b in pairs)
        if not pairs:
            raise ValidationError("an equality predicate needs at least one attribute pair")
        return cls("eq", pairs=pairs)

    @classmethod
    def opaque(cls, fn: Callable[[Element, Element], bool]) -> "ThetaPredicate":
        return cls("opaque", fn=fn)

    def __call__(self, left: Element, right: Element) -> bool:
        if self.kind == "true":
            return True
        if self.kind == "eq":
            lrec, rrec = left.record, right.record
            for a, b in self.pairs:
                va = lrec.get(a)
                if va is None or va != rrec.get(b):
                    return False
            return True
        if self.swapped:
            return self.fn(right, left)
        return self.fn(left, right)

    def __repr__(self) -> str:
        if self.kind == "eq":
            inner = " & ".join(f"{a}={b}" for a, b in self.pairs)
            return f"ThetaPredicate({inner})"
        return f"ThetaPredicate({self.kind})"


def invert_predicate(theta: ThetaPredicate) -> ThetaPredicate:
    """The same condition with its sides exchanged, so that
    ``invert(theta)(y, x) == theta(x, y)``."""
    if theta.kind == "true":
        return theta
    if theta.kind == "eq":
        return ThetaPredicate("eq", pairs=tuple((b, a) for a, b in theta.pairs))
    return ThetaPredicate("opaque", fn=theta.fn, swapped=not theta.swapped)


def collapse_canonical(candidates) -> list[Element]:
    """Deduplicate merged elements that landed on the same (payload,
    replica) pair, keeping for each the operand tree whose base-element
    key multiset is smallest.  Two operand pairs can collide only when
    both replicas live in both universes and the merged payloads agree;
    the survivor must not depend on enumeration order."""
    return [e for e, _ in pick_canonical((e, None) for e in candidates).values()]


def theta_join(left: IndexedSet, right: IndexedSet, theta: ThetaPredicate) -> IndexedSet:
    """All merges of a left and a right element satisfying the
    condition, with shared attribute names additionally required to
    agree so the right-biased payload merge never silently drops a
    conflicting value."""
    lu, ru = left.universe, right.universe
    out = []
    for x in left:
        for y in right:
            if not theta(x, y):
                continue
            if not x.record.agrees_with(y.record):
                continue
            out.append(combine_elements(x, y, lu, ru))
    return IndexedSet(collapse_canonical(out))
