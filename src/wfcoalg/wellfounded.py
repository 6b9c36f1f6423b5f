"""Well-founded parts, the well-foundedness decision, and coreflection."""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import compress
from typing import Any, Dict, Iterator

from ._record import FrozenRecord
from .errors import InternalConsistencyError, NotAHomomorphism, NotWellFounded
from .finset import Carrier, FinMap, Subobject, element_key
from .coalgebra import (Coalgebra, canonical_graph, induced_subcoalgebra,
                        is_coalgebra_hom)


class RankChain(Sequence):
    """The Kleene chain of next-time from the empty set, read off the ranks:
    stage i is {a : rank(a) < i}, and the last two stages are the
    well-founded part.  A stage is built when it is read."""

    def __init__(self, carrier: Carrier, rank: Dict[Any, int]):
        self._carrier, self._rank = carrier, rank
        self._len = max(rank.values()) + 3 if rank else 2

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        stage = range(self._len)[i]  # as for a tuple: -1 is the last, IndexError
        if isinstance(stage, range):  # a slice: the tuple of those stages
            return tuple(map(self.__getitem__, stage))
        return Subobject(self._carrier,
                         frozenset(a for a, r in self._rank.items() if r < stage))

    def stage_texts(self) -> Iterator[str]:
        """Each stage's members as ``str`` in ``element_key`` order, joined by ", "."""
        ranked = sorted(self._rank, key=element_key)
        labels, mask = list(map(str, ranked)), bytearray(len(ranked))
        joining = [[] for _ in range(self._len)]  # stage i gains the states of rank i - 1
        for j, a in enumerate(ranked):
            joining[self._rank[a] + 1].append(j)
        for positions in joining:
            for j in positions:
                mask[j] = 1
            yield ", ".join(compress(labels, mask))


class WfPartResult(FrozenRecord):
    """Least fixed point of next-time with its iteration trace, ``chain``:
    strictly increasing, its last two stages equal, and left out of equality."""

    _fields = ("coalgebra", "part", "chain")

    def _key(self) -> tuple:
        return self.coalgebra, self.part

    @cached_property
    def structure(self) -> Coalgebra:
        """The part as a subcoalgebra, built on first access."""
        structure = induced_subcoalgebra(self.coalgebra, self.part)
        if structure is None:
            raise InternalConsistencyError("the well-founded part is not a subcoalgebra")
        return structure


def wf_part(coalg: Coalgebra) -> WfPartResult:
    """The least fixed point of next-time: the states that one rank pass over
    the canonical graph ranks, with the chain of stages up to it."""
    rank = canonical_graph(coalg).ranking
    return WfPartResult(coalg, Subobject(coalg.carrier, frozenset(rank)),
                        RankChain(coalg.carrier, rank))


def is_wellfounded(coalg: Coalgebra) -> bool:
    """Is the full subset the only fixed point of next-time, that is, does the
    rank pass over the canonical graph rank every state?"""
    return wf_part(coalg).part.is_full()


def coreflect(f: FinMap, src: Coalgebra, dst: Coalgebra) -> FinMap:
    """Factor a homomorphism from a well-founded coalgebra through wf_part(dst).

    Returns the corestriction of f onto the well-founded part of dst; it
    is the unique homomorphism g with inclusion . g = f.
    """
    if not is_wellfounded(src):
        raise NotWellFounded("source coalgebra is not well-founded")
    if not is_coalgebra_hom(f, src, dst):
        raise NotAHomomorphism("map does not commute with the structures")
    result = wf_part(dst)
    part_carrier = result.part.as_carrier()
    for b in src.carrier:
        if f(b) not in result.part:
            # cannot happen: images of well-founded coalgebras land in the part
            raise InternalConsistencyError(
                f"homomorphism image {f(b)!r} escapes the well-founded part")
    return FinMap(src.carrier, part_carrier, f.values)
