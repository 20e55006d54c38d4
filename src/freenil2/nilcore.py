"""Elements of the rank-n free two-step nilpotent group, in normal form.

An element is stored as the exponent data of its unique normal form

    x1^a1 * ... * xn^an * prod_{i<j} [xi, xj]^{c_ij}

with the commutator convention [a, b] = a^-1 b^-1 a b.  Every commutator is
central, and the commutator of two elements depends only on their exponent
vectors modulo the commutator subgroup; those two facts pin down the closed
multiplication formula used here.

``reduce_word`` is an intentionally naive letter-by-letter rewriter kept free
of any shared code with the closed-form product, so the two can cross-check
each other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from operator import add, neg

from .errors import IndexOutOfRank, RankMismatch
from .zlinalg import int_entries, is_unimodular_vector


# Largest rank accepted from text and documents.  An element stores
# rank*(rank-1)/2 commutator exponents, and compose builds a square matrix of
# that size when sigma's abelianization is not a diagonal sign matrix, so a
# rank from input is bounded before anything is sized by it.
MAX_RANK = 32


@lru_cache(maxsize=None)
def pair_list(rank: int) -> tuple[tuple[int, int], ...]:
    """All commutator index pairs (i, j), 1 <= i < j <= rank, lexicographic."""
    return tuple((i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1))


def offset_support_split(rank: int, i: int) -> tuple[list[int], list[int]]:
    """Positions in the comm vector of the pairs containing / avoiding index i."""
    through, avoiding = [], []
    for k, (a, b) in enumerate(pair_list(rank)):
        (through if i in (a, b) else avoiding).append(k)
    return through, avoiding


@lru_cache(maxsize=None)
def _pair_pos(rank: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(pair_list(rank))}


def pair_index(rank: int, i: int, j: int) -> int:
    """Position of the basis commutator [xi, xj] (i < j) in the comm vector."""
    return _pair_pos(rank)[(i, j)]


def pair_count(rank: int) -> int:
    return rank * (rank - 1) // 2


class Element:
    """Normal form of an element; immutable and hashable.

    ``abelian`` is the generator exponent vector, ``comm`` the basis-commutator
    exponent vector indexed by ``pair_list(rank)``.  Two elements are equal iff
    their components are equal; the centre is exactly {abelian == 0}.
    """

    __slots__ = ("rank", "abelian", "comm")

    def __init__(self, rank: int, abelian, comm=None):
        abelian = int_entries(abelian)
        if len(abelian) != rank:
            raise ValueError(f"abelian part must have length {rank}")
        comm = (0,) * pair_count(rank) if comm is None else int_entries(comm)
        if len(comm) != pair_count(rank):
            raise ValueError(f"comm part must have length {pair_count(rank)}")
        _set_rank(self, rank)
        _set_abelian(self, abelian)
        _set_comm(self, comm)

    @classmethod
    def trusted(cls, rank: int, abelian: tuple, comm: tuple) -> "Element":
        """Unchecked construction, for values computed from ints the package
        already holds: tuples of ints of lengths rank and pair_count(rank).
        Input from outside is validated at the boundary, by ``Element(...)``,
        ``Element.central`` and the parsers; a list, a float or a wrong
        length passed here would break equality and hashing."""
        self = _new(cls)
        _set_rank(self, rank)
        _set_abelian(self, abelian)
        _set_comm(self, comm)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Element is immutable")

    __delattr__ = __setattr__

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, rank: int) -> "Element":
        if rank < 0:
            raise ValueError(f"abelian part must have length {rank}")
        return cls.trusted(rank, (0,) * rank, (0,) * pair_count(rank))

    @classmethod
    def generator(cls, rank: int, i: int) -> "Element":
        """The generator x_i (1-based index)."""
        if not 1 <= i <= rank:
            raise IndexOutOfRank(f"generator index {i} outside 1..{rank}")
        return cls.trusted(rank, tuple(1 if k == i - 1 else 0 for k in range(rank)),
                           (0,) * pair_count(rank))

    @classmethod
    def central(cls, rank: int, comm) -> "Element":
        return cls(rank, (0,) * rank, comm)

    # -- structure ----------------------------------------------------------

    def is_identity(self) -> bool:
        return not any(self.abelian) and not any(self.comm)

    def is_central(self) -> bool:
        return not any(self.abelian)

    def is_primitive(self) -> bool:
        """True iff the element belongs to some basis, decided on the
        abelianization: the exponent vector must have gcd 1 (ZeroVector for a
        central element)."""
        return is_unimodular_vector(self.abelian)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatch(f"ranks {self.rank} and {other.rank} differ")
        a, b = self.abelian, other.abelian
        comm = list(map(add, self.comm, other.comm))
        k = 0
        for i in range(self.rank):
            bi = b[i]
            for j in range(i + 1, self.rank):
                if bi:
                    comm[k] -= a[j] * bi
                k += 1
        return Element.trusted(self.rank, tuple(map(add, a, b)), tuple(comm))

    def inverse(self) -> "Element":
        a = self.abelian
        comm = list(map(neg, self.comm))
        k = 0
        for i in range(self.rank):
            ai = a[i]
            for j in range(i + 1, self.rank):
                if ai:
                    comm[k] -= ai * a[j]
                k += 1
        return Element.trusted(self.rank, tuple(map(neg, a)), tuple(comm))

    def __pow__(self, exponent: int) -> "Element":
        """(a, c)^e = (e*a, e*c + C(e, 2) * b(a, a)) for every integer e,
        where b(a, a)[i, j] = -a_i * a_j is the cross term of a product."""
        e = operator.index(exponent)
        a = self.abelian
        half = e * (e - 1) // 2
        comm = tuple([e * c - half * a[i - 1] * a[j - 1]
                      for c, (i, j) in zip(self.comm, pair_list(self.rank))])
        return Element.trusted(self.rank, tuple([e * x for x in a]), comm)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.rank == other.rank
            and self.abelian == other.abelian
            and self.comm == other.comm
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.abelian, self.comm))

    def __repr__(self) -> str:
        return f"Element(rank={self.rank}, abelian={self.abelian}, comm={self.comm})"


# the constructors set the slots through their member descriptors, which
# skips the refusing ``__setattr__`` without a lookup by name
_new = object.__new__
_set_rank, _set_abelian, _set_comm = (vars(Element)[name].__set__ for name in Element.__slots__)


def commutator(g: Element, h: Element) -> Element:
    """[g, h] = g^-1 h^-1 g h; central, and bilinear in the exponent vectors."""
    if g.rank != h.rank:
        raise RankMismatch(f"ranks {g.rank} and {h.rank} differ")
    a, b = g.abelian, h.abelian
    comm = tuple(a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1] for i, j in pair_list(g.rank))
    return Element.trusted(g.rank, (0,) * g.rank, comm)


@dataclass(frozen=True)
class GeneratorWord:
    """A word in the generators: a sequence of (index, sign) letters.

    Indices are 1-based; each sign is +1 or -1 (one letter per occurrence).
    """

    rank: int
    letters: tuple[tuple[int, int], ...]

    def __init__(self, rank: int, letters):
        letters = tuple(int_entries(letter) for letter in letters)
        for i, s in letters:
            if not 1 <= i <= rank:
                raise IndexOutOfRank(f"letter index {i} outside 1..{rank}")
            if s not in (1, -1):
                raise ValueError("letter sign must be +1 or -1")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


def reduce_word(word: GeneratorWord) -> Element:
    """Normal form of a word by literal symbol pushing.

    Bubble-sorts the letters into generator order; each swap of adjacent
    letters xj^s xi^t with j > i inserts the central correction
    [xi, xj]^(-s*t).  Intentionally quadratic and independent of the
    closed-form product, so it can serve as a test oracle for it.
    """
    n = word.rank
    seq = list(word.letters)
    comm = [0] * pair_count(n)
    changed = True
    while changed:
        changed = False
        for t in range(len(seq) - 1):
            (j, s), (i, u) = seq[t], seq[t + 1]
            if j > i:
                seq[t], seq[t + 1] = seq[t + 1], seq[t]
                comm[pair_index(n, i, j)] -= s * u
                changed = True
    abelian = [0] * n
    for i, s in seq:
        abelian[i - 1] += s
    return Element(n, abelian, comm)


def mul_fold(word: GeneratorWord) -> Element:
    """Fold the closed-form product over the letters of a word."""
    acc = Element.identity(word.rank)
    for i, s in word.letters:
        g = Element.generator(word.rank, i)
        acc = acc * (g if s > 0 else g.inverse())
    return acc
