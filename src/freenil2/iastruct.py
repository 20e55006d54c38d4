"""Stabilizer structure of the IA subgroup around a distinguished generator.

An IA automorphism fixing x_i is determined by the central offsets of the
other generator images, and each offset splits over the basis commutators
into coordinates on pairs containing i and coordinates avoiding i.  The two
coordinate blocks are exactly the two direct factors of the stabilizer: the
"minus" factor (offsets through i) is the part inverted by conjugation with
the involution inverting x_i, the "plus" factor (offsets avoiding i)
centralizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import autgroup
from .autgroup import Automorphism
from .errors import (
    DoesNotFixGenerator,
    IndexOutOfRank,
    NoInvertedRepresentative,
    NotAttached,
)
from .nilcore import Element, offset_support_split


class PMClass(Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    NEITHER = "Neither"


@dataclass(frozen=True)
class IASplit:
    """Direct-factor components of an IA automorphism fixing a generator."""

    plus: Automorphism
    minus: Automorphism


def classify_wrt_extremal(alpha: Automorphism, i: int) -> PMClass:
    """How conjugation by the standard involution inverting x_i acts on alpha.

    PLUS means the conjugate equals alpha, MINUS that it equals alpha^-1,
    decided directly from the offset supports.  The identity is the only
    overlap (the IA subgroup is torsion-free) and reports PLUS.
    """
    if not 1 <= i <= alpha.rank:
        raise IndexOutOfRank(f"generator index {i} outside 1..{alpha.rank}")
    offsets = autgroup.ia_offsets(alpha)
    through, avoiding = offset_support_split(alpha.rank, i)
    own = offsets[i - 1]
    others = [off for k, off in enumerate(offsets, start=1) if k != i]
    plus = all(own[p] == 0 for p in avoiding) and all(
        off[p] == 0 for off in others for p in through
    )
    if plus:
        return PMClass.PLUS
    minus = all(own[p] == 0 for p in through) and all(
        off[p] == 0 for off in others for p in avoiding
    )
    if minus:
        return PMClass.MINUS
    return PMClass.NEITHER


def stabilizer_split(alpha: Automorphism, i: int) -> IASplit:
    """Split an IA automorphism fixing x_i into its two direct factors.

    The minus component carries the offset coordinates on pairs containing i,
    the plus component the rest; the components commute, recompose to alpha,
    and the split is unique.
    """
    if not 1 <= i <= alpha.rank:
        raise IndexOutOfRank(f"generator index {i} outside 1..{alpha.rank}")
    offsets = autgroup.ia_offsets(alpha)
    if any(offsets[i - 1]):
        raise DoesNotFixGenerator(f"automorphism moves x{i}")
    n = alpha.rank
    through, _ = offset_support_split(n, i)
    through_set = set(through)
    plus, minus = [], []
    # alpha is IA, so image k is (e_k, offset_k); image k of each factor is
    # e_k with its part of offset_k, built unchecked
    for img in alpha.images:
        off = img.comm
        plus.append(Element.trusted(n, img.abelian, tuple(
            [0 if k in through_set else c for k, c in enumerate(off)])))
        minus.append(Element.trusted(n, img.abelian, tuple(
            [c if k in through_set else 0 for k, c in enumerate(off)])))
    return IASplit(plus=Automorphism.trusted(tuple(plus)),
                   minus=Automorphism.trusted(tuple(minus)))


def shifting_involution(rank: int, i: int, j: int) -> Automorphism:
    """The involution sending x_i to its inverse and x_j to x_i * x_j.

    Conjugation by it inverts exactly the minus factor of the stabilizer of
    x_i inside the automorphisms already inverted by the standard extremal
    involution.
    """
    if i == j:
        raise ValueError("indices must differ")
    images = []
    for k in range(1, rank + 1):
        if k == i:
            images.append(Element.generator(rank, i).inverse())
        elif k == j:
            images.append(Element.generator(rank, i) * Element.generator(rank, j))
        else:
            images.append(Element.generator(rank, k))
    psi = Automorphism(images)
    if not autgroup.compose(psi, psi).is_identity():
        raise AssertionError("shifting involution must square to the identity")
    return psi


def inversion_criterion_check(psi: Automorphism, alpha: Automorphism) -> bool:
    """Whether conjugation by the involution psi inverts alpha: psi alpha psi
    equals alpha^-1.

    The criterion: the shifting involution inverts every member of the minus
    factor of the stabilizer of x_i, and fails to invert a member inverted by
    the standard extremal involution that moves x_i by a nontrivial central
    offset (such members exist for rank >= 3).
    """
    return autgroup.compose(autgroup.compose(psi, alpha), psi) == autgroup.invert(alpha)


def decode_triplet(tau: Automorphism, theta: Automorphism, taus) -> Element:
    """The unique element of the witness coset of tau inverted by theta.

    Takes the zero-offset witness y of tau, forms the central discrepancy
    d = y * theta(y), and corrects y by the central element with exponents
    -d/2.  An odd exponent in d means no element of the coset is inverted,
    which happens exactly when theta is not attached to a basis set
    containing tau.
    """
    taus = list(taus)
    if autgroup.classify_involution(theta) is not autgroup.InvolutionKind.SYMMETRY_MOD_IA:
        raise NotAttached("theta must be an involution abelianizing to -I")
    if all(tau != t for t in taus):
        raise NotAttached("tau must belong to the basis set")
    y = autgroup.inner_witness(tau)
    if y is None:
        raise NotAttached("tau is not a conjugation")
    d = y * autgroup.apply(theta, y)
    if any(c % 2 != 0 for c in d.comm):
        raise NoInvertedRepresentative(
            "the central discrepancy has an odd exponent; no coset element is inverted"
        )
    correction = Element.trusted(y.rank, (0,) * y.rank, tuple(-c // 2 for c in d.comm))
    result = y * correction
    if autgroup.apply(theta, result) != result.inverse():
        raise NoInvertedRepresentative("corrected representative is not inverted")
    return result
