"""Exact toolkit for finite-rank free two-step nilpotent groups.

Modules:

- ``zlinalg``: exact integer-lattice linear algebra (Smith decomposition,
  saturated kernels, direct complements, the closed-form decomposition of a
  vector into two unimodular summands).
- ``nilcore``: group elements in normal form plus a naive rewriting oracle.
- ``wordlang``: the group-word grammar and every JSON document
  (automorphisms, basis sets, matrices).
- ``autgroup``: automorphisms, the IA subgroup, conjugations, symmetries.
- ``involutions``: involutions of GL(n, Z), canonical bases, square roots.
- ``iastruct``: stabilizer splitting and primitive-element decoding.
- ``sampling``: the seeded random constructions the checks draw from.
- ``verify``: the seeded verification suite and its result types;
  ``cli``: the command line.
"""

from .errors import (
    CanonicalizationPostconditionFailed,
    DoesNotFixGenerator,
    FreeNil2Error,
    IndexOutOfRank,
    InvalidAutomorphism,
    NoInvertedRepresentative,
    NotASummand,
    NotAttached,
    NotDiagonalizable,
    NotIA,
    NotInner,
    NotInvolution,
    NotUnimodular,
    OddNegativeRank,
    ParseError,
    RankMismatch,
    ZeroVector,
)
from .nilcore import Element, GeneratorWord, commutator, reduce_word
from .zlinalg import IntMatrix, LatticeBasis
from .autgroup import Automorphism, InvolutionKind

__all__ = [
    "Element",
    "GeneratorWord",
    "IntMatrix",
    "LatticeBasis",
    "Automorphism",
    "InvolutionKind",
    "commutator",
    "reduce_word",
    "FreeNil2Error",
    "RankMismatch",
    "ZeroVector",
    "NotUnimodular",
    "NotASummand",
    "ParseError",
    "IndexOutOfRank",
    "InvalidAutomorphism",
    "NotIA",
    "NotInner",
    "NotInvolution",
    "NotDiagonalizable",
    "OddNegativeRank",
    "CanonicalizationPostconditionFailed",
    "NoInvertedRepresentative",
    "NotAttached",
    "DoesNotFixGenerator",
]

__version__ = "0.1.0"
