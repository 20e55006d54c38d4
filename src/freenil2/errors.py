"""Exception types shared across the package."""


class FreeNil2Error(Exception):
    """Base class for all package-specific errors."""


class RankMismatch(FreeNil2Error):
    """Binary operation on values of different ranks."""


class ZeroVector(FreeNil2Error):
    """Operation undefined on the zero vector."""


class NotUnimodular(FreeNil2Error):
    """Matrix determinant is not +1 or -1."""


class NotASummand(FreeNil2Error):
    """Lattice basis does not span a direct summand (not saturated)."""


class ParseError(FreeNil2Error):
    """Syntax error in the element grammar or a JSON document."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class IndexOutOfRank(FreeNil2Error):
    """Generator index outside 1..rank."""


class InvalidAutomorphism(FreeNil2Error):
    """Generator images do not define an automorphism (abelianized det != +-1)."""


class NotIA(FreeNil2Error):
    """Automorphism does not act as the identity on the abelianization."""


class NotInner(FreeNil2Error):
    """IA automorphism is not a conjugation."""


class NotInvolution(FreeNil2Error):
    """Input does not square to the identity."""


class NotDiagonalizable(FreeNil2Error):
    """Involution has no integral eigenbasis (nonzero defect)."""


class OddNegativeRank(FreeNil2Error):
    """Square root construction needs an even number of negated basis vectors."""


class CanonicalizationPostconditionFailed(FreeNil2Error):
    """Internal sentinel: a computed canonical basis failed validation."""


class NoInvertedRepresentative(FreeNil2Error):
    """No element of the coset is taken to its inverse by the symmetry."""


class NotAttached(FreeNil2Error):
    """Symmetry is not attached to the given basis set of conjugations."""


class DoesNotFixGenerator(FreeNil2Error):
    """IA automorphism moves the distinguished generator."""
