"""Involutions in GL(n, Z): eigenlattices, canonical bases, square roots.

For an involution F the fixed sublattice A+ = ker(F - I) and the negated
sublattice A- = ker(F + I) are saturated summands with ranks adding up to n,
but their direct sum can sit in Z^n with index 2^s > 1.  That defect s is a
conjugacy invariant; it vanishes exactly when F is diagonalizable over Z, and
in general F admits a basis on which it acts by fixing vectors, negating
vectors, and swapping pairs - the canonical form computed here.

The counts (p, m, s) of fixed, negated and swapped blocks have a closed
form.  F - I is equivalent to the block sum's diag(1^s, 2^m, 0^(p+s)) by
unimodular U and V, which stay invertible mod 2, so s is the rank of F - I
over F_2; the trace is a conjugacy invariant, so p - m = tr F; and
p + m + 2s = n.  ``plus_minus`` computes the eigenlattice bases themselves
and is the independent route to the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import autgroup
from .errors import (
    CanonicalizationPostconditionFailed,
    NotDiagonalizable,
    NotInvolution,
    NotUnimodular,
    OddNegativeRank,
    RankMismatch,
)
from .zlinalg import (
    IntMatrix,
    LatticeBasis,
    inverse_unimodular,
    kernel_rows,
    kernel_summand_basis,
    summand_frame,
)

# The two noncentral involution classes of GL(2, Z) up to conjugacy, and for
# each a triple of conjugates whose product fails to square to the identity:
# pinned witnesses that the three-conjugates fact is special to -I.
X_MATRIX = IntMatrix([[1, 0], [0, -1]])
X_CONJUGATE_TRIPLE = (
    IntMatrix([[1, 0], [0, -1]]),
    IntMatrix([[1, 0], [2, -1]]),
    IntMatrix([[-1, 2], [0, 1]]),
)
Y_MATRIX = IntMatrix([[0, 1], [1, 0]])
Y_CONJUGATE_TRIPLE = (
    IntMatrix([[1, 0], [1, -1]]),
    IntMatrix([[1, 0], [-1, -1]]),
    IntMatrix([[0, 1], [1, 0]]),
)


@dataclass(frozen=True)
class PlusMinusPair:
    """Saturated bases of the fixed (+) and negated (-) sublattices, and the
    defect s: their direct sum has index 2^s in Z^n."""

    plus: LatticeBasis
    minus: LatticeBasis
    defect: int


@dataclass(frozen=True)
class InvolutionCanonicalForm:
    """A basis on which the involution acts by fix / negate / swap.

    Columns of ``basis`` are ordered: ``fixed`` fixed vectors, then
    ``negated`` negated vectors, then ``swapped`` adjacent column pairs that
    the involution exchanges.  Only the count triple is canonical; the basis
    itself is one of many valid witnesses.
    """

    basis: IntMatrix
    fixed: int
    negated: int
    swapped: int

    def block_type(self) -> tuple[int, int, int]:
        return (self.fixed, self.negated, self.swapped)

    def validate(self, f: IntMatrix) -> None:
        n = f.n
        if self.fixed + self.negated + 2 * self.swapped != n:
            raise CanonicalizationPostconditionFailed("block counts do not sum to the rank")
        if self.basis.det() not in (1, -1):
            raise CanonicalizationPostconditionFailed("canonical basis is not unimodular")
        cols = self.basis.columns()
        for k in range(self.fixed):
            if f.apply(cols[k]) != cols[k]:
                raise CanonicalizationPostconditionFailed(f"column {k} is not fixed")
        for k in range(self.fixed, self.fixed + self.negated):
            if f.apply(cols[k]) != tuple(-x for x in cols[k]):
                raise CanonicalizationPostconditionFailed(f"column {k} is not negated")
        for t in range(self.swapped):
            a = self.fixed + self.negated + 2 * t
            if f.apply(cols[a]) != cols[a + 1] or f.apply(cols[a + 1]) != cols[a]:
                raise CanonicalizationPostconditionFailed(f"columns {a},{a + 1} are not swapped")


def _column_matrix(columns) -> IntMatrix:
    """The matrix with the given columns, unchecked: the n int tuples of
    length n that a caller here computed from kernel vectors."""
    return IntMatrix.trusted(tuple(zip(*columns)))


def _require_involution(f: IntMatrix) -> None:
    if not (f * f).is_identity():
        raise NotInvolution("matrix does not square to the identity")


def plus_minus(f: IntMatrix) -> PlusMinusPair:
    """Fixed and negated sublattices and the defect; the ranks always sum to n."""
    _require_involution(f)
    identity = IntMatrix.identity(f.n)
    plus = kernel_summand_basis(f - identity)
    minus = kernel_summand_basis(f + identity)
    vectors = plus.vectors + minus.vectors
    if len(vectors) != f.n:
        raise NotInvolution("eigenlattice ranks do not sum to the rank")
    d = abs(_column_matrix(vectors).det())
    s = d.bit_length() - 1
    if d != 1 << s:
        raise CanonicalizationPostconditionFailed(f"eigenlattice index {d} is not a power of 2")
    return PlusMinusPair(plus, minus, s)


def involution_block_type(f: IntMatrix) -> tuple[int, int, int]:
    """The counts (p, m, s) of fixed, negated and swapped blocks of an
    involution, in closed form: s = rank of F - I over F_2, p - m = tr F and
    p + m + 2s = n.  The Smith form of F - I, diag(1^s, 2^m, 0^(p+s)), stays
    so mod 2, which gives s; the trace is a conjugacy invariant.  The defect
    is s, and rank A+ = p + s, rank A- = m + s."""
    _require_involution(f)
    n = f.n
    # XOR elimination of the rows of F - I mod 2 as bitmasks (row i of F,
    # bit i flipped), against pivots keyed by leading bit
    pivots: dict[int, int] = {}
    for i, row in enumerate(f.rows):
        x = sum((e & 1) << j for j, e in enumerate(row)) ^ (1 << i)
        while x:
            top = x.bit_length()
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    s = len(pivots)
    trace = sum(row[i] for i, row in enumerate(f.rows))
    return (n - 2 * s + trace) // 2, (n - 2 * s - trace) // 2, s


def canonicalize_involution(f: IntMatrix) -> InvolutionCanonicalForm:
    """Compute a fix/negate/swap basis for an involution.

    Strategy: take a basis of the fixed sublattice P and a direct complement
    R.  For r in R the vector w = F r + r lies in P.  Working in coordinates
    on P, split w over the pair-images produced so far and the remaining free
    part of P; if the free coordinates are all even, r can be corrected by
    earlier pair vectors and half of w into a negated vector, otherwise the
    same corrections normalize the free coordinates to their parities, making
    w unimodular in the free part, and (r_corrected, F r_corrected) becomes a
    swapped pair.  The parity normalization always succeeds, so no
    backtracking is needed; a full postcondition validation guards the
    construction anyway.
    """
    _require_involution(f)
    n = f.n
    plus = kernel_summand_basis(f - IntMatrix.identity(n))
    p0 = len(plus.vectors)
    plus_cols = [[v[i] for v in plus.vectors] for i in range(n)]
    # one frame of P gives the complement R and coordinates on P + R
    complement, frame_rows = summand_frame(plus_cols)

    def to_p_coords(vec) -> list[int]:
        coords = [sum(map(mul, row, vec)) for row in frame_rows]
        if any(coords[p0:]):
            raise CanonicalizationPostconditionFailed("vector is not in the fixed sublattice")
        return coords[:p0]

    def from_p_coords(coords) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, coords)) for row in plus_cols)

    negated: list[tuple[int, ...]] = []
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    pair_u_coords: list[list[int]] = []  # P-coordinates of each pair's w-image
    # split_rows: the inverse of [pair images | free part], both in P-coordinates
    free_coords = split_rows = [[1 if i == j else 0 for i in range(p0)] for j in range(p0)]

    for r in complement:
        w = tuple(x + y for x, y in zip(f.apply(r), r))
        wc = to_p_coords(w)
        coords = [sum(map(mul, row, wc)) for row in split_rows]
        alpha, beta = coords[:len(pairs)], coords[len(pairs):]
        # correct by earlier pair vectors: each subtraction of s_i removes u_i
        s_vec = list(r)
        for a_i, (s_i, _) in zip(alpha, pairs):
            if a_i:
                s_vec = [x - a_i * y for x, y in zip(s_vec, s_i)]
        if all(b % 2 == 0 for b in beta):
            half = [0] * p0
            for b_j, v_j in zip(beta, free_coords):
                if b_j:
                    half = [h + (b_j // 2) * x for h, x in zip(half, v_j)]
            s_vec = [x - y for x, y in zip(s_vec, from_p_coords(half))]
            negated.append(tuple(s_vec))
        else:
            shift = [0] * p0
            for b_j, v_j in zip(beta, free_coords):
                q = b_j // 2  # parity normalization: b_j - 2q in {0, 1}
                if q:
                    shift = [h - q * x for h, x in zip(shift, v_j)]
            s_vec = [x + y for x, y in zip(s_vec, from_p_coords(shift))]
            s_tuple = tuple(s_vec)
            fs = f.apply(s_tuple)
            u_vec = tuple(x + y for x, y in zip(fs, s_tuple))
            pairs.append((s_tuple, fs))
            pair_u_coords.append(to_p_coords(u_vec))
            free_coords, split_rows = summand_frame(list(zip(*pair_u_coords)))

    fixed_vectors = [from_p_coords(v) for v in free_coords]
    columns = fixed_vectors + negated + [v for pair in pairs for v in pair]
    form = InvolutionCanonicalForm(
        basis=_column_matrix(columns),
        fixed=len(fixed_vectors),
        negated=len(negated),
        swapped=len(pairs),
    )
    form.validate(f)
    return form


def commuting_decomposition(f: IntMatrix, g: IntMatrix):
    """The four pairwise eigenlattice intersections of two diagonalizable
    involutions (++, +-, -+, --).

    The bases always span the rational intersections; they assemble into a
    basis of Z^n (combined determinant +-1) exactly when f and g commute.
    """
    for m in (f, g):
        if involution_block_type(m)[2] != 0:
            raise NotDiagonalizable("both involutions must be diagonalizable")
    identity = IntMatrix.identity(f.n)
    # kernels of the stacked matrices [f -+ I; g -+ I] in the order
    # ++, +-, -+, -- (f - I selects A+)
    halves = [((m - identity).to_lists(), (m + identity).to_lists()) for m in (f, g)]
    return tuple(kernel_rows(top + bottom) for top in halves[0] for bottom in halves[1])


def is_direct_sum(bases, n: int) -> bool:
    """Whether the concatenated bases form a basis of Z^n; every basis must
    lie in Z^n."""
    if any(b.rank != n for b in bases):
        raise RankMismatch(f"a basis does not lie in Z^{n}")
    vectors = [v for b in bases for v in b.vectors]
    if len(vectors) != n:
        return False
    if n < 1:
        raise ValueError("matrix rank must be >= 1")
    return _column_matrix(vectors).det() in (1, -1)


def sqrt_of_involution(f: IntMatrix) -> IntMatrix:
    """A matrix H with H^2 = F, for diagonalizable F with even negated rank.

    H is the identity on the fixed part and a quarter-turn on each pair of
    negated basis vectors, conjugated back to the standard basis [P | N] of
    the two eigenlattices.  That basis is unimodular exactly when the defect
    is 0, so its one inverse is also the diagonalizability test.
    """
    _require_involution(f)
    n = f.n
    identity = IntMatrix.identity(n)
    plus = kernel_summand_basis(f - identity).vectors
    minus = kernel_summand_basis(f + identity).vectors
    basis = _column_matrix(plus + minus)
    try:
        basis_inv = inverse_unimodular(basis)
    except NotUnimodular:
        raise NotDiagonalizable("involution has nonzero defect") from None
    p, m = len(plus), len(minus)
    if m % 2 != 0:
        raise OddNegativeRank(f"negated rank {m} is odd")
    # basis * (identity on P, a quarter-turn on each negated pair) moves
    # columns: each pair (u, v) of N becomes (v, -u)
    turned = tuple(w for t in range(0, m, 2) for w in (minus[t + 1], tuple(-x for x in minus[t])))
    h = _column_matrix(plus + turned) * basis_inv
    if not (h * h) == f:
        raise CanonicalizationPostconditionFailed("square root construction failed")
    return h


def order_three_product_pair(n: int) -> tuple[IntMatrix, IntMatrix]:
    """Two involutions whose product has order exactly three.

    They act on the first two coordinates by (u, v) -> (-v, -u) and
    (u, v) -> (u + v, -v) respectively, and fix the rest.
    """
    if n < 2:
        raise ValueError("need rank >= 2")
    f1 = [[0] * n for _ in range(n)]
    f2 = [[0] * n for _ in range(n)]
    f1[0][1] = f1[1][0] = -1
    f2[0][0] = f2[1][0] = 1
    f2[1][1] = -1
    for k in range(2, n):
        f1[k][k] = 1
        f2[k][k] = 1
    return IntMatrix(f1), IntMatrix(f2)


# ---------------------------------------------------------------------------
# three-conjugates probe
# ---------------------------------------------------------------------------

def three_conjugates_probe(sigma, conjugators):
    """Conjugate an involutive automorphism by the three given automorphisms;
    the (conjugates, product) when their product is not an involution, else
    None.

    When sigma abelianizes to -I no counterexample can exist: a product of
    three such involutions again abelianizes to -I and is therefore an
    involution.
    """
    if not autgroup.compose(sigma, sigma).is_identity():
        raise NotInvolution("automorphism does not square to the identity")
    conjugates = tuple(autgroup.compose(autgroup.compose(c, sigma), autgroup.invert(c))
                       for c in conjugators)
    first, second, third = conjugates
    product = autgroup.compose(autgroup.compose(first, second), third)
    if not autgroup.compose(product, product).is_identity():
        return conjugates, product
    return None
