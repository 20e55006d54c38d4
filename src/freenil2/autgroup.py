"""Automorphisms of the rank-n free two-step nilpotent group.

An automorphism is stored by the images of the standard generators; the
images determine everything by homomorphic extension.  A candidate list of
images defines an automorphism exactly when the abelianized matrix (column i
= exponent vector of the image of x_i) has determinant +-1.

The kernel of the abelianization map is the IA subgroup: IA automorphisms fix
the commutator subgroup pointwise and are determined by the central offsets
of their generator images, which makes the subgroup abelian and torsion-free
and gives the witness-solving routine below.

Application, composition and inversion are closed forms in the
abelianization M (for inversion, M^-1), the central parts of the images and
Lambda^2 M, the action of M on the commutator subgroup (the class-two case
of the Hall polynomials).  ``apply`` folds all of that into one congruence
M Z M^T, with Z built from the element alone, whenever the element has a
commutator part: O(n^3) operations and no Lambda^2 M.

IA automorphisms, symmetries and extremal involutions all abelianize to a
diagonal sign matrix D = diag(d_1, ..., d_n).  Then the power product of the
images has no cross term (each image is a multiple of one generator, taken
in order) and Lambda^2 D is diagonal with entry d_p * d_q on the pair
(p, q).  So ``compose`` and ``invert`` take closed forms in O(n * pairs):
with Off_sigma the matrix whose column k is the central part of sigma(x_k),
image k of sigma o rho is (D a_k, Off_sigma a_k + Lambda^2 D c_k) for rho's
image (a_k, c_k), and sigma^-1(x_k) = (d_k e_k, -d_k Lambda^2 D c_k) with
c_k the central part of sigma(x_k).

Automorphisms are validated at the boundary only.  ``Automorphism(...)``
checks the count and the ranks of the images and the determinant of their
abelianization; ``ia_from_offsets`` checks the index, entries, length and
count of the offsets.  ``Automorphism.trusted`` checks nothing; it builds
every result computed here (compositions, inverses, conjugations, IA
automorphisms, symmetries and extremal involutions), the sampled IA
automorphisms and the stabilizer split's factors.  No matrix read off
images is re-validated either: an ``Element`` holds exactly rank ints in its
abelian part, so once the count and the ranks are checked the columns form
a square int matrix, and ``Automorphism(...)``, ``abelianize`` and
``is_basis_conjugation_set`` build it with ``IntMatrix.trusted``.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import mul

from .errors import (
    IndexOutOfRank,
    InvalidAutomorphism,
    NotIA,
    NotInner,
    NotUnimodular,
    RankMismatch,
)
from .nilcore import Element, pair_count, pair_index, pair_list
from .zlinalg import IntMatrix, int_entries, inverse_unimodular, is_unimodular_matrix


class InvolutionKind(enum.Enum):
    SYMMETRY_MOD_IA = "SymmetryModIA"
    EXTREMAL_MOD_IA = "ExtremalModIA"
    OTHER_INVOLUTION = "OtherInvolution"
    NOT_INVOLUTION = "NotInvolution"


class Automorphism:
    """Automorphism given by generator images, validated at construction."""

    __slots__ = ("rank", "images")

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise InvalidAutomorphism("no generator images")
        rank = images[0].rank
        if any(img.rank != rank for img in images):
            raise RankMismatch("generator images have mixed ranks")
        if len(images) != rank:
            raise InvalidAutomorphism(f"expected {rank} images, got {len(images)}")
        matrix = _abelian_matrix(images)
        if not is_unimodular_matrix(matrix):
            raise InvalidAutomorphism(f"abelianized determinant {matrix.det()} is not +-1")
        _set_rank(self, rank)
        _set_images(self, images)

    @classmethod
    def trusted(cls, images: tuple) -> "Automorphism":
        """Unchecked construction, for images the package computes: a tuple
        of rank images of one rank whose abelianization is unimodular by
        construction."""
        self = _new(cls)
        _set_rank(self, len(images))
        _set_images(self, images)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Automorphism is immutable")

    __delattr__ = __setattr__

    @classmethod
    def identity(cls, rank: int) -> "Automorphism":
        return _signed_generators((1,) * rank)

    def image(self, i: int) -> Element:
        """Image of the generator x_i (1-based)."""
        if not 1 <= i <= self.rank:
            raise IndexOutOfRank(f"generator index {i} outside 1..{self.rank}")
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Automorphism) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Automorphism(rank={self.rank})"

    def is_identity(self) -> bool:
        return is_ia(self) and not any(any(img.comm) for img in self.images)


_new = object.__new__
_set_rank, _set_images = (vars(Automorphism)[name].__set__ for name in Automorphism.__slots__)


def _abelian_matrix(elements) -> IntMatrix:
    """The matrix whose column i is the abelian part of elements[i], read off
    unchecked: each is a tuple of rank ints by the ``Element`` invariant, and
    every caller has checked that there are rank elements of one rank."""
    return IntMatrix.trusted(tuple(zip(*(g.abelian for g in elements))))


def apply(sigma: Automorphism, g: Element) -> Element:
    """Image of g: substitute generator images into the normal form.

    Computed in closed form rather than by multiplying powers out.  With
    (x, c) * (y, d) = (x + y, c + d + b(x, y)), where b(x, y)[i, j] =
    -x_j * y_i, a power is (a, c)^e = (e*a, e*c + C(e, 2) * b(a, a)) for
    every integer e, and the commutator part of g adds sum c_ij [a_i, a_j].

    Summed over the images (m_l, c_l) of the generators, the image of
    g = (a, c) is the congruence (M a, sum_l a_l c_l + upper(M Z M^T)), where
    upper reads the entries (i, j), i < j, and Z_pq = c_pq, Z_qp = -c_pq -
    a_p a_q for p < q and Z_pp = -C(a_p, 2).  With c = 0 the power product
    of sigma's images over a is the same sum with fewer operations, so apply
    takes it; otherwise it takes the congruence: n^2 - n dot products of
    length n for the columns of Z M^T that upper reads, then two per pair.
    """
    if sigma.rank != g.rank:
        raise RankMismatch(f"ranks {sigma.rank} and {g.rank} differ")
    n, a = g.rank, g.abelian
    if not any(g.comm):
        abelian, comm = _power_product(sigma.images, a)
        return Element.trusted(n, tuple(abelian), tuple(comm))
    pairs = _zero_based_pairs(n)
    rows = list(zip(*(img.abelian for img in sigma.images)))
    z = [[0] * n for _ in range(n)]
    for (p, q), e in zip(pairs, g.comm):
        z[p][q] = e
        z[q][p] = -e - a[p] * a[q]
    for p, x in enumerate(a):
        z[p][p] = -(x * (x - 1) // 2)
    # column j of Z M^T, for j = 1..n-1, the larger index of some pair
    w = [[sum(map(mul, z_row, m_row)) for z_row in z] for m_row in rows[1:]]
    offsets = zip(*(img.comm for img in sigma.images))
    comm = [sum(map(mul, a, c)) + sum(map(mul, rows[i], w[j - 1]))
            for (i, j), c in zip(pairs, offsets)]
    return Element.trusted(n, tuple([sum(map(mul, row, a)) for row in rows]), tuple(comm))


@lru_cache(maxsize=None)
def _zero_based_pairs(rank: int) -> tuple[tuple[int, int], ...]:
    return tuple((i - 1, j - 1) for i, j in pair_list(rank))


@lru_cache(maxsize=None)
def _unit(rank: int, k: int, sign: int = 1) -> tuple[int, ...]:
    """sign * e_k as an exponent vector (0-based k)."""
    return tuple(sign if j == k else 0 for j in range(rank))


def _power_product(images, exponents) -> tuple[list[int], list[int]]:
    """Abelian and commutator parts of the ordered product of images[k] **
    exponents[k], summed directly: each power (a, c)^e and its cross term
    with the running product."""
    pairs = _zero_based_pairs(len(images))
    abelian = [0] * len(images)
    comm = [0] * len(pairs)
    for img, e in zip(images, exponents):
        if not e:
            continue
        a, c = img.abelian, img.comm
        half = e * (e - 1) // 2
        for k, (i, j) in enumerate(pairs):
            comm[k] += e * c[k] - (half * a[j] + e * abelian[j]) * a[i]
        for i, x in enumerate(a):
            abelian[i] += e * x
    return abelian, comm


def _lambda2(columns) -> list[list[int]]:
    """Lambda^2 M from the columns of M, one column per commutator pair:
    column (p, q) is M e_p ^ M e_q, the image of [x_p, x_q] under every
    automorphism abelianizing to M.  Given the rows of M it returns the rows
    of Lambda^2 M instead, since Lambda^2 commutes with transposition."""
    pairs = _zero_based_pairs(len(columns))
    out = []
    for p, q in pairs:
        u, v = columns[p], columns[q]
        out.append([u[i] * v[j] - u[j] * v[i] for i, j in pairs])
    return out


def compose(sigma: Automorphism, rho: Automorphism) -> Automorphism:
    """sigma o rho (rho applied first); abelianizes to the matrix product.

    Image k is sigma applied to rho's image (a, c) as in ``apply``: the
    ordered power product of sigma's images over a, plus Lambda^2 M_sigma c.
    Lambda^2 M_sigma is built once for all n images.  When M_sigma is a
    diagonal sign matrix D, the power product has no cross term and
    Lambda^2 D is diagonal, so image k is (D a, Off_sigma a + Lambda^2 D c),
    Off_sigma holding sigma's central parts as columns; no Lambda^2 matrix
    is built.  The result is unimodular by construction, since
    det(M_sigma M_rho) = +-1, so it is not validated again.
    """
    if sigma.rank != rho.rank:
        raise RankMismatch(f"ranks {sigma.rank} and {rho.rank} differ")
    images, n = sigma.images, sigma.rank
    signs = _diagonal_signs(sigma)
    if signs is not None:
        wedge = _wedge_signs(signs)
        offsets = [img.comm for img in images]
        out = []
        for img in rho.images:
            a, c = img.abelian, img.comm
            comm = list(map(mul, wedge, c))
            for x, off in zip(a, offsets):
                if x:
                    comm = [y + x * z for y, z in zip(comm, off)]
            out.append(Element.trusted(n, tuple(map(mul, signs, a)), tuple(comm)))
        return Automorphism.trusted(tuple(out))
    # rows, so that each image's term is one dot product per pair
    wedge_rows = _lambda2(list(zip(*(img.abelian for img in images))))
    out = []
    for img in rho.images:
        abelian, comm = _power_product(images, img.abelian)
        if any(img.comm):
            comm = [x + sum(map(mul, row, img.comm)) for x, row in zip(comm, wedge_rows)]
        out.append(Element.trusted(n, tuple(abelian), tuple(comm)))
    return Automorphism.trusted(tuple(out))


def abelianize(sigma: Automorphism) -> IntMatrix:
    """Induced matrix on Z^n: column i is the exponent vector of image i."""
    return _abelian_matrix(sigma.images)


def lift(matrix: IntMatrix) -> Automorphism:
    """The automorphism with the given abelianization and zero central parts."""
    if not is_unimodular_matrix(matrix):
        raise NotUnimodular(f"determinant {matrix.det()} is not +-1")
    zero = (0,) * pair_count(matrix.n)
    return Automorphism([Element.trusted(matrix.n, col, zero) for col in matrix.columns()])


def _diagonal_signs(sigma: Automorphism) -> list[int] | None:
    """The signs d with sigma abelianizing to diag(d), or None when its
    abelianization is not a diagonal sign matrix."""
    n, signs = sigma.rank, []
    for k, img in enumerate(sigma.images):
        a = img.abelian
        if a[k] not in (1, -1) or a.count(0) != n - 1:
            return None
        signs.append(a[k])
    return signs


def _wedge_signs(signs) -> list[int]:
    """The diagonal of Lambda^2 diag(signs): d_p * d_q on each pair (p, q)."""
    return [signs[p] * signs[q] for p, q in _zero_based_pairs(len(signs))]


def _abelianizes_to_scalar(sigma: Automorphism, sign: int) -> bool:
    """True iff sigma abelianizes to sign * I."""
    return _diagonal_signs(sigma) == [sign] * sigma.rank


def is_ia(sigma: Automorphism) -> bool:
    """True iff sigma induces the identity on the abelianization."""
    return _abelianizes_to_scalar(sigma, 1)


def ia_offsets(sigma: Automorphism) -> list[tuple[int, ...]]:
    """Central offsets of an IA automorphism: image of x_i is x_i * c_i."""
    if not is_ia(sigma):
        raise NotIA("automorphism does not abelianize to the identity")
    return [img.comm for img in sigma.images]


def ia_from_offsets(rank: int, offsets) -> Automorphism:
    """IA automorphism with the given central offset per generator image:
    image i is (e_i, offset_i), equal to x_i * central(offset_i) since the
    cross term with a central factor is zero.  Its abelianization is I, so
    only the offsets are checked, in order: the index of each, its integer
    entries (None is the zero offset) and its length, then their count."""
    width = pair_count(rank)
    images = []
    for i, off in enumerate(offsets):
        if i >= rank:
            raise IndexOutOfRank(f"generator index {i + 1} outside 1..{rank}")
        comm = (0,) * width if off is None else int_entries(off)
        if len(comm) != width:
            raise ValueError(f"comm part must have length {width}")
        images.append(Element.trusted(rank, _unit(rank, i), comm))
    if not images:
        raise InvalidAutomorphism("no generator images")
    if len(images) != rank:
        raise InvalidAutomorphism(f"expected {rank} images, got {len(images)}")
    return Automorphism.trusted(tuple(images))


def invert(sigma: Automorphism) -> Automorphism:
    """Exact inverse, in closed form.

    With m_i = M^-1 e_i, sigma(m_i, 0) = (e_i, u_i), where u_i is the
    central part of the power product of sigma's images over m_i.  As
    (0, u_i) is central, sigma^-1(x_i) = (m_i, 0) * sigma^-1(0, -u_i) =
    (m_i, -Lambda^2(M^-1) u_i).  Lambda^2(M^-1) is built once for all n
    images; the result is an inverse by construction and is not validated.
    When M is a diagonal sign matrix D, M^-1 = D, m_i = d_i e_i and
    u_i = d_i c_i with c_i the central part of sigma(x_i), so
    sigma^-1(x_i) = (d_i e_i, -d_i Lambda^2 D c_i), with no matrix inverse.
    """
    signs = _diagonal_signs(sigma)
    if signs is not None:
        n, wedge = sigma.rank, _wedge_signs(signs)
        out = []
        for k, (d, img) in enumerate(zip(signs, sigma.images)):
            comm = tuple([-d * w * x for w, x in zip(wedge, img.comm)])
            out.append(Element.trusted(n, _unit(n, k, d), comm))
        return Automorphism.trusted(tuple(out))
    columns = [img.abelian for img in lift(inverse_unimodular(abelianize(sigma))).images]
    wedge_rows = _lambda2(list(zip(*columns)))
    out = []
    for m in columns:
        _, u = _power_product(sigma.images, m)
        comm = tuple(-sum(map(mul, row, u)) for row in wedge_rows)
        out.append(Element.trusted(sigma.rank, m, comm))
    return Automorphism.trusted(tuple(out))


def conjugation(a: Element) -> Automorphism:
    """The inner automorphism g -> a g a^-1; depends only on a mod centre.
    In class two a x_i a^-1 = x_i [a, x_i], so image i is (e_i, off_i), where
    off_i is a_p on each pair (p, i), -a_q on each pair (i, q), else 0."""
    n, y = a.rank, a.abelian
    if n < 1:
        raise InvalidAutomorphism("no generator images")
    pairs = _zero_based_pairs(n)
    return Automorphism.trusted(tuple(
        Element.trusted(n, _unit(n, i),
                        tuple(y[p] if q == i else -y[q] if p == i else 0 for p, q in pairs))
        for i in range(n)))


def inner_witness(alpha: Automorphism) -> Element | None:
    """Solve conjugation(a) == alpha for a with zero central part.

    The offset of image i of a conjugation is a fixed linear pattern in the
    exponent vector of the witness, so the candidate is read off from the
    offsets of the first and last images and then verified exactly; None when
    the verification fails (alpha is not inner).  The witness exponent vector
    is unique for rank >= 2.
    """
    offsets = ia_offsets(alpha)
    n = alpha.rank
    if n == 1:
        return Element.identity(1)
    # image n has offset +y_j on each pair (j, n); image 1 has -y_k on (1, k)
    y = [offsets[n - 1][pair_index(n, j, n)] for j in range(1, n)]
    y.append(-offsets[0][pair_index(n, 1, n)])
    candidate = Element.trusted(n, tuple(y), (0,) * pair_count(n))
    if conjugation(candidate) == alpha:
        return candidate
    return None


def _signed_generators(signs) -> Automorphism:
    """The automorphism sending each x_k to x_k^signs[k-1], signs all +-1."""
    if not signs:
        raise InvalidAutomorphism("no generator images")
    rank, zero = len(signs), (0,) * pair_count(len(signs))
    return Automorphism.trusted(tuple(Element.trusted(rank, _unit(rank, k, s), zero)
                                      for k, s in enumerate(signs)))


def symmetry_standard(rank: int) -> Automorphism:
    """Inverts every standard generator; the canonical symmetry."""
    return _signed_generators((-1,) * rank)


def extremal_standard(rank: int, i: int) -> Automorphism:
    """Inverts x_i and fixes the other standard generators."""
    if not 1 <= i <= rank:
        raise IndexOutOfRank(f"generator index {i} outside 1..{rank}")
    return _signed_generators(tuple(-1 if k == i else 1 for k in range(1, rank + 1)))


def classify_involution(sigma: Automorphism) -> InvolutionKind:
    """Coarse type of an involution, read off the abelianization.

    Symmetry-mod-IA means the induced matrix is -I (such an automorphism is
    automatically an involution, as it fixes the centre); extremal-mod-IA means
    the induced matrix is an integrally diagonalizable involution negating a
    rank-1 summand.
    """
    from .involutions import involution_block_type

    if _abelianizes_to_scalar(sigma, -1):
        return InvolutionKind.SYMMETRY_MOD_IA
    if not compose(sigma, sigma).is_identity():
        return InvolutionKind.NOT_INVOLUTION
    _, m, s = involution_block_type(abelianize(sigma))
    if s == 0 and m == 1:
        return InvolutionKind.EXTREMAL_MOD_IA
    return InvolutionKind.OTHER_INVOLUTION


def _basis_set_witnesses(taus) -> list[Element]:
    """Zero-offset witnesses of a candidate basis set of conjugations."""
    witnesses = [inner_witness(tau) for tau in taus]
    if any(w is None for w in witnesses):
        raise NotInner("an element of the candidate basis set is not a conjugation")
    return witnesses


def is_basis_conjugation_set(taus) -> bool:
    """True iff the witnesses of the given conjugations form a basis of the
    (free abelian) group of inner automorphisms."""
    witnesses = _basis_set_witnesses(taus)
    if not witnesses or len(witnesses) != witnesses[0].rank:
        return False
    if any(w.rank != len(witnesses) for w in witnesses):
        raise RankMismatch("basis set has mixed ranks")
    return is_unimodular_matrix(_abelian_matrix(witnesses))


def is_attached_symmetry(theta: Automorphism, taus) -> bool:
    """Whether theta differs from the basis-set symmetry theta_B by an IA square.

    theta_B o theta is IA exactly when theta abelianizes to -I; it then maps each
    witness w to w * (w * theta(w)), and as the witness matrix is unimodular, its
    offsets are all even exactly when every w * theta(w) has even exponents.
    """
    witnesses = Automorphism(_basis_set_witnesses(taus)).images
    products = [w * apply(theta, w) for w in witnesses]  # RankMismatch before the -I test
    return _abelianizes_to_scalar(theta, -1) and all(c % 2 == 0 for d in products for c in d.comm)
