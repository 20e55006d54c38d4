"""Exact integer-lattice linear algebra on Z^n.

All arithmetic uses Python's arbitrary-precision integers; nothing here ever
rounds or wraps.  One normal-form engine (the Smith elimination U A V = D)
drives the lattice operations: the independence and summand tests of a
``LatticeBasis``, the divisors of a matrix, saturated kernels and direct
complements are all read off from it.  The engine carries only the
transforms its caller reads: the divisors alone for a ``LatticeBasis`` and
for ``smith_divisors``, D and V for a kernel, and U, U^-1 and V together for
``summand_frame``, which gets both a complement and coordinates on the
completed basis from one pass.  A basis read off a decomposition is not
decomposed again to validate it.  Determinants and unimodular inverses,
which need no Smith form, share one fraction-free (Bareiss) elimination.

Matrices are validated at the boundary only.  ``IntMatrix(...)``,
``IntMatrix.from_columns`` and ``LatticeBasis(...)`` convert and check every
entry and the shape.  ``IntMatrix.trusted`` checks nothing; it builds every
matrix the package computes from ints it already holds: sums, products,
negations, identities and unimodular inverses here; sampled unimodular
words and involutions; abelianizations, whose columns are the abelian
tuples of ``Element``s, n ints each by that type's invariant; and the
column matrices of eigenlattice and canonical bases, whose columns are
kernel vectors and integer combinations of them.

Matrices act on column vectors; column j of a matrix is the image of the j-th
standard basis vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd

from .errors import NotASummand, NotUnimodular, ZeroVector


def int_entries(values) -> tuple[int, ...]:
    """Exact ints from ints, bools or decimal strings; a float is a ValueError, not truncated.

    A string or bytes in place of the sequence is a ValueError too: it would
    otherwise be split into digits."""
    if isinstance(values, (str, bytes)):
        raise ValueError(f"expected a sequence of integers, got {values!r}")
    if isinstance(values, (tuple, list)):  # re-iterable: try the all-integer path first
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    try:
        return tuple(int(x) if isinstance(x, str) else operator.index(x) for x in values)
    except TypeError:
        raise ValueError(f"expected integers or decimal strings, got {values!r}") from None


# ---------------------------------------------------------------------------
# raw row-list helpers (IntMatrix wraps them; involutions uses them on
# rectangular and intermediate row lists)
# ---------------------------------------------------------------------------

def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@lru_cache(maxsize=64)
def _identity_tuple(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _identity_rows(n)))


def mul_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols_b = list(zip(*b))
    return [[sum(map(operator.mul, ra, col)) for col in cols_b] for ra in a]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _bareiss(a: list) -> int:
    """Fraction-free (Bareiss) forward elimination, in place, of a list of n
    rows whose first n columns are square; later columns are carried along.
    Returns the determinant of that block: 0 as soon as a column has no
    nonzero pivot candidate (a zero pivot is swapped with the first nonzero
    entry below it), else +-a[n - 1][n - 1] of the upper-triangular result.
    Every division is exact.  Rows are replaced, never mutated."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        pivot = row_k[k]
        # entries left of column k are zero in both rows, and column k cancels
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            if head:
                a[i] = [(x * pivot - head * y) // prev for x, y in zip(row_i, row_k)]
            elif pivot != prev:
                a[i] = [x * pivot // prev for x in row_i]
        prev = pivot
    return sign * a[n - 1][n - 1]


def _eliminate(rows: list[list[int]], *, want_u=False, want_u_inv=False, want_v=False):
    """The one Smith elimination of an m x n row list A: (D, U, U^-1, V) with
    U A V = D, carrying only the transforms asked for (None for the others).

    U is a list of rows; U^-1 and V are lists of columns, so that a column
    step on either is one list comprehension.  Each row step on U is the
    inverse column step on U^-1 (Cohen, section 2.4).  The shortcuts below
    skip arithmetic, never a step, so D and every transform are the same
    whichever transforms are carried.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    u = _identity_rows(m) if want_u else None
    ui = _identity_rows(m) if want_u_inv else None
    v = _identity_rows(n) if want_v else None
    t = 0
    limit = min(m, n)
    while t < limit:
        # smallest nonzero entry of the trailing block becomes the pivot
        piv = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                val = row[j]
                if val and (best is None or abs(val) < best):
                    best = abs(val)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            if u:
                u[t], u[i0] = u[i0], u[t]
            if ui:
                ui[t], ui[i0] = ui[i0], ui[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            if v:
                v[t], v[j0] = v[j0], v[t]
        # rows and columns before t are zero from t on, so each pass scans
        # past t only
        while True:
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    p, q = a[t][t], a[i][t]
                    if q % p == 0:
                        f = q // p
                        a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                        if u:
                            u[i] = [x - f * y for x, y in zip(u[i], u[t])]
                        if ui:
                            ui[t] = [x + f * y for x, y in zip(ui[t], ui[i])]
                    else:
                        g, x, y = _xgcd(p, q)
                        pp, qq = p // g, q // g
                        rt, ri = a[t], a[i]
                        a[t] = [x * s + y * r for s, r in zip(rt, ri)]
                        a[i] = [pp * r - qq * s for s, r in zip(rt, ri)]
                        if u:
                            rt, ri = u[t], u[i]
                            u[t] = [x * s + y * r for s, r in zip(rt, ri)]
                            u[i] = [pp * r - qq * s for s, r in zip(rt, ri)]
                        if ui:
                            ct, ci = ui[t], ui[i]
                            ui[t] = [pp * s + qq * r for s, r in zip(ct, ci)]
                            ui[i] = [x * r - y * s for s, r in zip(ct, ci)]
            # column t is now zero off the pivot row, so until an extended-gcd
            # step refills it a divisible column step changes only a[t][j]
            refilled = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    p, q = a[t][t], a[t][j]
                    if q % p == 0:
                        f = q // p
                        if refilled:
                            for row in a:
                                row[j] -= f * row[t]
                        else:
                            a[t][j] = 0
                        if v:
                            v[j] = [x - f * y for x, y in zip(v[j], v[t])]
                    else:
                        g, x, y = _xgcd(p, q)
                        pp, qq = p // g, q // g
                        for row in a:
                            ct, cj = row[t], row[j]
                            row[t] = x * ct + y * cj
                            row[j] = pp * cj - qq * ct
                        if v:
                            ct, cj = v[t], v[j]
                            v[t] = [x * s + y * r for s, r in zip(ct, cj)]
                            v[j] = [pp * r - qq * s for s, r in zip(ct, cj)]
                        refilled = True
            # the column pass always clears row t
            if not refilled or not any(a[i][t] for i in range(t + 1, m)):
                break
        # divisibility chain: pivot must divide the whole trailing block;
        # a pivot of +-1 divides everything
        d = a[t][t]
        offender = None
        if d != 1 and d != -1:
            for i in range(t + 1, m):
                if any(map(operator.mod, a[i][t + 1:], repeat(d))):
                    offender = i
                    break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            if u:
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
            if ui:
                ui[offender] = [x - y for x, y in zip(ui[offender], ui[t])]
            continue
        t += 1
    for k in range(limit):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            if u:
                u[k] = [-x for x in u[k]]
            if ui:
                ui[k] = [-x for x in ui[k]]
    return a, u, ui, v


def smith_rows(rows: list[list[int]]):
    """Smith decomposition of an m x n integer matrix.

    Returns (U, D, V) as row-lists with U (m x m) and V (n x n) unimodular,
    U @ A @ V = D, D diagonal with nonnegative entries d1 | d2 | ...
    """
    d, u, _, v = _eliminate(rows, want_u=True, want_v=True)
    return u, d, [list(r) for r in zip(*v)]


def smith_divisors(rows) -> list[int]:
    """The diagonal d1 | d2 | ... of the Smith form of an m x n row list,
    min(m, n) nonnegative entries, from one elimination with no transforms."""
    d = _eliminate(rows)[0]
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def _summand_decomposition(columns: list[list[int]], **wants):
    """(U, U^-1, V), as ``_eliminate`` carries them, with U A V = [I; 0] for
    the n x k columns A of a summand basis.  Dependent columns (a zero
    divisor, or k > n) are a ``ValueError``; any other divisor than 1 means
    their span is not a summand (``NotASummand``)."""
    d, *transforms = _eliminate(columns, **wants)
    n = len(columns)
    k = len(columns[0]) if n else 0
    divisors = [d[i][i] for i in range(min(n, k))]
    if k > n or 0 in divisors:
        raise ValueError("vectors are not linearly independent")
    if any(di != 1 for di in divisors):
        raise NotASummand(f"elementary divisors {divisors} are not all 1")
    return transforms


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

class IntMatrix:
    """Square integer matrix with exact arithmetic.

    Immutable; rows are stored as a tuple of tuples of ints.  Column j is the
    image of the j-th standard basis vector.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(int_entries(row) for row in rows)
        n = len(rows)
        if n < 1:
            raise ValueError("matrix rank must be >= 1")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        _set_n(self, n)
        _set_rows(self, rows)

    @classmethod
    def trusted(cls, rows) -> "IntMatrix":
        """Unchecked construction, for matrices computed from ints the
        package already holds: a nonempty square tuple of tuples of ints.
        Input from outside is validated by ``IntMatrix(...)``,
        ``from_columns`` and the parsers."""
        self = _new(cls)
        _set_n(self, len(rows))
        _set_rows(self, rows)
        return self

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    __delattr__ = __setattr__

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise ValueError("matrix rank must be >= 1")
        return cls.trusted(_identity_tuple(n))

    @classmethod
    def from_columns(cls, cols) -> "IntMatrix":
        """The matrix with the given columns, each checked once."""
        cols = [int_entries(c) for c in cols]
        n = len(cols)
        if n < 1:
            raise ValueError("matrix rank must be >= 1")
        if any(len(c) != n for c in cols):
            raise ValueError("matrix must be square")
        return cls.trusted(tuple(zip(*cols)))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.n)]

    def apply(self, vec) -> tuple[int, ...]:
        vec = tuple(vec)
        if len(vec) != self.n:
            raise ValueError("vector length does not match matrix rank")
        return tuple([sum(map(operator.mul, row, vec)) for row in self.rows])

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix ranks differ")
        cols = list(zip(*other.rows))
        return IntMatrix.trusted(tuple([tuple([sum(map(operator.mul, r, c)) for c in cols])
                                       for r in self.rows]))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix ranks differ")
        return IntMatrix.trusted(tuple(tuple(map(operator.add, r, s))
                                       for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix ranks differ")
        return IntMatrix.trusted(tuple(tuple(map(operator.sub, r, s))
                                       for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix.trusted(tuple(tuple(map(operator.neg, r)) for r in self.rows))

    def det(self) -> int:
        return _bareiss(list(self.rows))

    def is_identity(self) -> bool:
        return self.rows == _identity_tuple(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"


_new = object.__new__
_set_n, _set_rows = (vars(IntMatrix)[name].__set__ for name in IntMatrix.__slots__)


@dataclass(frozen=True)
class LatticeBasis:
    """A basis of a direct summand (a saturated subgroup) of Z^rank.

    Validated at construction by one Smith decomposition of the vectors taken
    as columns: a zero divisor means they are dependent (``ValueError``), and
    any other divisor than 1 means their span is not a summand
    (``NotASummand``).  Bases this module reads off a decomposition are built
    unchecked by ``_trusted``.
    """

    rank: int
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, rank: int, vectors):
        vectors = tuple(int_entries(v) for v in vectors)
        if any(len(v) != rank for v in vectors):
            raise ValueError("vector length does not match ambient rank")
        if len(vectors) > rank:
            raise ValueError("more vectors than the ambient rank")
        _summand_decomposition([[v[i] for v in vectors] for i in range(rank)])  # divisors only
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def _trusted(cls, rank: int, vectors: list[tuple[int, ...]]) -> "LatticeBasis":
        """Unchecked construction, for bases read off a Smith decomposition in
        this module: int tuples that span a summand by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "vectors", tuple(vectors))
        return self

    def __len__(self) -> int:
        return len(self.vectors)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def smith_decompose(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U, V unimodular, U*M*V = D diagonal, d1 | d2 | ..."""
    return tuple(IntMatrix.trusted(tuple(map(tuple, rows))) for rows in smith_rows(m.rows))


def kernel_rows(rows: list[list[int]]) -> LatticeBasis:
    """Basis of the kernel of an m x n row list, read off its Smith
    decomposition U A V = D, which needs no U: the columns j of V with
    D e_j = 0, that is over a zero divisor or, when m < n, past the last row.

    The kernel is automatically a saturated direct summand of Z^n.
    """
    d, _, _, v = _eliminate(rows, want_v=True)
    return LatticeBasis._trusted(
        len(v), [tuple(col) for j, col in enumerate(v) if j >= len(d) or d[j][j] == 0])


def kernel_summand_basis(m: IntMatrix) -> LatticeBasis:
    """Basis of ker(M), which is automatically a saturated direct summand.

    Empty when the kernel is trivial; the full standard basis for M = 0.
    """
    return kernel_rows(m.to_lists())


def summand_frame(columns: list[list[int]]):
    """(C, rows of [A | C]^-1) for the n x k columns A of a summand basis.

    One Smith elimination U A V = [I; 0], carrying U^-1 alongside U, gives
    both: the columns C that complete A to a basis of Z^n are the last n - k
    columns of U^-1, and [A | C]^-1 = diag(V, I) U takes a vector to its
    coordinates on A, then C.
    Raises as ``LatticeBasis`` does when A is not a summand basis.
    """
    u, u_inv, v = _summand_decomposition(columns, want_u=True, want_u_inv=True, want_v=True)
    k = len(v)
    complement = [tuple(col) for col in u_inv[k:]]
    return complement, mul_rows(list(zip(*v)), u[:k]) + u[k:]


def direct_complement(basis: LatticeBasis) -> LatticeBasis:
    """A basis C with basis + C a basis of Z^n (det +-1).

    The returned complement is *some* valid complement; callers must not rely
    on a canonical choice.
    """
    complement, _ = summand_frame([[v[i] for v in basis.vectors] for i in range(basis.rank)])
    return LatticeBasis._trusted(basis.rank, complement)


def is_unimodular_vector(vec) -> bool:
    """True iff the gcd of the entries is 1 (vector lies in some basis)."""
    vec = int_entries(vec)
    if not any(vec):
        raise ZeroVector("the zero vector is not unimodular nor imprimitive")
    return gcd(*vec) == 1


def is_unimodular_matrix(m: IntMatrix) -> bool:
    return m.det() in (1, -1)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a determinant +-1 matrix (integer entries).

    One fraction-free pass on [M | I] leaves [T | R] with T upper triangular
    and T X = R exactly for X = M^-1, which back-substitution then solves
    row by row from the bottom; each division is exact because X is
    integral.  ``NotUnimodular`` when the determinant is not +-1.
    """
    n = m.n
    a = [list(row) + e for row, e in zip(m.rows, _identity_rows(n))]
    det = _bareiss(a)
    if det not in (1, -1):
        raise NotUnimodular(f"determinant {det} is not +-1")
    x = [None] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        rhs = row[n:]
        for j in range(k + 1, n):
            f = row[j]
            if f:
                rhs = [r - f * y for r, y in zip(rhs, x[j])]
        pivot = row[k]
        x[k] = tuple(r // pivot for r in rhs)
    return IntMatrix.trusted(tuple(x))


def decompose_into_unimodular(vec) -> list[tuple[int, ...]]:
    """Write vec as a sum of at most two unimodular vectors.

    A unimodular vec is returned as is.  Otherwise the closed form
    (1, v2 - 1, 0, ..., 0) + (v1 - 1, 1, v3, ..., vn) applies: each part has
    an entry equal to 1, so both are unimodular.
    """
    vec = int_entries(vec)
    if len(vec) < 2:
        raise ValueError("decomposition requires ambient rank >= 2")
    if gcd(*vec) == 1:
        return [vec]
    v1, v2, *rest = vec
    return [(1, v2 - 1) + (0,) * len(rest), (v1 - 1, 1, *rest)]
