import itertools
import operator
import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freenil2.errors import NotASummand, NotUnimodular, ZeroVector
from freenil2.sampling import random_unimodular_word
from freenil2.zlinalg import (
    IntMatrix,
    LatticeBasis,
    decompose_into_unimodular,
    direct_complement,
    int_entries,
    inverse_unimodular,
    is_unimodular_matrix,
    is_unimodular_vector,
    kernel_rows,
    kernel_summand_basis,
    mul_rows,
    smith_decompose,
    smith_divisors,
    smith_rows,
    summand_frame,
)
from involution_strategies import diagonalizable_pairs
from smith_reference import smith_rows_reference, unimodular_inverse_rows_reference


def minors_gcd(rows, k):
    """gcd of all k x k minors; independent oracle for elementary divisors."""
    n = len(rows)
    g = 0
    for rsel in itertools.combinations(range(n), k):
        for csel in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, IntMatrix(sub).det() if k > 1 else sub[0][0])
    return abs(g)


def random_matrix(rng, n, bound=4):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


class TestSmith:
    def test_identity(self):
        u, d, v = smith_decompose(IntMatrix.identity(3))
        assert d == IntMatrix.identity(3)
        assert u * IntMatrix.identity(3) * v == d

    def test_divisibility_chain_example(self):
        m = IntMatrix([[2, 0], [0, 3]])
        u, d, v = smith_decompose(m)
        assert d == IntMatrix([[1, 0], [0, 6]])
        assert u * m * v == d
        assert is_unimodular_matrix(u) and is_unimodular_matrix(v)

    def test_zero_matrix(self):
        z = IntMatrix([[0, 0], [0, 0]])
        _, d, _ = smith_decompose(z)
        assert d == z

    def test_random_roundtrip_and_divisor_oracle(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n)
            u, d, v = smith_decompose(m)
            assert u * m * v == d
            assert is_unimodular_matrix(u)
            assert is_unimodular_matrix(v)
            diag = [d.rows[i][i] for i in range(n)]
            assert all(x >= 0 for x in diag)
            for i in range(n - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
                assert d.rows[i][i + 1] == 0
            # elementary divisors match the gcd-of-minors oracle
            prod = 1
            for k in range(1, n + 1):
                prod *= diag[k - 1]
                assert abs(prod) == minors_gcd(m.to_lists(), k)


class TestSmithDivisors:
    def test_examples(self):
        assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
        assert smith_divisors([[0, 0], [0, 0]]) == [0, 0]
        assert smith_divisors([[2, 4, 6]]) == [2]
        assert smith_divisors([[3], [6]]) == [3]


class TestTrustedResults:
    """Results built unchecked inside zlinalg equal the validated
    construction from the same rows: square tuples of tuples of ints."""

    def test_equal_validated_construction(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 5)
            a, a_inv = random_unimodular_word(rng, n, 8)
            b = random_matrix(rng, n)
            results = [a * b, a + b, a - b, -b, IntMatrix.identity(n),
                       inverse_unimodular(a), IntMatrix.from_columns(b.columns()),
                       *smith_decompose(b)]
            for r in results:
                assert type(r.rows) is tuple and all(type(row) is tuple for row in r.rows)
                assert all(type(x) is int for row in r.rows for x in row)
                assert r == IntMatrix(r.rows) and hash(r) == hash(IntMatrix(r.rows))
                assert r.n == n
            assert inverse_unimodular(a) == a_inv
            assert IntMatrix.from_columns(map(list, b.columns())) == b

    def test_from_columns_checks_each_column(self):
        assert IntMatrix.from_columns([(1, "2"), [True, 4]]) == IntMatrix([[1, 1], [2, 4]])
        for cols in ([(1, 2, 3), (4, 5, 6)], [(1,), (4, 5)], [(1, 2), (3,)], [(1, 2)]):
            with pytest.raises(ValueError, match="matrix must be square"):
                IntMatrix.from_columns(cols)
        with pytest.raises(ValueError, match="matrix rank must be >= 1"):
            IntMatrix.from_columns([])
        for cols in ([(1, 0), (0.5, 1)], ["10", "01"]):
            with pytest.raises(ValueError):
                IntMatrix.from_columns(cols)

    def test_identity_and_ranks_checked(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(0)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="matrix ranks differ"):
                op(IntMatrix.identity(2), IntMatrix.identity(3))


class TestIntegerEntries:
    def test_float_entries_rejected(self):
        # int() would truncate each of these to an integer matrix or basis
        for rows in ([[1.5, 0], [0, 1]], [[1, 0], [0, 1.0]]):
            with pytest.raises(ValueError):
                IntMatrix(rows)
        for vectors in ([(0.5, 1)], [(1, 0), (0, 1.0)]):
            with pytest.raises(ValueError):
                LatticeBasis(2, vectors)
        # (1.5, 2) truncates to the unimodular (1, 2), (2.5, 4) to (2, 4)
        with pytest.raises(ValueError):
            is_unimodular_vector((1.5, 2))
        with pytest.raises(ValueError):
            decompose_into_unimodular((2.5, 4))

    def test_ints_bools_and_decimal_strings_convert(self):
        m = IntMatrix([["2", True], [0, 1]])
        assert m == IntMatrix([[2, 1], [0, 1]])
        assert all(type(x) is int for row in m.rows for x in row)
        assert LatticeBasis(2, [("1", False)]).vectors == ((1, 0),)
        assert int_entries(["12", "-3"]) == (12, -3)
        assert IntMatrix([["12", "-3"], ["0", "1"]]).rows == ((12, -3), (0, 1))

    def test_string_in_place_of_a_sequence_rejected(self):
        # a string is iterable, so each would otherwise be split into digits:
        # ["10", "01"] would be the identity matrix
        for values in ("123", "-1", b"12", ""):
            with pytest.raises(ValueError, match="expected a sequence of integers"):
                int_entries(values)
        with pytest.raises(ValueError):
            IntMatrix(["10", "01"])
        with pytest.raises(ValueError):
            LatticeBasis(2, ["10"])

    @given(st.lists(st.one_of(st.integers(-10**20, 10**20), st.booleans(),
                              st.integers(-999, 999).map(str),
                              st.sampled_from(("x", "", 1.0, 2.5, None))), max_size=6),
           st.sampled_from((list, tuple, iter)))
    @settings(max_examples=300, deadline=None)
    def test_all_integer_path_agrees_with_per_entry_path(self, values, container):
        # int_entries tries tuple(map(operator.index, ...)) on a list or a
        # tuple first; the per-entry conversion must give the same result
        # or the same ValueError, also for a one-shot iterator
        try:
            expected = tuple(int(x) if isinstance(x, str) else operator.index(x) for x in values)
        except (TypeError, ValueError):
            with pytest.raises(ValueError):
                int_entries(container(values))
        else:
            got = int_entries(container(values))
            assert got == expected and all(type(x) is int for x in got)


class TestKernel:
    def box_kernel(self, m: IntMatrix, bound=5):
        """Independent oracle: enumerate kernel vectors with entries in [-bound, bound]."""
        hits = []
        for vec in itertools.product(range(-bound, bound + 1), repeat=m.n):
            if any(vec) and all(x == 0 for x in m.apply(vec)):
                hits.append(vec)
        return hits

    def test_fixed_space_example(self):
        f = IntMatrix([[2, 1], [-3, -2]])
        k = kernel_summand_basis(f - IntMatrix.identity(2))
        assert len(k) == 1
        v = k.vectors[0]
        assert v in ((1, -1), (-1, 1))
        assert v in self.box_kernel(f - IntMatrix.identity(2))

    def test_zero_and_identity(self):
        assert len(kernel_summand_basis(IntMatrix([[0, 0], [0, 0]]))) == 2
        assert len(kernel_summand_basis(IntMatrix.identity(3))) == 0

    def test_random_kernel_properties(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(2, 4)
            m = random_matrix(rng, n, bound=3)
            k = kernel_summand_basis(m)
            for vec in k.vectors:
                assert all(x == 0 for x in m.apply(vec))
            # extending by a complement gives a basis of Z^n
            c = direct_complement(k)
            combined = list(k.vectors) + list(c.vectors)
            assert abs(IntMatrix.from_columns(combined).det()) == 1

    def test_wide_row_lists(self):
        # fewer rows than columns: the columns of V past the last row of D
        # are in the kernel too
        rows = [[1, 2, 3]]
        k = kernel_rows(rows)
        assert len(k) == 2
        for vec in k.vectors:
            assert sum(a * x for a, x in zip(rows[0], vec)) == 0
        assert LatticeBasis(3, k.vectors) == k
        assert kernel_rows([[0, 0, 0], [0, 0, 0]]).vectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@st.composite
def vector_lists(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return n, draw(st.lists(row, min_size=k, max_size=k))


class TestLatticeBasis:
    @given(vector_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_minors_oracle(self, case):
        """Accepted iff the k x k minors of the vectors have gcd 1; dependent
        (every minor 0) is a ValueError, any other gcd NotASummand."""
        n, vectors = case
        g = 0
        for rsel in itertools.combinations(range(n), len(vectors)):
            g = gcd(g, cofactor_det([[v[i] for v in vectors] for i in rsel]))
        if g == 1:
            assert LatticeBasis(n, vectors).vectors == tuple(map(tuple, vectors))
        else:
            with pytest.raises((ValueError, NotASummand)) as exc:
                LatticeBasis(n, vectors)
            assert exc.type is (ValueError if g == 0 else NotASummand)


class TestComplement:
    def test_example(self):
        s = LatticeBasis(2, [(1, -1)])
        c = direct_complement(s)
        assert abs(IntMatrix.from_columns([(1, -1)] + list(c.vectors)).det()) == 1
        # independent oracle: some complement with small entries exists
        assert any(
            abs(IntMatrix.from_columns([(1, -1), v]).det()) == 1
            for v in itertools.product(range(-3, 4), repeat=2)
        )

    def test_full_and_empty(self):
        full = LatticeBasis(2, [(1, 0), (0, 1)])
        assert len(direct_complement(full)) == 0
        empty = LatticeBasis(3, [])
        assert len(direct_complement(empty)) == 3

    def test_not_a_summand(self):
        with pytest.raises(NotASummand):
            LatticeBasis(2, [(2, 0)])

    def test_dependent_vectors_rejected(self):
        with pytest.raises(ValueError):
            LatticeBasis(2, [(1, 1), (2, 2)])


@st.composite
def summand_columns(draw):
    """(n, A): the first k columns of a unimodular matrix built from
    elementary column operations and sign changes, as an n x k row list."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=12)):
        if i != j:
            for row in m:
                row[i] += c * row[j]
    for j, flip in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        if flip:
            for row in m:
                row[j] = -row[j]
    return n, [row[:k] for row in m]


class TestSummandFrame:
    @given(summand_columns())
    @settings(max_examples=200, deadline=None)
    def test_completes_and_inverts(self, case):
        n, a = case
        complement, rows = summand_frame(a)
        frame = [list(r) + [c[i] for c in complement] for i, r in enumerate(a)]
        assert cofactor_det(frame) in (1, -1)
        assert [[sum(x * frame[t][j] for t, x in enumerate(row)) for j in range(n)]
                for row in rows] == [[int(i == j) for j in range(n)] for i in range(n)]
        vectors = [tuple(r[j] for r in a) for j in range(len(a[0]))]
        assert complement == list(direct_complement(LatticeBasis(n, vectors)).vectors)

    def test_rejects_non_summands(self):
        with pytest.raises(NotASummand):
            summand_frame([[2], [0]])
        with pytest.raises(ValueError):
            summand_frame([[1, 2], [1, 2]])


class TestUnimodular:
    def test_vector_examples(self):
        assert is_unimodular_vector((1, 0, 0))
        assert not is_unimodular_vector((2, 0))
        assert is_unimodular_vector((6, 10, 15))
        with pytest.raises(ZeroVector):
            is_unimodular_vector((0, 0))

    def test_matrix_examples(self):
        assert is_unimodular_matrix(IntMatrix.identity(2))
        assert is_unimodular_matrix(IntMatrix([[1, 0], [2, -1]]))
        assert not is_unimodular_matrix(IntMatrix([[2, 0], [0, 1]]))

    def test_inverse_examples(self):
        assert inverse_unimodular(IntMatrix.identity(2)) == IntMatrix.identity(2)
        assert inverse_unimodular(IntMatrix([[1, 1], [0, 1]])) == IntMatrix([[1, -1], [0, 1]])
        swap = IntMatrix([[0, 1], [1, 0]])
        assert inverse_unimodular(swap) == swap
        with pytest.raises(NotUnimodular):
            inverse_unimodular(IntMatrix([[2, 0], [0, 1]]))

    def test_inverse_random(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, bound=3)
            if not is_unimodular_matrix(m):
                with pytest.raises(NotUnimodular):
                    inverse_unimodular(m)
                m, _ = random_unimodular_word(rng, n, 4 * n)
            inv = inverse_unimodular(m)
            assert m * inv == IntMatrix.identity(n)
            assert inv * m == IntMatrix.identity(n)


@st.composite
def square_inputs(draw):
    """Square row lists of rank 1-8: mostly unimodular P D L U products of
    unit-triangular factors with entries of up to three digits (up to seven
    digits in the product; the permutation often puts a zero on the leading
    pivot), some with one row scaled, which makes them singular or of
    another determinant, and some with arbitrary entries of up to six
    digits."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("unimodular", "unimodular", "scaled", "arbitrary")))
    entry = st.one_of(st.just(0), st.sampled_from((-1, 1)), st.integers(-999_999, 999_999))
    if kind == "arbitrary":
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    small = st.one_of(st.just(0), st.sampled_from((-1, 1)), st.integers(-999, 999))
    lower = [[draw(small) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(small) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    signs = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    rows = [[s * x for x in row] for s, row in zip(signs, mul_rows(lower, upper))]
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    if kind == "scaled":
        i = draw(st.integers(0, n - 1))
        factor = draw(st.sampled_from((0, 2, -2, 3, 7)))
        rows[i] = [factor * x for x in rows[i]]
    return rows


class TestInverseOracle:
    """inverse_unimodular, by fraction-free elimination, against the inverse
    read off the Smith decomposition (tests/smith_reference.py)."""

    @given(square_inputs())
    @settings(max_examples=400, deadline=None)
    # zero leading pivots, unimodular and not
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    @example([[0, 2, 1], [1, 7, 3], [0, 1, 1]])
    @example([[0, 1], [0, 2]])
    @example([[0, 1, 0], [0, 0, 1], [0, 3, 4]])
    @example([[0, 2], [1, 0]])
    def test_matches_smith_inverse(self, rows):
        try:
            expected = unimodular_inverse_rows_reference(rows)
        except NotUnimodular:
            with pytest.raises(NotUnimodular):
                inverse_unimodular(IntMatrix(rows))
            return
        assert inverse_unimodular(IntMatrix(rows)).to_lists() == expected


class TestDecompose:
    def check(self, vec, parts):
        assert 1 <= len(parts) <= 2
        assert tuple(sum(p[i] for p in parts) for i in range(len(vec))) == tuple(vec)
        for p in parts:
            assert is_unimodular_vector(p)

    def test_examples(self):
        for vec in [(2, 0), (0, 0), (4, 6)]:
            self.check(vec, decompose_into_unimodular(vec))

    def test_unimodular_input_returns_itself(self):
        assert decompose_into_unimodular((3, 5)) == [(3, 5)]

    def test_three_parts_allowed(self):
        # a search over small shells needed three parts here; two always suffice
        parts = decompose_into_unimodular((6, 10))
        self.check((6, 10), parts)
        assert len(parts) == 2

    def test_bounded_search_reports_failure(self):
        # CRT-built so that v - u has a prime factor for every unimodular u
        # of max-norm 1, while gcd(v) = 23: a search of radius 1 found nothing
        vec = (99898085, 124043646)
        parts = decompose_into_unimodular(vec)
        self.check(vec, parts)
        assert len(parts) == 2

    def test_random(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 4)
            vec = tuple(rng.randint(-6, 6) for _ in range(n))
            self.check(vec, decompose_into_unimodular(vec))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[st.integers(-10**30, 10**30)] * n)), st.integers(1, 10**6))
    def test_closed_form_property(self, base, scale):
        # scaling makes most inputs non-unimodular, which random entries rarely are
        vec = tuple(scale * x for x in base)
        parts = decompose_into_unimodular(vec)
        if gcd(*vec) == 1:
            assert parts == [vec]
        else:
            self.check(vec, parts)
            assert len(parts) == 2

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            decompose_into_unimodular((5,))


@st.composite
def engine_inputs(draw):
    """m x n row lists with m, n <= 8, square or not: mostly zeros and units
    (so pivots of -1 occur), with entries of up to six digits."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.sampled_from((-1, 1)), st.integers(-999_999, 999_999))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@st.composite
def stacked_kernel_inputs(draw):
    """The 2n x n stacks [F -+ I; G -+ I] whose kernels commuting_decomposition
    reads, for diagonalizable involutions F and G of rank n <= 8."""
    stacked = []
    for f in draw(diagonalizable_pairs()):
        e = draw(st.sampled_from((1, -1)))
        stacked += [[x - e * (i == j) for j, x in enumerate(row)] for i, row in enumerate(f)]
    return stacked


class TestEngineOracle:
    """The Smith engine, which carries only the transforms its caller reads,
    against the elimination that always carries U and V in full
    (tests/smith_reference.py)."""

    @given(st.one_of(engine_inputs(), stacked_kernel_inputs()))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, rows):
        u, d, v = smith_rows_reference(rows)
        assert smith_rows(rows) == (u, d, v)
        m, n = len(rows), len(rows[0])
        assert kernel_rows(rows).vectors == tuple(
            tuple(r[j] for r in v) for j in range(n) if j >= m or d[j][j] == 0)
        assert smith_divisors(rows) == [d[i][i] for i in range(min(m, n))]
        self.check_frame(rows)
        # the first columns of a unimodular matrix always span a summand
        self.check_frame([r[:min(m, n)] for r in unimodular_inverse_rows_reference(u)])

    @staticmethod
    def check_frame(a):
        """summand_frame against the reference U and V: the complement is the
        last columns of U^-1, the coordinate rows are diag(V, I) U."""
        u, d, v = smith_rows_reference(a)
        n, k = len(a), len(a[0])
        if k > n or any(d[i][i] != 1 for i in range(k)):
            with pytest.raises((ValueError, NotASummand)):
                summand_frame(a)
            return
        complement, rows = summand_frame(a)
        u_inv = unimodular_inverse_rows_reference(u)
        assert complement == [tuple(r[j] for r in u_inv) for j in range(k, n)]
        assert rows == mul_rows(v, u[:k]) + u[k:]
