import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenil2 import autgroup as ag
from freenil2 import involutions as inv
from freenil2.errors import (
    FreeNil2Error,
    NotDiagonalizable,
    NotInvolution,
    OddNegativeRank,
    RankMismatch,
)
from freenil2.sampling import random_involution_matrix, random_symmetry_mod_ia
from freenil2.zlinalg import (
    IntMatrix,
    LatticeBasis,
    direct_complement,
    is_unimodular_matrix,
    kernel_rows,
    kernel_summand_basis,
)

from involution_strategies import BLOCK_TYPES, block_sum, conjugate, involutions
from smith_reference import block_type_by_smith_divisors

DATA = Path(__file__).parent / "data"


def brute_force_block_type(f: IntMatrix, bound=3):
    """Independent oracle for 2x2 canonical forms: scan all unimodular bases
    with entries in [-bound, bound] and read off the action on the columns."""
    assert f.n == 2
    found = set()
    for entries in itertools.product(range(-bound, bound + 1), repeat=4):
        b = IntMatrix([entries[:2], entries[2:]])
        if not is_unimodular_matrix(b):
            continue
        c0, c1 = b.column(0), b.column(1)
        i0, i1 = f.apply(c0), f.apply(c1)
        roles = []
        for c, i in ((c0, i0), (c1, i1)):
            if i == c:
                roles.append("fixed")
            elif i == tuple(-x for x in c):
                roles.append("negated")
            else:
                roles.append(None)
        if roles == ["fixed", "fixed"]:
            found.add((2, 0, 0))
        elif sorted(r or "" for r in roles) == ["fixed", "negated"]:
            found.add((1, 1, 0))
        elif roles == ["negated", "negated"]:
            found.add((0, 2, 0))
        elif i0 == c1 and i1 == c0:
            found.add((0, 0, 1))
    return found


class TestPlusMinus:
    def test_identity(self):
        pm = inv.plus_minus(IntMatrix.identity(2))
        assert len(pm.plus) == 2 and len(pm.minus) == 0

    def test_swap(self):
        pm = inv.plus_minus(IntMatrix([[0, 1], [1, 0]]))
        assert {tuple(abs(x) for x in v) for v in pm.plus.vectors} == {(1, 1)}
        assert len(pm.minus) == 1

    def test_conjugated_example(self):
        f = IntMatrix([[2, 1], [-3, -2]])
        pm = inv.plus_minus(f)
        (p,) = pm.plus.vectors
        (m,) = pm.minus.vectors
        assert f.apply(p) == p
        assert f.apply(m) == tuple(-x for x in m)
        assert p in ((1, -1), (-1, 1))
        assert m in ((1, -3), (-1, 3))

    def test_rejects_non_involution(self):
        with pytest.raises(NotInvolution):
            inv.plus_minus(IntMatrix([[1, 1], [0, 1]]))

    def test_ranks_sum(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(2, 5)
            f = random_involution_matrix(rng, n)
            pm = inv.plus_minus(f)
            assert len(pm.plus) + len(pm.minus) == n


def digits(f: IntMatrix) -> int:
    return max(len(str(abs(x))) for row in f.rows for x in row)


def block_involution(rng, n, swaps):
    """F = E B E^-1 for a block sum B of a drawn type (p, m, s), with s > 0
    when swaps and n >= 2, conjugated by transvections I + c e_ij until the
    largest entry has a drawn number of digits, 1 to 6 (1 for B = +-I)."""
    s = rng.randint(1, n // 2) if swaps and n >= 2 else 0
    p = rng.randint(0, n - 2 * s)
    m = n - 2 * s - p
    block = [[0] * n for _ in range(n)]
    for i in range(p):
        block[i][i] = 1
    for i in range(p, p + m):
        block[i][i] = -1
    for a in range(p + m, n, 2):
        block[a][a + 1] = block[a + 1][a] = 1
    target = 1 if n in (p, m) else rng.randint(1, 6)  # +-I is its only conjugate
    f = [list(r) for r in block]
    while digits(IntMatrix(f)) != target:
        if digits(IntMatrix(f)) > target:
            f = [list(r) for r in block]
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        f[i] = [x + c * y for x, y in zip(f[i], f[j])]  # E F
        for row in f:  # (E F) E^-1
            row[j] -= c * row[i]
    return IntMatrix(f), (p, m, s)


class TestBlockType:
    """involution_block_type gives (p, m, s) in closed form, from tr F and
    the rank of F - I over F_2; the Smith divisors of F - I
    (tests/smith_reference.py), plus_minus (eigenlattice kernels and a
    determinant) and the canonical basis are the independent routes to the
    same triple."""

    @given(involutions(), st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2)))
    @settings(max_examples=300, deadline=None)
    def test_matches_smith_divisors(self, drawn, nudge):
        """W B W^-1 at ranks 1-8, every type, entries of up to six digits;
        then one entry nudged, which mostly leaves no involution."""
        rows, built = drawn
        assert inv.involution_block_type(IntMatrix(rows)) == built
        assert block_type_by_smith_divisors(rows) == built
        n = len(rows)
        i, j, c = nudge
        rows[i % n][j % n] += c
        f = IntMatrix(rows)
        if (f * f).is_identity():
            assert inv.involution_block_type(f) == block_type_by_smith_divisors(rows)
        else:
            with pytest.raises(NotInvolution):
                inv.involution_block_type(f)

    def test_every_type_matches_smith_divisors(self):
        rng = random.Random(17)
        for p, m, s in BLOCK_TYPES:
            n = p + m + 2 * s
            steps = [(rng.randrange(n), rng.randrange(n), rng.randint(-99, 99)) for _ in range(40)]
            (rows,) = conjugate([block_sum(p, m, s)], steps)
            assert inv.involution_block_type(IntMatrix(rows)) == (p, m, s)
            assert block_type_by_smith_divisors(rows) == (p, m, s)

    def test_examples(self):
        assert inv.involution_block_type(IntMatrix.identity(3)) == (3, 0, 0)
        assert inv.involution_block_type(-IntMatrix.identity(3)) == (0, 3, 0)
        assert inv.involution_block_type(IntMatrix([[1]])) == (1, 0, 0)
        assert inv.involution_block_type(IntMatrix([[-1]])) == (0, 1, 0)
        assert inv.involution_block_type(IntMatrix([[0, 1], [1, 0]])) == (0, 0, 1)
        assert inv.involution_block_type(IntMatrix([[2, 1], [-3, -2]])) == (0, 0, 1)
        assert inv.involution_block_type(IntMatrix([[-1, 0], [2, 1]])) == (1, 1, 0)
        with pytest.raises(NotInvolution):
            inv.involution_block_type(IntMatrix([[1, 1], [0, 1]]))

    def test_matches_eigenlattices_and_canonical_basis(self):
        rng = random.Random(11)
        seen_digits = set()
        for n in range(1, 9):
            for k in range(24):
                f, built = block_involution(rng, n, swaps=k % 2 == 1)
                seen_digits.add(digits(f))
                pm = inv.plus_minus(f)
                s = pm.defect
                assert inv.involution_block_type(f) == built
                assert built == (len(pm.plus) - s, len(pm.minus) - s, s)
                assert built == inv.canonicalize_involution(f).block_type()
        assert seen_digits == {1, 2, 3, 4, 5, 6}


class TestDefect:
    def test_examples(self):
        # the defect is the swap count s of the block type
        assert inv.involution_block_type(IntMatrix([[1, 0], [0, -1]]))[2] == 0
        assert inv.involution_block_type(IntMatrix([[0, 1], [1, 0]]))[2] == 1
        assert inv.involution_block_type(IntMatrix([[2, 1], [-3, -2]]))[2] == 1


class TestCanonicalForm:
    def test_negated_fixed_example(self):
        f = IntMatrix([[-1, 0], [2, 1]])
        form = inv.canonicalize_involution(f)
        assert form.block_type() == (1, 1, 0)
        form.validate(f)
        assert brute_force_block_type(f) == {(1, 1, 0)}

    def test_swap_example(self):
        f = IntMatrix([[2, 1], [-3, -2]])
        form = inv.canonicalize_involution(f)
        assert form.block_type() == (0, 0, 1)
        form.validate(f)
        assert brute_force_block_type(f) == {(0, 0, 1)}

    def test_identity(self):
        assert inv.canonicalize_involution(IntMatrix.identity(4)).block_type() == (4, 0, 0)
        assert inv.canonicalize_involution(-IntMatrix.identity(3)).block_type() == (0, 3, 0)

    def test_random_involutions(self):
        rng = random.Random(2)
        for _ in range(150):
            n = rng.randint(2, 5)
            f = random_involution_matrix(rng, n)
            pm = inv.plus_minus(f)
            s = inv.involution_block_type(f)[2]
            form = inv.canonicalize_involution(f)
            form.validate(f)
            assert form.block_type() == (len(pm.plus) - s, len(pm.minus) - s, s)

    def test_rejects_non_involution(self):
        with pytest.raises(NotInvolution):
            inv.canonicalize_involution(IntMatrix([[1, 1], [0, 1]]))


class TestLatticeCorpus:
    """Replays inputs and outputs recorded before LatticeBasis lost its
    second elimination routine (written by tests/make_kernel_corpus.py)."""

    corpus = json.loads((DATA / "lattice_corpus_r2_6_s4.json").read_text())

    @staticmethod
    def vectors(basis):
        return [list(v) for v in basis.vectors]

    @staticmethod
    def outcome(encode, op, *args):
        try:
            return encode(op(*args))
        except FreeNil2Error as exc:
            return {"error": type(exc).__name__}

    def test_involutions(self):
        for case in self.corpus["involutions"]:
            f = IntMatrix(case["f"])
            pm = inv.plus_minus(f)
            assert self.vectors(pm.plus) == case["plus"]
            assert self.vectors(pm.minus) == case["minus"]
            assert pm.defect == inv.involution_block_type(f)[2] == case["defect"]
            kernel = kernel_summand_basis(f - IntMatrix.identity(f.n))
            assert self.vectors(kernel) == case["kernel"]
            assert self.vectors(direct_complement(kernel)) == case["complement"]
            form = inv.canonicalize_involution(f)
            assert list(form.block_type()) == case["type"]
            assert form.basis.to_lists() == case["basis"]

    def test_read_off_bases_pass_validation(self):
        """Slow oracle for the bases zlinalg builds unchecked: each kernel and
        complement passes the validating constructor unchanged."""
        involutions = [IntMatrix(case["f"]) for case in self.corpus["involutions"]]
        pairs = [(IntMatrix(case["f"]), IntMatrix(case["g"])) for case in self.corpus["pairs"]]
        bases = []
        for f in involutions + [m for pair in pairs for m in pair]:
            identity = IntMatrix.identity(f.n)
            bases += [kernel_summand_basis(f - identity), kernel_summand_basis(f + identity)]
        for f, g in pairs:
            identity = IntMatrix.identity(f.n)
            halves = [((m - identity).to_lists(), (m + identity).to_lists()) for m in (f, g)]
            bases += [kernel_rows(top + bottom) for top in halves[0] for bottom in halves[1]]
        bases += [direct_complement(b) for b in bases]
        for basis in bases:
            assert LatticeBasis(basis.rank, basis.vectors) == basis

    def test_script_refuses_to_overwrite(self, tmp_path):
        import make_kernel_corpus

        path = tmp_path / "corpus.json"
        path.write_text("pinned\n")
        with pytest.raises(FileExistsError):
            make_kernel_corpus.write_new(path, "{}\n")
        assert path.read_text() == "pinned\n"

    def test_pairs(self):
        for case in self.corpus["pairs"]:
            f, g = IntMatrix(case["f"]), IntMatrix(case["g"])
            bases = self.outcome(lambda bs: [self.vectors(b) for b in bs],
                                 inv.commuting_decomposition, f, g)
            assert bases == case["commuting"]
            assert self.outcome(IntMatrix.to_lists, inv.sqrt_of_involution, f) == case["sqrt"]


class TestCommutingDecomposition:
    def test_diagonal_pair(self):
        f = IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        g = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        bases = inv.commuting_decomposition(f, g)
        assert [len(b) for b in bases] == [1, 1, 1, 0]
        assert inv.is_direct_sum(bases, 3)

    def test_equal_involutions(self):
        f = IntMatrix([[1, 0], [0, -1]])
        bases = inv.commuting_decomposition(f, f)
        assert [len(b) for b in bases] == [1, 0, 0, 1]
        assert inv.is_direct_sum(bases, 2)

    def test_non_commuting_pair_fails_direct_sum(self):
        f = IntMatrix([[1, 0], [0, -1]])
        t = IntMatrix([[1, 1], [0, 1]])
        g = t * f * IntMatrix([[1, -1], [0, 1]])
        assert f * g != g * f
        bases = inv.commuting_decomposition(f, g)
        assert not inv.is_direct_sum(bases, 2)

    def test_bases_outside_the_rank_rejected(self):
        # a rank-3 basis used to be truncated to its first two coordinates
        with pytest.raises(RankMismatch):
            inv.is_direct_sum([LatticeBasis(3, [(1, 0, 0), (0, 1, 5)])], 2)
        with pytest.raises(RankMismatch):
            inv.is_direct_sum([LatticeBasis(2, [(1, 0)]), LatticeBasis(1, [(1,)])], 2)

    def test_characterizes_commuting(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 4)
            f = random_involution_matrix(rng, n, diagonalizable=True)
            g = random_involution_matrix(rng, n, diagonalizable=True)
            bases = inv.commuting_decomposition(f, g)
            assert inv.is_direct_sum(bases, n) == (f * g == g * f)


class TestSqrt:
    def test_rotation_relation(self):
        h = inv.sqrt_of_involution(-IntMatrix.identity(2))
        assert h == IntMatrix([[0, -1], [1, 0]])
        assert h * h == -IntMatrix.identity(2)

    def test_block_example(self):
        f = IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        h = inv.sqrt_of_involution(f)
        assert h * h == f
        assert is_unimodular_matrix(h)

    def test_odd_negated_rank_rejected(self):
        with pytest.raises(OddNegativeRank):
            inv.sqrt_of_involution(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))

    def test_non_diagonalizable_rejected(self):
        with pytest.raises(NotDiagonalizable):
            inv.sqrt_of_involution(IntMatrix([[0, 1], [1, 0]]))

    def test_random(self):
        rng = random.Random(4)
        done = 0
        while done < 40:
            n = rng.randint(2, 5)
            f = random_involution_matrix(rng, n, diagonalizable=True)
            if len(inv.plus_minus(f).minus) % 2:
                continue
            h = inv.sqrt_of_involution(f)
            assert h * h == f and is_unimodular_matrix(h)
            done += 1


class TestOrderThree:
    def test_rank_two(self):
        f1, f2 = inv.order_three_product_pair(2)
        m = f1 * f2
        assert m == IntMatrix([[-1, 1], [-1, 0]])
        assert (m * m) == IntMatrix([[0, -1], [1, -1]])
        assert (m * m * m).is_identity()
        assert not m.is_identity()

    def test_rank_five(self):
        f1, f2 = inv.order_three_product_pair(5)
        assert (f1 * f1).is_identity() and (f2 * f2).is_identity()
        m = f1 * f2
        assert (m * m * m).is_identity()
        assert not m.is_identity() and not (m * m).is_identity()


def padded(m: IntMatrix, n: int) -> IntMatrix:
    """m in the top-left corner of the rank-n identity."""
    return IntMatrix([list(row) + [0] * (n - m.n) for row in m.rows]
                     + [[int(i == j) for j in range(n)] for i in range(m.n, n)])


class TestThreeConjugatesProbe:
    def test_x_witness_pinned(self):
        x1, x2, x3 = inv.X_CONJUGATE_TRIPLE
        product = x1 * x2 * x3
        assert product == IntMatrix([[-1, 2], [2, -3]])
        assert product * product == IntMatrix([[5, -8], [-8, 13]])

    def test_y_witness_pinned(self):
        y1, y2, y3 = inv.Y_CONJUGATE_TRIPLE
        product = y1 * y2 * y3
        assert product == IntMatrix([[0, 1], [1, 2]])
        assert product * product == IntMatrix([[1, 2], [2, 5]])

    def test_witness_triples_are_conjugates(self):
        # each pinned conjugate is genuinely conjugate to its base involution:
        # same block type
        for base, triple in (
            (inv.X_MATRIX, inv.X_CONJUGATE_TRIPLE),
            (inv.Y_MATRIX, inv.Y_CONJUGATE_TRIPLE),
        ):
            want = inv.canonicalize_involution(base).block_type()
            for m in triple:
                assert inv.canonicalize_involution(m).block_type() == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("base", [inv.X_MATRIX, inv.Y_MATRIX], ids=["x", "y"])
    def test_finds_x_and_y_counterexamples(self, base, n):
        sigma = ag.lift(padded(base, n))
        for seed in range(5):
            rng = random.Random(seed)
            draws = (inv.three_conjugates_probe(sigma, rng) for _ in range(10))
            found = next((d for d in draws if d is not None), None)
            assert found is not None, seed
            conjugates, product = found
            assert len(conjugates) == 3
            assert all(ag.compose(c, c).is_identity() for c in conjugates)
            assert product == ag.compose(ag.compose(conjugates[0], conjugates[1]), conjugates[2])
            assert not ag.compose(product, product).is_identity()

    def test_symmetry_mod_ia_automorphism_probe(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(2, 4)
            theta = random_symmetry_mod_ia(rng, n)
            probe_rng = random.Random(rng.randrange(2**30))
            for _ in range(5):
                assert inv.three_conjugates_probe(theta, probe_rng) is None

    def test_rejects_non_involution(self):
        with pytest.raises(NotInvolution):
            inv.three_conjugates_probe(ag.lift(IntMatrix([[1, 1], [0, 1]])), random.Random(0))
