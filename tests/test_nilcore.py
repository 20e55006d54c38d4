import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenil2.errors import IndexOutOfRank, RankMismatch, ZeroVector
from freenil2.nilcore import (
    Element,
    GeneratorWord,
    commutator,
    mul_fold,
    pair_count,
    pair_index,
    reduce_word,
)


def elements(rank, bound=3):
    coord = st.integers(min_value=-bound, max_value=bound)
    return st.builds(
        lambda a, c: Element(rank, a, c),
        st.tuples(*[coord] * rank),
        st.tuples(*[coord] * pair_count(rank)),
    )


def words(rank, max_len=16):
    letter = st.tuples(st.integers(1, rank), st.sampled_from((1, -1)))
    return st.builds(lambda ls: GeneratorWord(rank, ls), st.lists(letter, max_size=max_len))


class TestMul:
    def test_identity(self):
        g = Element(2, (1, -2), (3,))
        assert Element.identity(2) * g == g
        assert g * Element.identity(2) == g

    def test_collection_example(self):
        x1, x2 = Element.generator(2, 1), Element.generator(2, 2)
        g = x2 * x1
        assert g == Element(2, (1, 1), (-1,))
        # same value through the independent rewriter
        assert g == reduce_word(GeneratorWord(2, [(2, 1), (1, 1)]))

    def test_inverse_example(self):
        g = Element(2, (1, 1), (0,))
        h = Element(2, (-1, -1), (-1,))
        assert g * h == Element.identity(2)
        assert g.inverse() == h
        assert h == reduce_word(
            GeneratorWord(2, [(2, -1), (1, -1)])
        ), "(x1 x2)^-1 = x2^-1 x1^-1 collected"

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            Element.identity(2) * Element.identity(3)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_group_axioms(self, data):
        rank = data.draw(st.integers(2, 4))
        g = data.draw(elements(rank))
        h = data.draw(elements(rank))
        k = data.draw(elements(rank))
        assert (g * h) * k == g * (h * k)
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_centre_is_commutator_subgroup(self, data):
        rank = data.draw(st.integers(2, 4))
        g = data.draw(elements(rank))
        commutes = all(
            g * Element.generator(rank, i) == Element.generator(rank, i) * g
            for i in range(1, rank + 1)
        )
        assert commutes == g.is_central()

    def test_power_matches_repeated_product(self):
        rng = random.Random(0)
        for _ in range(40):
            rank = rng.randint(2, 4)
            g = Element(
                rank,
                [rng.randint(-2, 2) for _ in range(rank)],
                [rng.randint(-2, 2) for _ in range(pair_count(rank))],
            )
            e = rng.randint(-6, 6)
            expected = Element.identity(rank)
            step = g if e >= 0 else g.inverse()
            for _ in range(abs(e)):
                expected = expected * step
            assert g ** e == expected


def power_by_squaring(g, e):
    """Oracle for ``**``: square-and-multiply over the closed-form product."""
    if e < 0:
        g, e = g.inverse(), -e
    out = Element.identity(g.rank)
    while e:
        if e & 1:
            out = out * g
        g = g * g
        e >>= 1
    return out


class TestPow:
    def test_matches_word_oracles(self):
        # g = w, so g^e is the word w repeated e times (w^-1 repeated for e < 0)
        rng = random.Random(1)
        for rank in (2, 3, 4):
            letters = [(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(3)]
            inverse = [(i, -s) for i, s in reversed(letters)]
            g = reduce_word(GeneratorWord(rank, letters))
            for e in range(-50, 51):
                word = GeneratorWord(rank, (letters if e >= 0 else inverse) * abs(e))
                assert g ** e == mul_fold(word)
                if e % 5 == 0:
                    assert g ** e == reduce_word(word)

    def test_large_exponent(self):
        g = Element(4, (3, -7, 0, 12), (5, -1, 2, 0, 9, -4))
        for e in (10**12 + 7, -(10**12 + 7), 2**61 - 1):
            assert g ** e == power_by_squaring(g, e)
        assert g ** (10**12) * g ** (-(10**12)) == Element.identity(4)

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(TypeError):
            Element.generator(2, 1) ** 2.5
        with pytest.raises(TypeError):
            Element.generator(2, 1) ** 2.0


class TestConstruction:
    def test_float_entries_rejected(self):
        # int() would truncate: Element(2, [1.5, 0]) was x1
        for abelian, comm in (([1.5, 0], None), ([1.0, 0], None), ([1, 0], [0.5]),
                              ([1, 0], [-2.0])):
            with pytest.raises(ValueError):
                Element(2, abelian, comm)
        with pytest.raises(ValueError):
            Element.central(3, (0, 1e3, 0))
        with pytest.raises(ValueError):
            GeneratorWord(2, [(1.5, 1)])

    def test_ints_bools_and_decimal_strings_convert(self):
        g = Element(2, ["3", True], [" -4 "])
        assert g == Element(2, (3, 1), (-4,))
        assert all(type(x) is int for x in g.abelian + g.comm)
        with pytest.raises(ValueError):
            Element(2, ["1.5", 0])
        assert Element(2, ["12", "-3"]).abelian == (12, -3)

    def test_string_in_place_of_a_sequence_rejected(self):
        # "123" would otherwise be the abelian part (1, 2, 3)
        for rank, abelian, comm in ((3, "123", None), (2, "-1", None), (3, (0, 0, 0), "000")):
            with pytest.raises(ValueError, match="expected a sequence of integers"):
                Element(rank, abelian, comm)


    def test_unchecked_constructors_keep_their_errors(self):
        # identity and generator build their results unchecked, after these checks
        with pytest.raises(ValueError, match="length -1"):
            Element.identity(-1)
        with pytest.raises(IndexOutOfRank):
            Element.generator(0, 1)
        with pytest.raises(IndexOutOfRank):
            Element.generator(3, 4)
        assert Element.identity(0) == Element(0, ())


class TestInverse:
    def test_examples(self):
        assert Element.identity(3).inverse().is_identity()
        assert Element(2, (1, 1), (0,)).inverse() == Element(2, (-1, -1), (-1,))
        central = Element.central(2, (5,))
        assert central.inverse() == Element.central(2, (-5,))


class TestCommutator:
    def test_basis_commutator(self):
        x1, x2 = Element.generator(2, 1), Element.generator(2, 2)
        assert commutator(x1, x2) == Element.central(2, (1,))
        assert commutator(x1, x1).is_identity()

    def test_against_rewriter(self):
        # a = x1^2 x2, b = x1 x2 gives [a, b] = [x1, x2]
        a = Element(2, (2, 1), (0,))
        b = Element(2, (1, 1), (0,))
        assert commutator(a, b) == Element.central(2, (1,))
        # a^-1 b^-1 a b spelled out letter by letter:
        # (x2^-1 x1^-2)(x2^-1 x1^-1)(x1^2 x2)(x1 x2)
        word = GeneratorWord(
            2,
            [(2, -1), (1, -1), (1, -1), (2, -1), (1, -1),
             (1, 1), (1, 1), (2, 1), (1, 1), (2, 1)],
        )
        assert reduce_word(word) == commutator(a, b)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bilinearity_and_antisymmetry(self, data):
        rank = data.draw(st.integers(2, 4))
        g = data.draw(elements(rank))
        h1 = data.draw(elements(rank))
        h2 = data.draw(elements(rank))
        assert commutator(g, h1 * h2) == commutator(g, h1) * commutator(g, h2)
        assert commutator(g, h1) == commutator(h1, g).inverse()
        assert commutator(g, h1).is_central()

    def test_definition(self):
        rng = random.Random(1)
        for _ in range(30):
            rank = rng.randint(2, 4)
            g = Element(rank, [rng.randint(-2, 2) for _ in range(rank)],
                        [rng.randint(-2, 2) for _ in range(pair_count(rank))])
            h = Element(rank, [rng.randint(-2, 2) for _ in range(rank)],
                        [rng.randint(-2, 2) for _ in range(pair_count(rank))])
            assert commutator(g, h) == g.inverse() * h.inverse() * g * h


class TestPrimitive:
    def test_examples(self):
        assert Element.generator(3, 1).is_primitive()
        assert not (Element.generator(2, 1) ** 2).is_primitive()
        assert Element(3, (6, 10, 15), (1, 0, 0)).is_primitive()
        with pytest.raises(ZeroVector):
            Element.central(2, (1,)).is_primitive()


class TestReduceWord:
    def test_empty(self):
        assert reduce_word(GeneratorWord(3, [])).is_identity()

    def test_basic_commutator_word(self):
        # x1 x2 x1^-1 x2^-1 = [x1^-1, x2^-1] = [x1, x2]
        word = GeneratorWord(2, [(1, 1), (2, 1), (1, -1), (2, -1)])
        assert reduce_word(word) == Element.central(2, (1,))

    def test_swap(self):
        assert reduce_word(GeneratorWord(2, [(2, 1), (1, 1)])) == Element(2, (1, 1), (-1,))

    def test_bad_letters(self):
        with pytest.raises(IndexOutOfRank):
            GeneratorWord(2, [(3, 1)])
        with pytest.raises(ValueError):
            GeneratorWord(2, [(1, 2)])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_mul_fold(self, data):
        rank = data.draw(st.integers(2, 4))
        word = data.draw(words(rank))
        assert reduce_word(word) == mul_fold(word)


def test_pair_indexing():
    assert pair_index(3, 1, 2) == 0
    assert pair_index(3, 1, 3) == 1
    assert pair_index(3, 2, 3) == 2
    assert pair_count(5) == 10
