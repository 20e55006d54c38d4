"""Every value the package builds through a ``trusted`` constructor equals
its validating twin: the same value rebuilt through ``IntMatrix(...)``,
``IntMatrix.from_columns``, ``ia_from_offsets`` or ``Automorphism(...)``.
The trusted constructors themselves keep the types immutable, hashable and
comparable exactly as the validating ones."""

import random

import pytest

from freenil2 import autgroup as ag
from freenil2 import iastruct
from freenil2.autgroup import Automorphism
from freenil2.errors import InvalidAutomorphism
from freenil2.nilcore import Element, pair_count
from freenil2.sampling import (
    random_automorphism,
    random_element,
    random_ia,
    random_ia_on_supports,
    random_involution_matrix,
    random_minus_member,
    random_unimodular_word,
)
from freenil2.zlinalg import IntMatrix, is_unimodular_matrix

RANKS = range(1, 9)


def exact_ints(rows):
    """True iff rows is a tuple of tuples of ints (not bools), as every
    validating constructor leaves it."""
    return type(rows) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in rows)


def validated_matrix(m):
    twin = IntMatrix(m.rows)
    assert twin == m and hash(twin) == hash(m) and twin.n == m.n
    assert exact_ints(m.rows)
    return twin


def validated_ia(alpha):
    twin = ag.ia_from_offsets(alpha.rank, ag.ia_offsets(alpha))
    assert twin == alpha and hash(twin) == hash(alpha) and twin.rank == alpha.rank
    assert all(type(img) is Element and img.rank == alpha.rank for img in alpha.images)
    assert all(exact_ints((img.abelian, img.comm)) for img in alpha.images)
    return twin


@pytest.mark.parametrize("n", RANKS)
def test_sampler_matrices_equal_validated_twins(n):
    rng = random.Random(n)
    for _ in range(20):
        m, m_inv = random_unimodular_word(rng, n, rng.randrange(0, 12))
        validated_matrix(m)
        validated_matrix(m_inv)
        assert (m * m_inv).is_identity()
        f = random_involution_matrix(rng, n, diagonalizable=rng.random() < 0.5)
        validated_matrix(f)
        assert (f * f).is_identity()


@pytest.mark.parametrize("n", RANKS)
def test_sampled_ia_and_stabilizer_split_equal_validated_twins(n):
    rng = random.Random(100 + n)
    for _ in range(10):
        validated_ia(random_ia(rng, n))
        i = rng.randint(1, n)
        validated_ia(random_minus_member(rng, n, i))
        # an IA automorphism fixing x_i, then its two factors
        supports = [() if k == i else range(pair_count(n)) for k in range(1, n + 1)]
        alpha = random_ia_on_supports(rng, n, supports)
        split = iastruct.stabilizer_split(validated_ia(alpha), i)
        plus, minus = validated_ia(split.plus), validated_ia(split.minus)
        assert ag.compose(plus, minus) == alpha


def test_sampled_ia_needs_one_support_per_generator():
    # the images are built unchecked, so the count is checked before any draw
    for supports in ([()], [(), (), (), ()]):
        with pytest.raises(ValueError, match="expected 3 supports"):
            random_ia_on_supports(random.Random(0), 3, supports)


@pytest.mark.parametrize("n", RANKS)
def test_matrices_read_off_images_equal_from_columns(n):
    rng = random.Random(200 + n)
    for _ in range(20):
        sigma = random_automorphism(rng, n)
        columns = [img.abelian for img in sigma.images]
        assert ag.abelianize(sigma) == validated_matrix(IntMatrix.from_columns(columns))
        rebuilt = Automorphism(list(sigma.images))
        assert rebuilt == sigma and ag.abelianize(rebuilt) == ag.abelianize(sigma)
        # arbitrary images: accepted exactly when from_columns is unimodular
        images = [random_element(rng, n, 1) for _ in range(n)]
        if is_unimodular_matrix(IntMatrix.from_columns([g.abelian for g in images])):
            assert ag.abelianize(Automorphism(images)) == IntMatrix.from_columns(
                [g.abelian for g in images])
        else:
            with pytest.raises(InvalidAutomorphism):
                Automorphism(images)


def test_images_from_converted_input_read_off_as_ints():
    images = [Element(2, [True, "0"], ["3"]), Element(2, ("-1", 1), [False])]
    matrix = ag.abelianize(Automorphism(images))
    assert matrix == IntMatrix.from_columns([(1, 0), (-1, 1)])
    assert exact_ints(matrix.rows)


def trusted_and_validated():
    """(built by ``trusted``, the same value built by validation) per type."""
    images = (Element(2, (1, 0), (5,)), Element(2, (1, 1)))
    return [
        (Element.trusted(2, (1, -2), (3,)), Element(2, [1, "-2"], [3])),
        (IntMatrix.trusted(((1, 2), (3, 4))), IntMatrix([[1, 2], [3, 4]])),
        (Automorphism.trusted(images), Automorphism(list(images))),
    ]


@pytest.mark.parametrize("pair", trusted_and_validated(), ids=["Element", "IntMatrix",
                                                                "Automorphism"])
def test_trusted_objects_behave_as_validated_ones(pair):
    trusted, validated = pair
    assert type(trusted) is type(validated)
    assert trusted == validated and not trusted != validated
    assert hash(trusted) == hash(validated)
    assert repr(trusted) == repr(validated)
    assert len({trusted, validated}) == 1
    for name in type(trusted).__slots__:
        assert getattr(trusted, name) == getattr(validated, name)
        with pytest.raises(AttributeError):
            setattr(trusted, name, getattr(validated, name))
    with pytest.raises(AttributeError):
        trusted.extra = 1
    assert not hasattr(trusted, "__dict__")
    # deleting a slot is refused too, and leaves the object whole
    for obj in pair:
        for name in type(obj).__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, name)
    assert trusted == validated and hash(trusted) == hash(validated)
