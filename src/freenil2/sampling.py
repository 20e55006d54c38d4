"""Seeded random constructions for the verification suite.

Every sampler draws only from the ``random.Random`` it is given, in a fixed
order, so a seeded caller gets the same values on every run.  ``verify`` is
the only module of the package that draws: the library functions it checks
take the drawn values as arguments.
"""

from __future__ import annotations

import random

from . import autgroup
from .autgroup import Automorphism
from .nilcore import Element, GeneratorWord, offset_support_split, pair_count
from .zlinalg import IntMatrix, is_unimodular_vector


def random_element(rng: random.Random, n: int, bound: int = 2) -> Element:
    abelian = tuple([rng.randint(-bound, bound) for _ in range(n)])
    comm = tuple([rng.randint(-bound, bound) for _ in range(pair_count(n))])
    return Element.trusted(n, abelian, comm)


def random_ia_on_supports(rng: random.Random, rank: int, supports, bound: int = 2,
                          nonzero: int | None = None) -> Automorphism:
    """IA automorphism whose generator x_k has a random central offset on the
    comm positions in ``supports[k - 1]`` and zero elsewhere; ``supports``
    has one entry per generator.

    The offset of generator ``nonzero`` (1-based) is redrawn until it is not
    zero.  The images (e_k, offset_k) are built unchecked: the offsets are
    int tuples of length pair_count(rank) by construction.
    """
    if len(supports) != rank:
        raise ValueError(f"expected {rank} supports, got {len(supports)}")
    npairs = pair_count(rank)
    units = IntMatrix.identity(rank).rows
    images = []
    for k, support in enumerate(supports, start=1):
        while True:
            off = tuple([rng.randint(-bound, bound) if p in support else 0
                         for p in range(npairs)])
            if k != nonzero or any(off):
                break
        images.append(Element.trusted(rank, units[k - 1], off))
    return Automorphism.trusted(tuple(images))


def random_ia(rng: random.Random, n: int, bound: int = 2) -> Automorphism:
    return random_ia_on_supports(rng, n, [range(pair_count(n))] * n, bound)


def random_minus_member(rng: random.Random, rank: int, i: int) -> Automorphism:
    """Random element of the minus factor of the stabilizer of x_i."""
    through, _ = offset_support_split(rank, i)
    supports = [() if k == i else through for k in range(1, rank + 1)]
    return random_ia_on_supports(rng, rank, supports)


def random_inverted_member_with_offset(rng: random.Random, rank: int, i: int) -> Automorphism:
    """Random automorphism inverted by the standard extremal involution at i
    but moving x_i by a nontrivial central offset (needs rank >= 3)."""
    if rank < 3:
        raise ValueError("a nontrivial central offset on x_i needs rank >= 3")
    through, avoiding = offset_support_split(rank, i)
    supports = [avoiding if k == i else through for k in range(1, rank + 1)]
    return random_ia_on_supports(rng, rank, supports, nonzero=i)


def random_unimodular_word(rng: random.Random, n: int, length: int) -> tuple[IntMatrix, IntMatrix]:
    """Product of random elementary/permutation/sign generators and its
    inverse, built together so no inversion is ever needed.

    Multiplying the product by a generator on the right is a column
    operation, and its inverse on the left of the inverse a row operation.
    Below rank 2 every letter is a sign flip.
    """
    m = IntMatrix.identity(n).to_lists()
    m_inv = IntMatrix.identity(n).to_lists()
    for _ in range(length):
        kind = rng.randrange(3)
        if kind < 2 and n >= 2:
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            if kind == 0:  # transvection: column j += e * column i
                e = rng.choice((1, -1))
                for row in m:
                    row[j] += e * row[i]
                m_inv[i] = [x - e * y for x, y in zip(m_inv[i], m_inv[j])]
            else:  # swap two basis vectors
                for row in m:
                    row[i], row[j] = row[j], row[i]
                m_inv[i], m_inv[j] = m_inv[j], m_inv[i]
        else:  # sign flip
            i = rng.randrange(n)
            for row in m:
                row[i] = -row[i]
            m_inv[i] = [-x for x in m_inv[i]]
    return IntMatrix.trusted(tuple(map(tuple, m))), IntMatrix.trusted(tuple(map(tuple, m_inv)))


def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    matrix, _ = random_unimodular_word(rng, n, 5)
    return matrix


def random_automorphism(rng: random.Random, n: int) -> Automorphism:
    return autgroup.compose(autgroup.lift(random_unimodular(rng, n)), random_ia(rng, n, 1))


def random_conjugator(rng: random.Random, n: int) -> Automorphism:
    """Product of 1 to 8 elementary, permutation and sign generators, lifted
    and composed with a small IA factor."""
    matrix, _ = random_unimodular_word(rng, n, rng.randrange(1, 9))
    return autgroup.compose(autgroup.lift(matrix), random_ia(rng, n, 1))


def random_symmetry_mod_ia(rng: random.Random, n: int) -> Automorphism:
    return autgroup.compose(autgroup.symmetry_standard(n), random_ia(rng, n))


def random_involution_matrix(rng: random.Random, n: int, diagonalizable: bool = False,
                             word_length: int = 4) -> IntMatrix:
    s = 0 if diagonalizable else rng.randrange(0, n // 2 + 1)
    p = rng.randrange(0, n - 2 * s + 1)
    m = n - 2 * s - p
    block = [[0] * n for _ in range(n)]
    for i in range(p):
        block[i][i] = 1
    for i in range(p, p + m):
        block[i][i] = -1
    for t in range(s):
        a = p + m + 2 * t
        block[a][a + 1] = 1
        block[a + 1][a] = 1
    w, w_inv = random_unimodular_word(rng, n, word_length)
    return w * IntMatrix.trusted(tuple(map(tuple, block))) * w_inv


def random_word(rng: random.Random, n: int, max_len: int) -> GeneratorWord:
    length = rng.randrange(0, max_len + 1)
    return GeneratorWord(
        n, [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(length)]
    )


def random_primitive(rng: random.Random, n: int) -> Element:
    while True:
        vec = [rng.randint(-3, 3) for _ in range(n)]
        if any(vec) and is_unimodular_vector(vec):
            return Element(n, vec)
