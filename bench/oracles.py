"""Independent reference arithmetic and seeded input samplers.

Nothing here imports freenil2.  Elements of the rank-n free two-step
nilpotent group are plain pairs ``(a, c)``: ``a`` the generator exponents,
``c`` the exponents of the basis commutators [xi, xj], i < j, in
lexicographic order, with [x, y] = x^-1 y^-1 x y.  Matrices are lists of
rows; column j is the image of the j-th basis vector.

The class-two law used below follows from one relation: moving x_j to the
right past x_i (i < j) leaves the central factor [xi, xj]^-1 behind.  So
x^a * x^b collects -a_j * b_i on the pair (i, j), and the rest of each
product is central bookkeeping.
"""

from __future__ import annotations

import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# class-two elements as plain pairs
# ---------------------------------------------------------------------------

def pairs(n: int) -> list[tuple[int, int]]:
    """0-based index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cocycle(a, b) -> dict[tuple[int, int], int]:
    """Central part collected when x^a is multiplied on the right by x^b."""
    n = len(a)
    return {(i, j): -a[j] * b[i] for i, j in pairs(n)}


def c2_mul(x, y):
    (a, c), (b, d) = x, y
    beta = cocycle(a, b)
    comm = tuple(ck + dk + beta[p] for ck, dk, p in zip(c, d, pairs(len(a))))
    return tuple(ai + bi for ai, bi in zip(a, b)), comm


def c2_pow(x, k: int):
    """x^k for any integer k: k copies of x meet in C(k, 2) ordered pairs,
    and the formula stays valid for k <= 0."""
    a, c = x
    beta = cocycle(a, a)
    half = k * (k - 1) // 2
    comm = tuple(k * ck + half * beta[p] for ck, p in zip(c, pairs(len(a))))
    return tuple(k * ai for ai in a), comm


def c2_commutator_part(x, y) -> tuple[int, ...]:
    """Central exponents of [x, y]; bilinear in the generator exponents."""
    a, b = x[0], y[0]
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in pairs(len(a)))


def c2_identity(n: int):
    return (0,) * n, (0,) * (n * (n - 1) // 2)


def c2_generator(n: int, i: int):
    """x_{i+1} (0-based index)."""
    return tuple(1 if k == i else 0 for k in range(n)), (0,) * (n * (n - 1) // 2)


def oracle_apply(images, g):
    """sigma(g) by substituting the images of the generators.

    ``images[i]`` is sigma(x_{i+1}) as a pair; g = x^a * prod [xi, xj]^c_ij
    maps to prod sigma(x_i)^a_i * prod [sigma(x_i), sigma(x_j)]^c_ij.
    """
    a, c = g
    n = len(a)
    out = c2_identity(n)
    for img, e in zip(images, a):
        out = c2_mul(out, c2_pow(img, e))
    comm = list(out[1])
    for (i, j), e in zip(pairs(n), c):
        if e:
            for k, v in enumerate(c2_commutator_part(images[i], images[j])):
                comm[k] += e * v
    return out[0], tuple(comm)


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(x, y) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def matvec(x, v) -> tuple[int, ...]:
    return tuple(sum(p * q for p, q in zip(row, v)) for row in x)


def columns(x) -> list[tuple[int, ...]]:
    return [tuple(col) for col in zip(*x)]


def det(x) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in x]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [u - f * w for u, w in zip(a[i], a[k])]
    if result.denominator != 1:
        raise ArithmeticError("integer matrix gave a fractional determinant")
    return int(result)


# ---------------------------------------------------------------------------
# seeded samplers; every matrix comes with the inverse of its generating word
# ---------------------------------------------------------------------------

def unimodular_word(rng: random.Random, n: int, length: int, coef: int):
    """(W, W^-1) for a random product of transvections, swaps and sign flips.

    Each letter acts on W by a column operation and on W^-1 by the inverse
    row operation, so the inverse is known without being computed.
    """
    w = identity(n)
    w_inv = identity(n)
    for _ in range(length):
        kind = rng.randrange(4)
        i, j = rng.sample(range(n), 2)
        if kind <= 1:  # W <- W * E with E = I + e * e_ij
            e = rng.choice([k for k in range(-coef, coef + 1) if k])
            for row in w:
                row[j] += e * row[i]
            w_inv[i] = [x - e * y for x, y in zip(w_inv[i], w_inv[j])]
        elif kind == 2:  # swap basis vectors i and j
            for row in w:
                row[i], row[j] = row[j], row[i]
            w_inv[i], w_inv[j] = w_inv[j], w_inv[i]
        else:  # negate basis vector i
            for row in w:
                row[i] = -row[i]
            w_inv[i] = [-x for x in w_inv[i]]
    return w, w_inv


def random_element(rng: random.Random, n: int, abound: int, cbound: int):
    return (
        tuple(rng.randint(-abound, abound) for _ in range(n)),
        tuple(rng.randint(-cbound, cbound) for _ in range(n * (n - 1) // 2)),
    )


def random_automorphism(rng: random.Random, n: int, length: int, coef: int, cbound: int):
    """Generator images of a random automorphism, its matrix and the inverse
    matrix from the generating word."""
    m, m_inv = unimodular_word(rng, n, length, coef)
    npairs = n * (n - 1) // 2
    images = [
        (col, tuple(rng.randint(-cbound, cbound) for _ in range(npairs)))
        for col in columns(m)
    ]
    return {"images": images, "matrix": m, "inverse": m_inv}


def block_matrix(n: int, p: int, m: int, s: int) -> list[list[int]]:
    """Fix p basis vectors, negate the next m, swap the last s pairs."""
    b = [[0] * n for _ in range(n)]
    for i in range(p):
        b[i][i] = 1
    for i in range(p, p + m):
        b[i][i] = -1
    for t in range(s):
        k = p + m + 2 * t
        b[k][k + 1] = b[k + 1][k] = 1
    return b


def random_involution(rng: random.Random, n: int, length: int, coef: int, swaps: bool,
                      entry_digits: tuple[int, int]):
    """F = W B W^-1 with B of a chosen block type (p, m, s).

    Words are redrawn until the largest entry of F has a number of decimal
    digits within ``entry_digits``, which keeps the cost of one matrix in a
    narrow band.

    Without swaps, B is diagonal with an even negated rank, so F has an
    integral square root, and a second diagonal sign matrix G0 gives an
    involution G = W G0 W^-1 that commutes with F.
    """
    if swaps:
        s = rng.randint(1, n // 2)
        p = rng.randint(0, n - 2 * s)
    else:  # 1 <= p and 2 <= m keeps F away from +-I
        s = 0
        p = n - 2 * rng.randint(1, (n - 1) // 2)
    m = n - 2 * s - p
    block = block_matrix(n, p, m, s)
    while True:
        w, w_inv = unimodular_word(rng, n, length, coef)
        f = matmul(matmul(w, block), w_inv)
        if entry_digits[0] <= len(str(max(abs(x) for row in f for x in row))) <= entry_digits[1]:
            break
    out = {"rank": n, "type": (p, m, s), "f": f, "w": w, "w_inv": w_inv}
    if not swaps:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        g0 = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        out["g"] = matmul(matmul(w, g0), w_inv)
        out["sign_pairs"] = [(1 if i < p else -1, signs[i]) for i in range(n)]
    return out
