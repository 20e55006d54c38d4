"""Hypothesis strategies for involutions of GL(n, Z) of a known block type:
W B W^-1 for a block sum B = I_p + (-I_m) + s swaps and a product W of drawn
transvections, with entries of up to six digits."""

from hypothesis import strategies as st

MAX_ENTRY = 999_999


def block_sum(p, m, s):
    """Row list of I_p, then -I_m, then s swapped pairs."""
    n = p + m + 2 * s
    rows = [[0] * n for _ in range(n)]
    for i in range(p + m):
        rows[i][i] = 1 if i < p else -1
    for a in range(p + m, n, 2):
        rows[a][a + 1] = rows[a + 1][a] = 1
    return rows


# every block type (p, m, s) at ranks 1 to 8
BLOCK_TYPES = tuple((p, n - 2 * s - p, s) for n in range(1, 9)
                    for s in range(n // 2 + 1) for p in range(n - 2 * s + 1))


def conjugate(blocks, steps):
    """The blocks (all of one rank), each conjugated by the same product of
    transvections I + c e_ij, one per step (i, j, c); a step with i = j or
    c = 0, or that would take an entry past six digits, is skipped."""
    out = [[list(r) for r in b] for b in blocks]
    for i, j, c in steps:
        if i == j or c == 0:
            continue
        stepped = []
        for f in out:
            f = [list(r) for r in f]
            f[i] = [x + c * y for x, y in zip(f[i], f[j])]  # E F
            for row in f:  # (E F) E^-1
                row[j] -= c * row[i]
            stepped.append(f)
        if all(abs(x) <= MAX_ENTRY for f in stepped for row in f for x in row):
            out = stepped
    return out


@st.composite
def conjugated(draw, *blocks):
    """``conjugate`` with drawn steps."""
    index = st.integers(0, len(blocks[0]) - 1)
    return conjugate(blocks, draw(st.lists(st.tuples(index, index, st.integers(-99, 99)),
                                           max_size=40)))


@st.composite
def involutions(draw):
    """(rows of F, (p, m, s)) for a drawn type of ``BLOCK_TYPES``."""
    p, m, s = draw(st.sampled_from(BLOCK_TYPES))
    (f,) = draw(conjugated(block_sum(p, m, s)))
    return f, (p, m, s)


@st.composite
def diagonalizable_pairs(draw):
    """Two diagonalizable involutions F and G of one rank n <= 8: sign
    matrices conjugated by one W, so that they commute, or each by its own."""
    n = draw(st.integers(1, 8))
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    d1, d2 = [[[e if i == j else 0 for j in range(n)] for i, e in enumerate(draw(signs))]
              for _ in range(2)]
    if draw(st.booleans()):
        return draw(conjugated(d1, d2))
    return draw(conjugated(d1))[0], draw(conjugated(d2))[0]
