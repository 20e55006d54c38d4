"""Slow oracles for the Smith engine and the unimodular inverse in
``freenil2.zlinalg``.

``smith_rows_reference`` is the elimination as it stood before the engine
carried only the transforms its caller reads: it always tracks U and V as
row lists and performs every row and column step in full.  The engine must
reproduce its output exactly, since both take the same steps.

``unimodular_inverse_rows_reference`` reads the inverse off that Smith
decomposition, V U, as the library did before it inverted by fraction-free
elimination; an inverse is unique, so both must agree exactly.

``block_type_by_smith_divisors`` reads the block type of an involution off
the Smith divisors of F - I, as the library did before it took the closed
form from the trace and the rank of F - I over F_2.
"""

from freenil2.errors import NotUnimodular


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _xgcd(a, b):
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


def smith_rows_reference(rows):
    """Smith decomposition of an m x n integer matrix.

    Returns (U, D, V) as row-lists with U (m x m) and V (n x n) unimodular,
    U @ A @ V = D, D diagonal with nonnegative entries d1 | d2 | ...
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    u = _identity_rows(m)
    v = _identity_rows(n)
    t = 0
    limit = min(m, n)
    while t < limit:
        # smallest nonzero entry of the trailing block becomes the pivot
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = a[i][j]
                if val != 0 and (best is None or abs(val) < best):
                    best = abs(val)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(m):
                if i != t and a[i][t] != 0:
                    p, q = a[t][t], a[i][t]
                    if q % p == 0:
                        f = q // p
                        a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                        u[i] = [x - f * y for x, y in zip(u[i], u[t])]
                    else:
                        g, x, y = _xgcd(p, q)
                        pp, qq = p // g, q // g
                        at, ai = a[t], a[i]
                        for k in range(n):
                            rt, ri = at[k], ai[k]
                            at[k] = x * rt + y * ri
                            ai[k] = -qq * rt + pp * ri
                        ut, ui = u[t], u[i]
                        for k in range(m):
                            rt, ri = ut[k], ui[k]
                            ut[k] = x * rt + y * ri
                            ui[k] = -qq * rt + pp * ri
            for j in range(n):
                if j != t and a[t][j] != 0:
                    p, q = a[t][t], a[t][j]
                    if q % p == 0:
                        f = q // p
                        for row in a:
                            row[j] -= f * row[t]
                        for row in v:
                            row[j] -= f * row[t]
                    else:
                        g, x, y = _xgcd(p, q)
                        pp, qq = p // g, q // g
                        for row in a:
                            ct, cj = row[t], row[j]
                            row[t] = x * ct + y * cj
                            row[j] = -qq * ct + pp * cj
                        for row in v:
                            ct, cj = row[t], row[j]
                            row[t] = x * ct + y * cj
                            row[j] = -qq * ct + pp * cj
            col_clear = all(a[i][t] == 0 for i in range(m) if i != t)
            row_clear = all(a[t][j] == 0 for j in range(n) if j != t)
            if col_clear and row_clear:
                break
        # divisibility chain: pivot must divide the whole trailing block
        d = a[t][t]
        offender = None
        for i in range(t + 1, m):
            if any(a[i][j] % d != 0 for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1
    for k in range(limit):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    return u, a, v


def unimodular_inverse_rows_reference(rows):
    """Inverse of a square unimodular row list: U A V = I gives A^-1 = V U.
    Any elementary divisor other than 1 is a ``NotUnimodular``."""
    u, d, v = smith_rows_reference(rows)
    n = len(rows)
    if any(d[i][i] != 1 for i in range(n)):
        raise NotUnimodular(f"matrix has elementary divisors {[d[i][i] for i in range(n)]}")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*u)] for row in v]


def block_type_by_smith_divisors(rows):
    """(p, m, s) of an involution F, from the Smith form of F - I, which is
    diag(1^s, 2^m, 0^(p+s)) for a block sum of p fixed, m negated and s
    swapped blocks, and so for each of its conjugates."""
    n = len(rows)
    f_minus_i = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    _, d, _ = smith_rows_reference(f_minus_i)
    divisors = [d[i][i] for i in range(n)]
    s, m = divisors.count(1), divisors.count(2)
    p = divisors.count(0) - s
    assert p >= 0 and p + m + 2 * s == n, f"F - I has divisors {divisors}"
    return p, m, s
