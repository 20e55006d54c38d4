import random

from freenil2.sampling import random_unimodular_word
from freenil2.zlinalg import IntMatrix


def word_by_generator_products(rng: random.Random, n: int, length: int):
    """Oracle: the same draws as random_unimodular_word, multiplied out as
    n x n generator matrices."""
    m = IntMatrix.identity(n)
    m_inv = IntMatrix.identity(n)
    for _ in range(length):
        kind = rng.randrange(3)
        gen = IntMatrix.identity(n).to_lists()
        inv = IntMatrix.identity(n).to_lists()
        if kind < 2 and n >= 2:
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            if kind == 0:
                e = rng.choice((1, -1))
                gen[i][j] = e
                inv[i][j] = -e
            else:
                for g in (gen, inv):
                    g[i][i] = g[j][j] = 0
                    g[i][j] = g[j][i] = 1
        else:
            i = rng.randrange(n)
            gen[i][i] = inv[i][i] = -1
        m = m * IntMatrix(gen)
        m_inv = IntMatrix(inv) * m_inv
    return m, m_inv


class TestUnimodularWord:
    def test_matches_generator_products(self):
        for seed in range(400):
            n = 1 + seed % 8
            length = random.Random(seed).randrange(0, 40)
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            m, m_inv = random_unimodular_word(rng, n, length)
            assert (m, m_inv) == word_by_generator_products(oracle_rng, n, length)
            assert rng.getstate() == oracle_rng.getstate()
            assert (m * m_inv).is_identity()
