"""Reference implementations kept as oracles: the basis-set symmetry
theta_B of ``autgroup.is_attached_symmetry``, replayed by the IA corpus, and
the per-call solve of ``verify.exact_inner_witness``."""

from operator import mul

from freenil2 import autgroup as ag
from freenil2.autgroup import Automorphism
from freenil2.errors import NotInner
from freenil2.nilcore import Element
from freenil2.zlinalg import smith_rows


def conjugation_basis_symmetry(taus) -> Automorphism:
    """The symmetry inverting the zero-offset witnesses of a basis set of
    conjugations."""
    witnesses = [ag.inner_witness(tau) for tau in taus]
    if any(w is None for w in witnesses):
        raise NotInner("an element of the candidate basis set is not a conjugation")
    rho = Automorphism(witnesses)
    return ag.compose(rho, ag.compose(ag.symmetry_standard(rho.rank), ag.invert(rho)))


def exact_inner_witness_reference(alpha):
    """``verify.exact_inner_witness`` solved from scratch on each call: it
    builds the whole of L, zero rows included, from 3n^2 group products,
    Smith-decomposes it with the full U, and asks the rows of U b past n to
    vanish instead of checking L a = b."""
    n = alpha.rank
    gens = [Element.generator(n, i) for i in range(1, n + 1)]
    rows, b = [], []
    for x, img in zip(gens, alpha.images):
        x_inv = x.inverse()
        columns = [x_inv * x_k * x * x_k.inverse() for x_k in gens]
        rows += zip(*(c.abelian + c.comm for c in columns))
        offset = x_inv * img
        b += offset.abelian + offset.comm
    u, d, v = smith_rows(rows)
    ub = [sum(map(mul, row, b)) for row in u]
    pivots = [d[j][j] for j in range(n)]
    if any(ub[n:]) or any(c % p if p else c for c, p in zip(ub, pivots)):
        return None
    y = [c // p if p else 0 for c, p in zip(ub, pivots)]
    return Element(n, [sum(map(mul, row, y)) for row in v])
