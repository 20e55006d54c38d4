"""Seeded verification suite.

Every check reruns one of the desk-scale facts the package is built on, at a
given rank, with randomness derived per (seed, check name, rank, trial) so
reports are rerun-identical and adding checks never perturbs existing ones.
Checks return a CheckResult with a serialized counterexample on failure.
"""

from __future__ import annotations

import hashlib
import random
from operator import mul

from . import autgroup, iastruct, involutions
from .autgroup import Automorphism, InvolutionKind
from .nilcore import Element, commutator, mul_fold, offset_support_split, pair_count, reduce_word
from .report import CheckResult, VerificationReport
from .sampling import (
    random_automorphism,
    random_element,
    random_ia,
    random_ia_on_supports,
    random_involution_matrix,
    random_minus_member,
    random_primitive,
    random_symmetry_mod_ia,
    random_unimodular,
    random_unimodular_word,
    random_word,
)
from .wordlang import format_automorphism, format_element, parse_element
from .zlinalg import (
    IntMatrix,
    LatticeBasis,
    decompose_into_unimodular,
    direct_complement,
    is_unimodular_matrix,
    is_unimodular_vector,
    smith_rows,
)

SUITE_VERSION = "1"


def _trial_rng(seed: int, name: str, rank: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{name}|{rank}|{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _fail(name: str, trial: int, **payload) -> CheckResult:
    return CheckResult(name, "fail", trial + 1, payload or None)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_group_axioms(rank: int, trials: int, seed: int) -> CheckResult:
    name = "group_axioms"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        g, h, k = (random_element(rng, rank) for _ in range(3))
        if (g * h) * k != g * (h * k):
            return _fail(name, t, law="associativity", g=format_element(g),
                         h=format_element(h), k=format_element(k))
        if g * Element.identity(rank) != g or Element.identity(rank) * g != g:
            return _fail(name, t, law="identity", g=format_element(g))
        if not (g * g.inverse()).is_identity() or not (g.inverse() * g).is_identity():
            return _fail(name, t, law="inverse", g=format_element(g))
        if commutator(g, h) != commutator(h, g).inverse():
            return _fail(name, t, law="antisymmetry", g=format_element(g), h=format_element(h))
        if commutator(g, h * k) != commutator(g, h) * commutator(g, k):
            return _fail(name, t, law="bilinearity", g=format_element(g),
                         h=format_element(h), k=format_element(k))
        # centre: g commutes with every generator iff its abelian part vanishes
        central = all(
            g * Element.generator(rank, i) == Element.generator(rank, i) * g
            for i in range(1, rank + 1)
        )
        if central != g.is_central():
            return _fail(name, t, law="centre", g=format_element(g))
    return CheckResult(name, "pass", trials)


def check_word_oracle(rank: int, trials: int, seed: int) -> CheckResult:
    name = "word_oracle"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        word = random_word(rng, rank, 12)
        if reduce_word(word) != mul_fold(word):
            return _fail(name, t, letters=list(word.letters))
    return CheckResult(name, "pass", trials)


def check_wordlang_roundtrip(rank: int, trials: int, seed: int) -> CheckResult:
    name = "wordlang_roundtrip"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        g = random_element(rng, rank, bound=4)
        text = format_element(g)
        if parse_element(text, rank) != g:
            return _fail(name, t, text=text)
        if format_element(parse_element(text, rank)) != text:
            return _fail(name, t, text=text, reason="formatting not idempotent")
    return CheckResult(name, "pass", trials)


def check_homomorphism_equivariance(rank: int, trials: int, seed: int) -> CheckResult:
    name = "homomorphism_equivariance"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        sigma = random_automorphism(rng, rank)
        g, h = random_element(rng, rank), random_element(rng, rank)
        if autgroup.apply(sigma, g * h) != autgroup.apply(sigma, g) * autgroup.apply(sigma, h):
            return _fail(name, t, law="homomorphism", sigma=format_automorphism(sigma),
                         g=format_element(g), h=format_element(h))
        if autgroup.apply(sigma, commutator(g, h)) != commutator(
            autgroup.apply(sigma, g), autgroup.apply(sigma, h)
        ):
            return _fail(name, t, law="commutator_equivariance",
                         sigma=format_automorphism(sigma))
    return CheckResult(name, "pass", trials)


def check_abelianization_functorial(rank: int, trials: int, seed: int) -> CheckResult:
    name = "abelianization_functorial"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        sigma = random_automorphism(rng, rank)
        rho = random_automorphism(rng, rank)
        if autgroup.abelianize(autgroup.compose(sigma, rho)) != (
            autgroup.abelianize(sigma) * autgroup.abelianize(rho)
        ):
            return _fail(name, t, sigma=format_automorphism(sigma),
                         rho=format_automorphism(rho))
        matrix = random_unimodular(rng, rank)
        if autgroup.abelianize(autgroup.lift(matrix)) != matrix:
            return _fail(name, t, matrix=matrix.to_lists(), law="lift_section")
        if autgroup.is_ia(sigma) != autgroup.abelianize(sigma).is_identity():
            return _fail(name, t, sigma=format_automorphism(sigma), law="ia_kernel")
        if not autgroup.compose(sigma, autgroup.invert(sigma)).is_identity():
            return _fail(name, t, sigma=format_automorphism(sigma), law="inverse")
    return CheckResult(name, "pass", trials)


def check_ia_abelian_torsion_free(rank: int, trials: int, seed: int) -> CheckResult:
    name = "ia_abelian_torsion_free"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        alpha, beta = random_ia(rng, rank), random_ia(rng, rank)
        if autgroup.compose(alpha, beta) != autgroup.compose(beta, alpha):
            return _fail(name, t, law="abelian", alpha=format_automorphism(alpha),
                         beta=format_automorphism(beta))
        if not alpha.is_identity():
            power = alpha
            for k in range(2, 7):
                power = autgroup.compose(power, alpha)
                if power.is_identity():
                    return _fail(name, t, law="torsion", order=k,
                                 alpha=format_automorphism(alpha))
    return CheckResult(name, "pass", trials)


def check_symmetry_inverts_ia(rank: int, trials: int, seed: int) -> CheckResult:
    name = "symmetry_inverts_ia"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        theta = random_symmetry_mod_ia(rng, rank)
        alpha = random_ia(rng, rank)
        if autgroup.compose(theta, autgroup.compose(alpha, theta)) != autgroup.invert(alpha):
            return _fail(name, t, theta=format_automorphism(theta),
                         alpha=format_automorphism(alpha))
        product = autgroup.compose(theta, alpha)
        if not autgroup.compose(product, product).is_identity():
            return _fail(name, t, theta=format_automorphism(theta),
                         alpha=format_automorphism(alpha), law="involution")
    return CheckResult(name, "pass", trials)


def check_ia_factorization(rank: int, trials: int, seed: int) -> CheckResult:
    name = "ia_factorization"
    theta = autgroup.symmetry_standard(rank)
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        alpha = random_ia(rng, rank)
        second = autgroup.compose(theta, alpha)
        if autgroup.compose(theta, second) != alpha:
            return _fail(name, t, alpha=format_automorphism(alpha))
        for factor in (theta, second):
            if autgroup.classify_involution(factor) is not InvolutionKind.SYMMETRY_MOD_IA:
                return _fail(name, t, alpha=format_automorphism(alpha),
                             factor=format_automorphism(factor))
    return CheckResult(name, "pass", trials)


def check_centreless(rank: int, trials: int, seed: int) -> CheckResult:
    name = "centreless"
    elementary = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    elementary[0][1] = 1
    probes = [autgroup.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
    probes += [
        autgroup.symmetry_standard(rank),
        autgroup.extremal_standard(rank, 1),
        autgroup.lift(IntMatrix(elementary)),
    ]
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        sigma = random_automorphism(rng, rank)
        while sigma.is_identity():
            sigma = random_automorphism(rng, rank)
        if all(
            autgroup.compose(sigma, probe) == autgroup.compose(probe, sigma)
            for probe in probes
        ):
            return _fail(name, t, sigma=format_automorphism(sigma))
    return CheckResult(name, "pass", trials)


def check_three_conjugates(rank: int, trials: int, seed: int) -> CheckResult:
    name = "three_conjugates"

    def pad(m: IntMatrix) -> IntMatrix:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = m.rows[i][j]
        for k in range(2, rank):
            rows[k][k] = 1
        return IntMatrix(rows)

    # pinned regression witnesses: each triple must yield a counterexample
    for base, triple in (
        (involutions.X_MATRIX, involutions.X_CONJUGATE_TRIPLE),
        (involutions.Y_MATRIX, involutions.Y_CONJUGATE_TRIPLE),
    ):
        result = involutions.three_conjugates_probe(
            pad(base), trials=0, seed=seed,
            candidate_triples=[tuple(pad(m) for m in triple)],
        )
        if not result.found():
            return _fail(name, 0, witness=base.to_lists(),
                         reason="pinned witness did not report a counterexample")
    # forward direction: conjugates of a symmetry-mod-IA involution
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        theta = random_symmetry_mod_ia(rng, rank)
        result = involutions.three_conjugates_probe(
            theta, trials=1, seed=rng.randrange(2**32), word_length=8
        )
        if result.found():
            return _fail(name, t, theta=format_automorphism(theta),
                         counterexample=result.counterexample)
    return CheckResult(name, "pass", trials)


def check_canonical_involution_form(rank: int, trials: int, seed: int) -> CheckResult:
    name = "canonical_involution_form"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        f = random_involution_matrix(rng, rank)
        pm = involutions.plus_minus(f)
        if len(pm.plus) + len(pm.minus) != rank:
            return _fail(name, t, matrix=f.to_lists(), law="rank_sum")
        s = pm.defect
        form = involutions.canonicalize_involution(f)  # validates internally
        expected = (len(pm.plus) - s, len(pm.minus) - s, s)
        if form.block_type() != expected:
            return _fail(name, t, matrix=f.to_lists(), got=form.block_type(),
                         expected=expected)
        divisor_type = involutions.involution_block_type(f)
        if divisor_type != expected:
            return _fail(name, t, matrix=f.to_lists(), law="smith_divisors",
                         got=divisor_type, expected=expected)
    return CheckResult(name, "pass", trials)


def check_commuting_involution_split(rank: int, trials: int, seed: int) -> CheckResult:
    name = "commuting_involution_split"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        if rng.random() < 0.5:
            # same eigenbasis: the pair commutes by construction
            w, w_inv = random_unimodular_word(rng, rank, 4)
            diags = []
            for _ in range(2):
                d = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    d[i][i] = rng.choice((1, -1))
                diags.append(IntMatrix(d))
            f = w * diags[0] * w_inv
            g = w * diags[1] * w_inv
        else:
            f = random_involution_matrix(rng, rank, diagonalizable=True)
            g = random_involution_matrix(rng, rank, diagonalizable=True)
        bases = involutions.commuting_decomposition(f, g)
        if involutions.is_direct_sum(bases, rank) != (f * g == g * f):
            return _fail(name, t, f=f.to_lists(), g=g.to_lists())
    return CheckResult(name, "pass", trials)


def check_plus_minus_classification(rank: int, trials: int, seed: int) -> CheckResult:
    name = "plus_minus_classification"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        i = rng.randint(1, rank)
        kind = rng.randrange(3)
        if kind == 0:
            alpha = random_ia(rng, rank, 1)
        else:
            # constructed member of one of the two factors
            through, avoiding = offset_support_split(rank, i)
            keep, own_keep = (through, avoiding) if kind == 1 else (avoiding, through)
            alpha = random_ia_on_supports(
                rng, rank, [own_keep if k == i else keep for k in range(1, rank + 1)])
        phi = autgroup.extremal_standard(rank, i)
        conjugate = autgroup.compose(autgroup.compose(phi, alpha), phi)
        got = iastruct.classify_wrt_extremal(alpha, i)
        if got is iastruct.PMClass.PLUS:
            ok = conjugate == alpha
        elif got is iastruct.PMClass.MINUS:
            ok = conjugate == autgroup.invert(alpha)
        else:
            ok = conjugate != alpha and conjugate != autgroup.invert(alpha)
        if not ok:
            return _fail(name, t, alpha=format_automorphism(alpha), index=i,
                         classified=got.value)
    return CheckResult(name, "pass", trials)


def check_conjugation_homomorphism(rank: int, trials: int, seed: int) -> CheckResult:
    name = "conjugation_homomorphism"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        g, h = random_element(rng, rank), random_element(rng, rank)
        if autgroup.compose(autgroup.conjugation(g), autgroup.conjugation(h)) != (
            autgroup.conjugation(g * h)
        ):
            return _fail(name, t, g=format_element(g), h=format_element(h))
        if autgroup.conjugation(g).is_identity() != g.is_central():
            return _fail(name, t, g=format_element(g), law="kernel_is_centre")
    return CheckResult(name, "pass", trials)


def exact_inner_witness(alpha: Automorphism) -> Element | None:
    """Oracle for ``inner_witness``: the exponent vector a with conjugation
    by x^a equal to alpha, or None when alpha is not inner.

    Conjugation by x^a moves x_i by sum_k a_k c_ik, where c_ik is the offset
    x_i^-1 x_k x_i x_k^-1.  Over every coordinate of every image (the abelian
    ones leave no solution unless alpha is IA) this is L a = b, with b the
    offsets x_i^-1 alpha(x_i), all from Element products alone: no code is
    shared with conjugation, commutator or inner_witness.  It is solved
    exactly with the Smith form U L V = D.
    """
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
    # D y = U b needs each pivot to divide its coordinate and the rest to vanish
    if any(ub[n:]) or any(c % p if p else c for c, p in zip(ub, pivots)):
        return None
    y = [c // p if p else 0 for c, p in zip(ub, pivots)]
    return Element(n, [sum(map(mul, row, y)) for row in v])


def check_inner_witness_solver(rank: int, trials: int, seed: int) -> CheckResult:
    name = "inner_witness_solver"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        if rng.random() < 0.5:
            alpha = autgroup.conjugation(random_element(rng, rank, bound=2))
        else:
            alpha = random_ia(rng, rank, 1)
        witness = autgroup.inner_witness(alpha)
        if witness is not None and autgroup.conjugation(witness) != alpha:
            return _fail(name, t, alpha=format_automorphism(alpha),
                         witness=format_element(witness))
        oracle = exact_inner_witness(alpha)
        if (witness and witness.abelian) != (oracle and oracle.abelian):
            return _fail(name, t, alpha=format_automorphism(alpha),
                         solver=witness and format_element(witness),
                         oracle=oracle and format_element(oracle))
    return CheckResult(name, "pass", trials)


def check_conjugations_of_primitive_powers(rank: int, trials: int, seed: int) -> CheckResult:
    name = "conjugations_of_primitive_powers"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        x = random_primitive(rng, rank)
        m = rng.choice([k for k in range(-3, 4) if k])
        tau = autgroup.conjugation(x ** m)
        witness = autgroup.inner_witness(tau)
        if witness is None or witness.abelian != tuple(m * a for a in x.abelian):
            return _fail(name, t, x=format_element(x), power=m, law="witness")
        # an extremal involution inverting x conjugates tau to its inverse
        complement = direct_complement(LatticeBasis(rank, [x.abelian]))
        basis = IntMatrix.from_columns([x.abelian] + list(complement.vectors))
        rho = autgroup.lift(basis)
        phi = autgroup.compose(
            rho, autgroup.compose(autgroup.extremal_standard(rank, 1), autgroup.invert(rho))
        )
        if autgroup.compose(phi, autgroup.compose(tau, phi)) != autgroup.invert(tau):
            return _fail(name, t, x=format_element(x), power=m, law="inverting_extremal")
        # extremal involutions inverting complement vectors commute with tau
        k = rng.randint(2, rank)
        psi = autgroup.compose(
            rho, autgroup.compose(autgroup.extremal_standard(rank, k), autgroup.invert(rho))
        )
        if autgroup.compose(psi, autgroup.compose(tau, psi)) != tau:
            return _fail(name, t, x=format_element(x), power=m, law="commuting_extremal")
        fm = autgroup.abelianize(phi)
        gm = autgroup.abelianize(psi)
        if fm * gm != gm * fm:
            return _fail(name, t, x=format_element(x), law="extremals_commute_mod_ia")
    return CheckResult(name, "pass", trials)


def check_attached_symmetry_parity(rank: int, trials: int, seed: int) -> CheckResult:
    name = "attached_symmetry_parity"
    theta0 = autgroup.symmetry_standard(rank)
    taus = [autgroup.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
    if not autgroup.is_basis_conjugation_set(taus):
        return _fail(name, 0, reason="standard conjugations rejected as a basis set")
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        beta = random_ia(rng, rank)
        attached = autgroup.compose(theta0, autgroup.compose(beta, beta))
        if not autgroup.is_attached_symmetry(attached, taus):
            return _fail(name, t, beta=format_automorphism(beta), law="square_attached")
        conjugate = autgroup.compose(autgroup.invert(beta), autgroup.compose(theta0, beta))
        if conjugate != attached:
            return _fail(name, t, beta=format_automorphism(beta), law="conjugate_identity")
        offsets = [[0] * pair_count(rank) for _ in range(rank)]
        offsets[rng.randrange(rank)][rng.randrange(pair_count(rank))] = 2 * rng.randint(0, 2) + 1
        gamma = autgroup.ia_from_offsets(rank, offsets)
        odd = autgroup.compose(theta0, gamma)
        if autgroup.is_attached_symmetry(odd, taus):
            return _fail(name, t, gamma=format_automorphism(gamma), law="odd_offset_detached")
    return CheckResult(name, "pass", trials)


def check_stabilizer_split(rank: int, trials: int, seed: int) -> CheckResult:
    name = "stabilizer_split"
    everywhere = range(pair_count(rank))
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        i = rng.randint(1, rank)
        alpha = random_ia_on_supports(
            rng, rank, [() if k == i else everywhere for k in range(1, rank + 1)])
        split = iastruct.stabilizer_split(alpha, i)
        if autgroup.compose(split.plus, split.minus) != alpha:
            return _fail(name, t, alpha=format_automorphism(alpha), index=i)
        if autgroup.compose(split.plus, split.minus) != autgroup.compose(split.minus, split.plus):
            return _fail(name, t, alpha=format_automorphism(alpha), index=i, law="commute")
        resplit = iastruct.stabilizer_split(split.plus, i)
        if resplit.plus != split.plus or not resplit.minus.is_identity():
            return _fail(name, t, alpha=format_automorphism(alpha), index=i, law="idempotent")
        # both factors are subgroups: closed under composition and inversion
        other = random_minus_member(rng, rank, i)
        composed = autgroup.compose(split.minus, other)
        check = iastruct.stabilizer_split(composed, i)
        if not check.plus.is_identity():
            return _fail(name, t, alpha=format_automorphism(alpha), index=i, law="minus_closed")
        inverted = iastruct.stabilizer_split(autgroup.invert(split.plus), i)
        if not inverted.minus.is_identity():
            return _fail(name, t, alpha=format_automorphism(alpha), index=i, law="plus_closed")
    return CheckResult(name, "pass", trials)


def check_minus_inversion_criterion(rank: int, trials: int, seed: int) -> CheckResult:
    name = "minus_inversion_criterion"
    rng = _trial_rng(seed, name, rank, 0)
    i = rng.randint(1, rank)
    j = rng.choice([k for k in range(1, rank + 1) if k != i])
    inner = iastruct.inversion_criterion_check(rank, i, j, trials=trials, seed=rng.randrange(2**32))
    return CheckResult(name, inner.status, inner.trials, inner.counterexample)


def check_sqrt_construction(rank: int, trials: int, seed: int) -> CheckResult:
    name = "sqrt_construction"
    rotation = IntMatrix([[0, -1], [1, 0]])
    if rotation * rotation != -IntMatrix.identity(2):
        return _fail(name, 0, law="rotation_relation")
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        while True:
            f = random_involution_matrix(rng, rank, diagonalizable=True)
            if involutions.involution_block_type(f)[1] % 2 == 0:
                break
        h = involutions.sqrt_of_involution(f)
        if h * h != f or not is_unimodular_matrix(h):
            return _fail(name, t, matrix=f.to_lists(), sqrt=h.to_lists())
    return CheckResult(name, "pass", trials)


def check_order_three_product(rank: int, trials: int, seed: int) -> CheckResult:
    name = "order_three_product"
    f1, f2 = involutions.order_three_product_pair(rank)
    for f in (f1, f2):
        if not (f * f).is_identity():
            return _fail(name, 0, matrix=f.to_lists(), law="involution")
    m = f1 * f2
    if m.is_identity() or (m * m).is_identity() or not (m * m * m).is_identity():
        return _fail(name, 0, product=m.to_lists())
    return CheckResult(name, "pass", 1)


def check_unimodular_decomposition(rank: int, trials: int, seed: int) -> CheckResult:
    name = "unimodular_decomposition"
    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        vec = tuple(rng.randint(-6, 6) for _ in range(rank))
        parts = decompose_into_unimodular(vec)
        if (len(parts) > 2 or tuple(map(sum, zip(*parts))) != vec
                or not all(is_unimodular_vector(p) for p in parts)):
            return _fail(name, t, vector=list(vec), parts=[list(p) for p in parts])
    return CheckResult(name, "pass", trials)


def check_triplet_decoding(rank: int, trials: int, seed: int) -> CheckResult:
    name = "triplet_decoding"
    taus = [autgroup.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
    theta0 = autgroup.symmetry_standard(rank)

    def attached(beta: Automorphism) -> Automorphism:
        return autgroup.compose(theta0, autgroup.compose(beta, beta))

    def closed_form(beta: Automorphism, i: int) -> Element:
        # theta0 o beta^2 inverts x_i * c exactly when c = -(offset of beta at x_i)
        offset = autgroup.ia_offsets(beta)[i - 1]
        return Element.generator(rank, i) * Element.central(rank, [-c for c in offset])

    for t in range(trials):
        rng = _trial_rng(seed, name, rank, t)
        beta = random_ia(rng, rank)
        theta = attached(beta)
        i = rng.randint(1, rank)
        decoded = iastruct.decode_triplet(taus[i - 1], theta, taus)
        if autgroup.apply(theta, decoded) != decoded.inverse():
            return _fail(name, t, beta=format_automorphism(beta), index=i)
        # uniqueness within the coset: perturbed central parts are not inverted
        for _ in range(10):
            perturbed = decoded
            while perturbed == decoded:
                perturbed = Element(
                    rank, decoded.abelian,
                    [c + rng.randint(-2, 2) for c in decoded.comm],
                )
            if autgroup.apply(theta, perturbed) == perturbed.inverse():
                return _fail(name, t, beta=format_automorphism(beta), index=i,
                             perturbed=format_element(perturbed))
        # the decoded element matches the closed form, for beta and a second gamma
        gamma = random_ia(rng, rank)
        for square_root, got in (
            (beta, decoded),
            (gamma, iastruct.decode_triplet(taus[i - 1], attached(gamma), taus)),
        ):
            if got != closed_form(square_root, i):
                return _fail(name, t, square_root=format_automorphism(square_root), index=i,
                             decoded=format_element(got), law="closed_form")
    return CheckResult(name, "pass", trials)


CHECKS = {
    "abelianization_functorial": check_abelianization_functorial,
    "attached_symmetry_parity": check_attached_symmetry_parity,
    "canonical_involution_form": check_canonical_involution_form,
    "centreless": check_centreless,
    "commuting_involution_split": check_commuting_involution_split,
    "conjugation_homomorphism": check_conjugation_homomorphism,
    "conjugations_of_primitive_powers": check_conjugations_of_primitive_powers,
    "group_axioms": check_group_axioms,
    "homomorphism_equivariance": check_homomorphism_equivariance,
    "ia_abelian_torsion_free": check_ia_abelian_torsion_free,
    "ia_factorization": check_ia_factorization,
    "inner_witness_solver": check_inner_witness_solver,
    "minus_inversion_criterion": check_minus_inversion_criterion,
    "order_three_product": check_order_three_product,
    "plus_minus_classification": check_plus_minus_classification,
    "sqrt_construction": check_sqrt_construction,
    "stabilizer_split": check_stabilizer_split,
    "symmetry_inverts_ia": check_symmetry_inverts_ia,
    "three_conjugates": check_three_conjugates,
    "triplet_decoding": check_triplet_decoding,
    "unimodular_decomposition": check_unimodular_decomposition,
    "word_oracle": check_word_oracle,
    "wordlang_roundtrip": check_wordlang_roundtrip,
}


def run_suite(rank_min: int = 2, rank_max: int = 5, trials: int = 200,
              seed: int = 0) -> VerificationReport:
    """Run every check at every rank in [rank_min, rank_max]."""
    if not 2 <= rank_min <= rank_max <= 8:
        raise ValueError("ranks must satisfy 2 <= rank_min <= rank_max <= 8")
    if trials < 1:
        raise ValueError("trials must be >= 1; zero trials would pass vacuously")
    results = []
    for name in sorted(CHECKS):
        for rank in range(rank_min, rank_max + 1):
            result = CHECKS[name](rank, trials, seed)
            results.append(
                CheckResult(f"{name}[rank={rank}]", result.status, result.trials,
                            result.counterexample)
            )
    return VerificationReport(
        suite_version=SUITE_VERSION,
        rank_min=rank_min,
        rank_max=rank_max,
        trials=trials,
        seed=seed,
        checks=tuple(results),
    )
