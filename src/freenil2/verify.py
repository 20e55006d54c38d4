"""Seeded verification suite.

Every check reruns one of the desk-scale facts the package is built on, at a
given rank.  A check is a body registered by ``_check``, which keeps the
determinism contract in one place: trial t draws from an rng seeded from a
SHA-256 of (seed, check name, rank, t), so reports are rerun-identical and
adding checks never perturbs existing ones.  The hash comes from the
interpreter's built-in module, as ``random``'s own does, since ``hashlib``
would load OpenSSL for one short digest a trial.  ``_trial_rng`` is the only
place the package seeds a ``random.Random``, and ``verify`` the only module
that imports ``sampling``: every draw comes from a trial's rng, and the
library functions a check calls take the drawn values as arguments.  A pass
reports the trials asked for, and a failure at trial t reports t + 1 trials
and a serialized counterexample.  A check that raises fails at that trial,
with the exception as its counterexample, so the rest of the suite still runs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index, mul

try:  # the same digests as hashlib.sha256, without loading OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import autgroup, iastruct, involutions
from .autgroup import Automorphism, InvolutionKind
from .nilcore import Element, commutator, mul_fold, offset_support_split, pair_count, reduce_word
from .sampling import (
    random_automorphism,
    random_conjugator,
    random_element,
    random_ia,
    random_ia_on_supports,
    random_inverted_member_with_offset,
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
    smith_divisors,
    smith_rows,
)

SUITE_VERSION = "1"


@dataclass(frozen=True)
class CheckResult:
    """One named check of the verification suite."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    trials: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "trials": self.trials,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Full outcome of the suite; deterministic for fixed (seed, ranks, trials)."""

    suite_version: str
    rank_min: int
    rank_max: int
    trials: int
    seed: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite_version": self.suite_version,
            "rank_min": self.rank_min,
            "rank_max": self.rank_max,
            "trials": self.trials,
            "seed": self.seed,
            "all_passed": self.all_passed(),
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
        }


def _trial_rng(seed: int, name: str, rank: int, trial: int) -> random.Random:
    digest = sha256(f"{seed}|{name}|{rank}|{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _Trials:
    """The per-trial rngs of one check at one rank; iterating counts the
    trials started, which is what a failure reports."""

    def __init__(self, seed: int, name: str, rank: int, count: int):
        self.seed, self.name, self.rank, self.count = seed, name, rank, count
        self.started = 0

    def __iter__(self):
        for t in range(self.count):
            self.started = t + 1
            yield _trial_rng(self.seed, self.name, self.rank, t)


CHECKS: dict[str, Callable[[int, int, int], CheckResult]] = {}


def _check(name: str, single: bool = False):
    """Register a check body under ``name`` as ``check(rank, trials, seed)``.

    The body gets the rank and the check's _Trials, and returns None for a
    pass or the counterexample of a failure; an exception it raises is a
    failure too, with the exception as the counterexample.  A pass reports
    the trials asked for, a failure the trials started (at least 1).  A
    ``single`` check is one construction and counts as one trial.  A rank
    or trial count that is not an integer is a TypeError, and fewer than one
    trial asked for is a ValueError: usage errors, not failed verifications.
    """

    def register(body: Callable[[int, _Trials], dict | None]):
        def check(rank: int, trials: int, seed: int) -> CheckResult:
            rank, trials = index(rank), index(trials)
            if trials < 1:
                raise ValueError("trials must be >= 1; zero trials would pass vacuously")
            run = _Trials(seed, name, rank, 1 if single else trials)
            try:
                failure = body(rank, run)
            except Exception as exc:
                failure = {"exception": type(exc).__name__, "message": str(exc)}
            if failure is None:
                return CheckResult(name, "pass", run.count)
            return CheckResult(name, "fail", max(run.started, 1), failure)

        check.__name__ = check.__qualname__ = body.__name__
        CHECKS[name] = check
        return check

    return register


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@_check("group_axioms")
def check_group_axioms(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        g, h, k = (random_element(rng, rank) for _ in range(3))
        if (g * h) * k != g * (h * k):
            return dict(law="associativity", g=format_element(g),
                        h=format_element(h), k=format_element(k))
        if g * Element.identity(rank) != g or Element.identity(rank) * g != g:
            return dict(law="identity", g=format_element(g))
        if not (g * g.inverse()).is_identity() or not (g.inverse() * g).is_identity():
            return dict(law="inverse", g=format_element(g))
        if commutator(g, h) != commutator(h, g).inverse():
            return dict(law="antisymmetry", g=format_element(g), h=format_element(h))
        if commutator(g, h * k) != commutator(g, h) * commutator(g, k):
            return dict(law="bilinearity", g=format_element(g),
                        h=format_element(h), k=format_element(k))
        # centre: g commutes with every generator iff its abelian part vanishes
        central = all(
            g * Element.generator(rank, i) == Element.generator(rank, i) * g
            for i in range(1, rank + 1)
        )
        if central != g.is_central():
            return dict(law="centre", g=format_element(g))


@_check("word_oracle")
def check_word_oracle(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        word = random_word(rng, rank, 12)
        if reduce_word(word) != mul_fold(word):
            return dict(letters=list(word.letters))


@_check("wordlang_roundtrip")
def check_wordlang_roundtrip(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        g = random_element(rng, rank, bound=4)
        text = format_element(g)
        if parse_element(text, rank) != g:
            return dict(text=text)
        if format_element(parse_element(text, rank)) != text:
            return dict(text=text, reason="formatting not idempotent")


@_check("homomorphism_equivariance")
def check_homomorphism_equivariance(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        sigma = random_automorphism(rng, rank)
        g, h = random_element(rng, rank), random_element(rng, rank)
        if autgroup.apply(sigma, g * h) != autgroup.apply(sigma, g) * autgroup.apply(sigma, h):
            return dict(law="homomorphism", sigma=format_automorphism(sigma),
                        g=format_element(g), h=format_element(h))
        if autgroup.apply(sigma, commutator(g, h)) != commutator(
            autgroup.apply(sigma, g), autgroup.apply(sigma, h)
        ):
            return dict(law="commutator_equivariance",
                        sigma=format_automorphism(sigma))


@_check("abelianization_functorial")
def check_abelianization_functorial(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        sigma = random_automorphism(rng, rank)
        rho = random_automorphism(rng, rank)
        if autgroup.abelianize(autgroup.compose(sigma, rho)) != (
            autgroup.abelianize(sigma) * autgroup.abelianize(rho)
        ):
            return dict(sigma=format_automorphism(sigma),
                        rho=format_automorphism(rho))
        matrix = random_unimodular(rng, rank)
        if autgroup.abelianize(autgroup.lift(matrix)) != matrix:
            return dict(matrix=matrix.to_lists(), law="lift_section")
        if autgroup.is_ia(sigma) != autgroup.abelianize(sigma).is_identity():
            return dict(sigma=format_automorphism(sigma), law="ia_kernel")
        if not autgroup.compose(sigma, autgroup.invert(sigma)).is_identity():
            return dict(sigma=format_automorphism(sigma), law="inverse")


@_check("ia_abelian_torsion_free")
def check_ia_abelian_torsion_free(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        alpha, beta = random_ia(rng, rank), random_ia(rng, rank)
        if autgroup.compose(alpha, beta) != autgroup.compose(beta, alpha):
            return dict(law="abelian", alpha=format_automorphism(alpha),
                        beta=format_automorphism(beta))
        if not alpha.is_identity():
            power = alpha
            for k in range(2, 7):
                power = autgroup.compose(power, alpha)
                if power.is_identity():
                    return dict(law="torsion", order=k,
                                alpha=format_automorphism(alpha))


@_check("symmetry_inverts_ia")
def check_symmetry_inverts_ia(rank: int, trials: _Trials) -> dict | None:
    phi = autgroup.extremal_standard(rank, 1)
    for rng in trials:
        theta = random_symmetry_mod_ia(rng, rank)
        alpha = random_ia(rng, rank)
        product, inverse = autgroup.compose(theta, alpha), autgroup.invert(alpha)
        # theta and alpha abelianize to -I and I, so compose and invert take
        # their diagonal-sign closed forms; apply, which has none, is the oracle
        if product.images != tuple(autgroup.apply(theta, img) for img in alpha.images):
            return dict(theta=format_automorphism(theta),
                        alpha=format_automorphism(alpha), law="compose_vs_apply")
        if any(autgroup.apply(alpha, img) != Element.generator(rank, k)
               for k, img in enumerate(inverse.images, start=1)):
            return dict(alpha=format_automorphism(alpha), law="invert_vs_apply")
        # eta abelianizes to diag(-1, 1, ..., 1): mixed signs, so the factors
        # d_p * d_q and -d_k of the closed forms are not all equal there
        eta = autgroup.compose(phi, alpha)
        if autgroup.compose(eta, alpha).images != tuple(
                autgroup.apply(eta, img) for img in alpha.images):
            return dict(eta=format_automorphism(eta), alpha=format_automorphism(alpha),
                        law="extremal_compose_vs_apply")
        if any(autgroup.apply(eta, img) != Element.generator(rank, k)
               for k, img in enumerate(autgroup.invert(eta).images, start=1)):
            return dict(eta=format_automorphism(eta), law="extremal_invert_vs_apply")
        if autgroup.compose(theta, autgroup.compose(alpha, theta)) != inverse:
            return dict(theta=format_automorphism(theta),
                        alpha=format_automorphism(alpha))
        if not autgroup.compose(product, product).is_identity():
            return dict(theta=format_automorphism(theta),
                        alpha=format_automorphism(alpha), law="involution")


@_check("ia_factorization")
def check_ia_factorization(rank: int, trials: _Trials) -> dict | None:
    theta = autgroup.symmetry_standard(rank)
    for rng in trials:
        alpha = random_ia(rng, rank)
        second = autgroup.compose(theta, alpha)
        if autgroup.compose(theta, second) != alpha:
            return dict(alpha=format_automorphism(alpha))
        for factor in (theta, second):
            if autgroup.classify_involution(factor) is not InvolutionKind.SYMMETRY_MOD_IA:
                return dict(alpha=format_automorphism(alpha),
                            factor=format_automorphism(factor))


@_check("centreless")
def check_centreless(rank: int, trials: _Trials) -> dict | None:
    elementary = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    elementary[0][1] = 1
    probes = [autgroup.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
    probes += [
        autgroup.symmetry_standard(rank),
        autgroup.extremal_standard(rank, 1),
        autgroup.lift(IntMatrix(elementary)),
    ]
    for rng in trials:
        sigma = random_automorphism(rng, rank)
        while sigma.is_identity():
            sigma = random_automorphism(rng, rank)
        if all(
            autgroup.compose(sigma, probe) == autgroup.compose(probe, sigma)
            for probe in probes
        ):
            return dict(sigma=format_automorphism(sigma))


@_check("three_conjugates")
def check_three_conjugates(rank: int, trials: _Trials) -> dict | None:
    # pinned witnesses: each base is an involution, its triple's product is
    # not; padding by an identity block keeps both, so the 2x2 matrices do
    for base, (m1, m2, m3) in (
        (involutions.X_MATRIX, involutions.X_CONJUGATE_TRIPLE),
        (involutions.Y_MATRIX, involutions.Y_CONJUGATE_TRIPLE),
    ):
        product = m1 * m2 * m3
        if not (base * base).is_identity() or (product * product).is_identity():
            return dict(witness=base.to_lists(),
                        reason="pinned witness is not a counterexample")
    # forward direction: conjugates of a symmetry-mod-IA involution
    for rng in trials:
        theta = random_symmetry_mod_ia(rng, rank)
        found = involutions.three_conjugates_probe(
            theta, [random_conjugator(rng, rank) for _ in range(3)])
        if found is not None:
            conjugates, product = found
            return dict(theta=format_automorphism(theta), counterexample={
                "conjugates": [format_automorphism(c) for c in conjugates],
                "product": format_automorphism(product)})


@_check("canonical_involution_form")
def check_canonical_involution_form(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        f = random_involution_matrix(rng, rank)
        pm = involutions.plus_minus(f)
        if len(pm.plus) + len(pm.minus) != rank:
            return dict(matrix=f.to_lists(), law="rank_sum")
        s = pm.defect
        form = involutions.canonicalize_involution(f)  # validates internally
        expected = (len(pm.plus) - s, len(pm.minus) - s, s)
        if form.block_type() != expected:
            return dict(matrix=f.to_lists(), got=form.block_type(),
                        expected=expected)
        # the closed form against its oracle, the Smith divisors of F - I
        closed = involutions.involution_block_type(f)
        p, m, s = closed
        divisors = smith_divisors((f - IntMatrix.identity(rank)).rows)
        if closed != expected or divisors != [1] * s + [2] * m + [0] * (p + s):
            return dict(matrix=f.to_lists(), law="closed_form_vs_smith_divisors",
                        got=closed, expected=expected, divisors=divisors)


@_check("commuting_involution_split")
def check_commuting_involution_split(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
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
            return dict(f=f.to_lists(), g=g.to_lists())


@_check("plus_minus_classification")
def check_plus_minus_classification(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
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
            return dict(alpha=format_automorphism(alpha), index=i,
                        classified=got.value)


@_check("conjugation_homomorphism")
def check_conjugation_homomorphism(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        g, h = random_element(rng, rank), random_element(rng, rank)
        if autgroup.compose(autgroup.conjugation(g), autgroup.conjugation(h)) != (
            autgroup.conjugation(g * h)
        ):
            return dict(g=format_element(g), h=format_element(h))
        if autgroup.conjugation(g).is_identity() != g.is_central():
            return dict(g=format_element(g), law="kernel_is_centre")


@lru_cache(maxsize=None)
def _inner_system(n: int):
    """The rank-n data of ``exact_inner_witness``: the generators, the
    nonzero rows of L with their positions, and the first n rows of U, the
    pivots and V of the Smith form U L V = D of those rows.  A zero row
    carries no unknown; at rank 1 every row is zero and one is kept, so that
    V is still n x n."""
    gens = [Element.generator(n, i) for i in range(1, n + 1)]
    rows = []
    for x in gens:
        x_inv = x.inverse()
        columns = [x_inv * x_k * x * x_k.inverse() for x_k in gens]
        rows += zip(*(c.abelian + c.comm for c in columns))
    kept = [k for k, row in enumerate(rows) if any(row)] or [0]
    rows = [rows[k] for k in kept]
    u, d, v = smith_rows(rows)
    return gens, kept, rows, u[:n], [d[j][j] for j in range(n)], v


def exact_inner_witness(alpha: Automorphism) -> Element | None:
    """Oracle for ``inner_witness``: the exponent vector a with conjugation
    by x^a equal to alpha, or None when alpha is not inner.

    Conjugation by x^a moves x_i by sum_k a_k c_ik, where c_ik is the offset
    x_i^-1 x_k x_i x_k^-1.  Over every coordinate of every image (the abelian
    ones leave no solution unless alpha is IA) this is L a = b, with b the
    offsets x_i^-1 alpha(x_i), all from Element products alone: no code is
    shared with conjugation, commutator or inner_witness.  L depends on the
    rank alone and is factored once per rank (``_inner_system``); a is read
    off the Smith form U L V = D and kept only if L a = b exactly.
    """
    n = alpha.rank
    gens, kept, rows, u, pivots, v = _inner_system(n)
    b = []
    for x, img in zip(gens, alpha.images):
        offset = x.inverse() * img
        b += offset.abelian + offset.comm
    kept_b = [b[k] for k in kept]
    ub = [sum(map(mul, row, kept_b)) for row in u]
    # D y = U b needs each pivot to divide its coordinate
    if any(c % p if p else c for c, p in zip(ub, pivots)):
        return None
    y = [c // p if p else 0 for c, p in zip(ub, pivots)]
    a = [sum(map(mul, row, y)) for row in v]
    # L a = b, with L zero off the kept rows
    lhs = [0] * len(b)
    for k, row in zip(kept, rows):
        lhs[k] = sum(map(mul, row, a))
    return Element(n, a) if lhs == b else None


@_check("inner_witness_solver")
def check_inner_witness_solver(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        if rng.random() < 0.5:
            alpha = autgroup.conjugation(random_element(rng, rank, bound=2))
        else:
            alpha = random_ia(rng, rank, 1)
        witness = autgroup.inner_witness(alpha)
        if witness is not None and autgroup.conjugation(witness) != alpha:
            return dict(alpha=format_automorphism(alpha),
                        witness=format_element(witness))
        oracle = exact_inner_witness(alpha)
        if (witness and witness.abelian) != (oracle and oracle.abelian):
            return dict(alpha=format_automorphism(alpha),
                        solver=witness and format_element(witness),
                        oracle=oracle and format_element(oracle))


@_check("conjugations_of_primitive_powers")
def check_conjugations_of_primitive_powers(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        x = random_primitive(rng, rank)
        m = rng.choice([k for k in range(-3, 4) if k])
        tau = autgroup.conjugation(x ** m)
        witness = autgroup.inner_witness(tau)
        if witness is None or witness.abelian != tuple(m * a for a in x.abelian):
            return dict(x=format_element(x), power=m, law="witness")
        # an extremal involution inverting x conjugates tau to its inverse
        complement = direct_complement(LatticeBasis(rank, [x.abelian]))
        basis = IntMatrix.from_columns([x.abelian] + list(complement.vectors))
        rho = autgroup.lift(basis)
        rho_inv = autgroup.invert(rho)
        phi = autgroup.compose(
            rho, autgroup.compose(autgroup.extremal_standard(rank, 1), rho_inv)
        )
        if autgroup.compose(phi, autgroup.compose(tau, phi)) != autgroup.invert(tau):
            return dict(x=format_element(x), power=m, law="inverting_extremal")
        # extremal involutions inverting complement vectors commute with tau
        k = rng.randint(2, rank)
        psi = autgroup.compose(
            rho, autgroup.compose(autgroup.extremal_standard(rank, k), rho_inv)
        )
        if autgroup.compose(psi, autgroup.compose(tau, psi)) != tau:
            return dict(x=format_element(x), power=m, law="commuting_extremal")
        fm = autgroup.abelianize(phi)
        gm = autgroup.abelianize(psi)
        if fm * gm != gm * fm:
            return dict(x=format_element(x), law="extremals_commute_mod_ia")


@_check("attached_symmetry_parity")
def check_attached_symmetry_parity(rank: int, trials: _Trials) -> dict | None:
    theta0 = autgroup.symmetry_standard(rank)
    taus = [autgroup.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
    if not autgroup.is_basis_conjugation_set(taus):
        return dict(reason="standard conjugations rejected as a basis set")
    for rng in trials:
        beta = random_ia(rng, rank)
        attached = autgroup.compose(theta0, autgroup.compose(beta, beta))
        if not autgroup.is_attached_symmetry(attached, taus):
            return dict(beta=format_automorphism(beta), law="square_attached")
        conjugate = autgroup.compose(autgroup.invert(beta), autgroup.compose(theta0, beta))
        if conjugate != attached:
            return dict(beta=format_automorphism(beta), law="conjugate_identity")
        offsets = [[0] * pair_count(rank) for _ in range(rank)]
        offsets[rng.randrange(rank)][rng.randrange(pair_count(rank))] = 2 * rng.randint(0, 2) + 1
        gamma = autgroup.ia_from_offsets(rank, offsets)
        odd = autgroup.compose(theta0, gamma)
        if autgroup.is_attached_symmetry(odd, taus):
            return dict(gamma=format_automorphism(gamma), law="odd_offset_detached")


@_check("stabilizer_split")
def check_stabilizer_split(rank: int, trials: _Trials) -> dict | None:
    everywhere = range(pair_count(rank))
    for rng in trials:
        i = rng.randint(1, rank)
        alpha = random_ia_on_supports(
            rng, rank, [() if k == i else everywhere for k in range(1, rank + 1)])
        split = iastruct.stabilizer_split(alpha, i)
        if autgroup.compose(split.plus, split.minus) != alpha:
            return dict(alpha=format_automorphism(alpha), index=i)
        if autgroup.compose(split.plus, split.minus) != autgroup.compose(split.minus, split.plus):
            return dict(alpha=format_automorphism(alpha), index=i, law="commute")
        resplit = iastruct.stabilizer_split(split.plus, i)
        if resplit.plus != split.plus or not resplit.minus.is_identity():
            return dict(alpha=format_automorphism(alpha), index=i, law="idempotent")
        # both factors are subgroups: closed under composition and inversion
        other = random_minus_member(rng, rank, i)
        composed = autgroup.compose(split.minus, other)
        check = iastruct.stabilizer_split(composed, i)
        if not check.plus.is_identity():
            return dict(alpha=format_automorphism(alpha), index=i, law="minus_closed")
        inverted = iastruct.stabilizer_split(autgroup.invert(split.plus), i)
        if not inverted.minus.is_identity():
            return dict(alpha=format_automorphism(alpha), index=i, law="plus_closed")


@_check("minus_inversion_criterion")
def check_minus_inversion_criterion(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        i = rng.randint(1, rank)
        j = rng.choice([k for k in range(1, rank + 1) if k != i])
        psi = iastruct.shifting_involution(rank, i, j)
        lam = random_minus_member(rng, rank, i)
        if iastruct.classify_wrt_extremal(lam, i) is iastruct.PMClass.NEITHER:
            return dict(i=i, j=j, reason="sampled member not inverted by the extremal involution")
        if not iastruct.inversion_criterion_check(psi, lam):
            return dict(i=i, j=j, member=format_automorphism(lam))
        if rank >= 3:
            # inverted by the extremal involution at i, but not by psi
            bad = random_inverted_member_with_offset(rng, rank, i)
            if not iastruct.inversion_criterion_check(autgroup.extremal_standard(rank, i), bad):
                return dict(i=i, j=j, reason="constructed member left the inverted set")
            if iastruct.inversion_criterion_check(psi, bad):
                return dict(i=i, j=j, member=format_automorphism(bad),
                            reason="nontrivial offset member was inverted")


@_check("sqrt_construction")
def check_sqrt_construction(rank: int, trials: _Trials) -> dict | None:
    rotation = IntMatrix([[0, -1], [1, 0]])
    if rotation * rotation != -IntMatrix.identity(2):
        return dict(law="rotation_relation")
    for rng in trials:
        while True:
            f = random_involution_matrix(rng, rank, diagonalizable=True)
            if involutions.involution_block_type(f)[1] % 2 == 0:
                break
        h = involutions.sqrt_of_involution(f)
        if h * h != f or not is_unimodular_matrix(h):
            return dict(matrix=f.to_lists(), sqrt=h.to_lists())


@_check("order_three_product", single=True)
def check_order_three_product(rank: int, trials: _Trials) -> dict | None:
    f1, f2 = involutions.order_three_product_pair(rank)
    for f in (f1, f2):
        if not (f * f).is_identity():
            return dict(matrix=f.to_lists(), law="involution")
    m = f1 * f2
    if m.is_identity() or (m * m).is_identity() or not (m * m * m).is_identity():
        return dict(product=m.to_lists())


@_check("unimodular_decomposition")
def check_unimodular_decomposition(rank: int, trials: _Trials) -> dict | None:
    for rng in trials:
        vec = tuple(rng.randint(-6, 6) for _ in range(rank))
        parts = decompose_into_unimodular(vec)
        if (len(parts) > 2 or tuple(map(sum, zip(*parts))) != vec
                or not all(is_unimodular_vector(p) for p in parts)):
            return dict(vector=list(vec), parts=[list(p) for p in parts])


@_check("triplet_decoding")
def check_triplet_decoding(rank: int, trials: _Trials) -> dict | None:
    taus = [autgroup.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
    theta0 = autgroup.symmetry_standard(rank)

    def attached(beta: Automorphism) -> Automorphism:
        return autgroup.compose(theta0, autgroup.compose(beta, beta))

    def closed_form(beta: Automorphism, i: int) -> Element:
        # theta0 o beta^2 inverts x_i * c exactly when c = -(offset of beta at x_i)
        offset = autgroup.ia_offsets(beta)[i - 1]
        return Element.generator(rank, i) * Element.central(rank, [-c for c in offset])

    for rng in trials:
        beta = random_ia(rng, rank)
        theta = attached(beta)
        i = rng.randint(1, rank)
        decoded = iastruct.decode_triplet(taus[i - 1], theta, taus)
        if autgroup.apply(theta, decoded) != decoded.inverse():
            return dict(beta=format_automorphism(beta), index=i)
        # uniqueness within the coset: perturbed central parts are not inverted
        for _ in range(10):
            perturbed = decoded
            while perturbed == decoded:
                perturbed = Element(
                    rank, decoded.abelian,
                    [c + rng.randint(-2, 2) for c in decoded.comm],
                )
            if autgroup.apply(theta, perturbed) == perturbed.inverse():
                return dict(beta=format_automorphism(beta), index=i,
                            perturbed=format_element(perturbed))
        # the decoded element matches the closed form, for beta and a second gamma
        gamma = random_ia(rng, rank)
        for square_root, got in (
            (beta, decoded),
            (gamma, iastruct.decode_triplet(taus[i - 1], attached(gamma), taus)),
        ):
            if got != closed_form(square_root, i):
                return dict(square_root=format_automorphism(square_root), index=i,
                            decoded=format_element(got), law="closed_form")


def run_suite(rank_min: int = 2, rank_max: int = 5, trials: int = 200,
              seed: int = 0) -> VerificationReport:
    """Run every check at every rank in [rank_min, rank_max]."""
    rank_min, rank_max, trials = index(rank_min), index(rank_max), index(trials)
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
