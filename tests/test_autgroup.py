import itertools
import json
import random
from pathlib import Path

import pytest

from freenil2 import autgroup as ag
from freenil2 import iastruct, verify
from freenil2.autgroup import Automorphism, InvolutionKind
from freenil2.errors import (
    FreeNil2Error,
    IndexOutOfRank,
    InvalidAutomorphism,
    NotIA,
    NotInner,
    NotUnimodular,
    RankMismatch,
)
from freenil2.nilcore import Element, commutator, pair_count, pair_list
from freenil2.sampling import random_automorphism, random_element, random_ia, random_unimodular
from freenil2.wordlang import parse_element
from freenil2.zlinalg import IntMatrix, smith_rows
from autgroup_reference import conjugation_basis_symmetry, exact_inner_witness_reference
from smith_reference import unimodular_inverse_rows_reference


DATA = Path(__file__).parent / "data"


def elem(text, rank):
    return parse_element(text, rank)


def apply_by_substitution(sigma, g):
    """Oracle for ``apply``: multiply the image powers out in order, then the
    images of g's basis commutators."""
    n = g.rank
    out = Element.identity(n)
    for img, e in zip(sigma.images, g.abelian):
        out = out * img ** e
    for (i, j), e in zip(pair_list(n), g.comm):
        out = out * commutator(sigma.image(i), sigma.image(j)) ** e
    return out


def compose_by_substitution(sigma, rho):
    """Oracle for ``compose``: sigma applied to each of rho's images by
    substitution, validated by the Automorphism constructor."""
    return Automorphism([apply_by_substitution(sigma, img) for img in rho.images])


def invert_by_lift_and_compose(sigma):
    """Oracle for ``invert``: lift the inverse matrix, which the Smith
    decomposition gives, observe that sigma o lift is IA, and correct by the
    inverse of that IA automorphism, which negates each central offset."""
    inverse = unimodular_inverse_rows_reference(ag.abelianize(sigma).to_lists())
    rho0 = ag.lift(IntMatrix(inverse))
    offsets = [tuple(-c for c in off) for off in ag.ia_offsets(ag.compose(sigma, rho0))]
    return ag.compose(rho0, ag.ia_from_offsets(sigma.rank, offsets))


def brute_force_witness(alpha, bound=3):
    """Oracle for ``inner_witness`` and ``verify.exact_inner_witness``:
    exhaustive search over abelian parts in [-bound, bound]^n, comparing
    conjugation images one generator at a time so mismatches exit early."""
    n = alpha.rank
    generators = [Element.generator(n, i) for i in range(1, n + 1)]
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        a = Element(n, vec)
        a_inv = a.inverse()
        if all(a * g * a_inv == img for g, img in zip(generators, alpha.images)):
            return a
    return None


def big_automorphism(rng, n, bound=10**6):
    """Random automorphism with abelian entries and central parts up to
    about bound."""
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    shear[i][j] = rng.randint(-bound, bound)
    matrix = random_unimodular(rng, n) * IntMatrix(shear)
    return ag.compose(ag.lift(matrix), random_ia(rng, n, bound=bound))


def attached_by_quotient(theta, taus):
    """Oracle for ``is_attached_symmetry``: theta_B o theta is IA and all its
    central offsets are even."""
    delta = ag.compose(conjugation_basis_symmetry(taus), theta)
    return ag.abelianize(delta).is_identity() and all(
        c % 2 == 0 for img in delta.images for c in img.comm)


def random_basis_set(rng, n):
    """Conjugations by the columns of a random unimodular matrix with random
    central parts, drawn as the IA corpus draws them."""
    columns = random_unimodular(rng, n).columns()
    return [ag.conjugation(Element(n, col, random_element(rng, n).comm)) for col in columns]


def ia_from_offsets_by_products(rank, offsets):
    """Oracle for ia_from_offsets: image i is the product x_i * central(offset_i),
    validated by the Automorphism constructor."""
    return Automorphism([Element.generator(rank, i) * Element.central(rank, off)
                         for i, off in enumerate(offsets, start=1)])


def plain_ints(g):
    return (type(g.abelian) is tuple and type(g.comm) is tuple
            and all(type(x) is int for x in g.abelian + g.comm))


def assert_matches_checked(out):
    """An unchecked result equals and hashes as its validated construction,
    and holds plain int tuples: equality and hashing compare tuples, so a
    list or a bool would break them."""
    if isinstance(out, Automorphism):
        checked = Automorphism([Element(img.rank, img.abelian, img.comm) for img in out.images])
        assert type(out.images) is tuple and out.rank == len(out.images)
        assert all(plain_ints(img) for img in out.images)
    else:
        checked = Element(out.rank, out.abelian, out.comm)
        assert plain_ints(out)
    assert checked == out and hash(checked) == hash(out)


def conjugation_by_products(a):
    """Oracle for ``conjugation``: the images a x_i a^-1, from Element * and
    inverse() alone, with each x_i built by the validating constructor."""
    n, a_inv = a.rank, a.inverse()
    return tuple(a * Element(n, [int(k == i) for k in range(n)]) * a_inv for i in range(n))


class TestConstruction:
    def test_identity(self):
        sigma = Automorphism(
            [Element.generator(3, i) for i in (1, 2, 3)]
        )
        assert sigma == Automorphism.identity(3)

    def test_ia_images_accepted(self):
        sigma = Automorphism(
            [elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)]
        )
        assert ag.is_ia(sigma)

    def test_determinant_two_rejected(self):
        with pytest.raises(InvalidAutomorphism):
            Automorphism([elem("x1^2", 2), elem("x2", 2)])

    def test_mixed_ranks_rejected(self):
        with pytest.raises(RankMismatch):
            Automorphism([Element.generator(2, 1), Element.generator(3, 2)])

    def test_ia_from_offsets_input_checks(self):
        with pytest.raises(IndexOutOfRank):
            ag.ia_from_offsets(2, [(1,), (2,), (3,)])
        for offsets in ([(0, 0, 0)], []):
            with pytest.raises(InvalidAutomorphism):
                ag.ia_from_offsets(3, offsets)
        for offsets in ([(1, 2), (0,)], [("x",), (0,)]):
            with pytest.raises(ValueError):
                ag.ia_from_offsets(2, offsets)
        alpha = ag.ia_from_offsets(2, [("3",), (True,)])
        assert [img.comm for img in alpha.images] == [(3,), (1,)]
        assert all(plain_ints(img) for img in alpha.images)

    def test_ia_from_offsets_first_error(self):
        # inputs with several faults raise for the first offset that has
        # one, in the order index, entries, length, and the count last
        cases = [
            ((2, [(1, 2), (3,), (4,)]), ValueError, "comm part must have length 1"),
            ((1, [(), ("x",)]), IndexOutOfRank, "generator index 2 outside 1..1"),
            ((2, [(1.5,)]), ValueError, "expected integers or decimal strings, got (1.5,)"),
            ((2, [(0,), (1, 2), "x"]), ValueError, "comm part must have length 1"),
            ((3, [(0, 0, 0), 5]), ValueError, "expected integers or decimal strings, got 5"),
            ((0, [()]), IndexOutOfRank, "generator index 1 outside 1..0"),
            ((0, []), InvalidAutomorphism, "no generator images"),
        ]
        for args, error, message in cases:
            with pytest.raises(error) as exc:
                ag.ia_from_offsets(*args)
            assert exc.type is error and str(exc.value) == message

    def test_string_offset_is_not_split_into_digits(self):
        with pytest.raises(ValueError, match="expected a sequence of integers, got '7'"):
            ag.ia_from_offsets(2, ["7", None])
        alpha = ag.ia_from_offsets(2, [["7"], None])
        assert [img.comm for img in alpha.images] == [(7,), (0,)]

    def test_ia_from_offsets_matches_products(self):
        rng = random.Random(31)
        faults = [None, (1.5,), ("x",), (), 7, "5", (True,)]
        for _ in range(400):
            rank = rng.randint(0, 5)
            width = pair_count(rank)
            offsets = [tuple(rng.randint(-10**6, 10**6) for _ in range(width))
                       for _ in range(rank + rng.choice((-1, 0, 0, 0, 1)))]
            if offsets and rng.random() < 0.3:
                offsets[rng.randrange(len(offsets))] = rng.choice(faults)
            outcomes = []
            for build in (ag.ia_from_offsets, ia_from_offsets_by_products):
                try:
                    outcomes.append(build(rank, offsets))
                except FreeNil2Error as exc:
                    outcomes.append((type(exc), str(exc)))
                except ValueError as exc:
                    outcomes.append((ValueError, str(exc)))
            got, expected = outcomes
            assert got == expected
            if isinstance(got, Automorphism):
                assert hash(got) == hash(expected) and got.rank == rank
                assert all(plain_ints(img) for img in got.images)

    def test_float_offsets_rejected(self):
        # int() would truncate 1.5 to 1 and give x1 -> x1*[x1,x2]
        for offsets in ([(1.5,), (0,)], [(0,), (2.0,)]):
            with pytest.raises(ValueError):
                ag.ia_from_offsets(2, offsets)
        with pytest.raises(ValueError):
            Automorphism([Element(2, (1, 0.5)), Element.generator(2, 2)])


class TestApply:
    def test_identity(self):
        g = Element(2, (1, -2), (3,))
        assert ag.apply(Automorphism.identity(2), g) == g

    def test_symmetry_fixes_centre(self):
        # all generators inverted: abelian part negated, comm part untouched
        theta = ag.symmetry_standard(3)
        g = Element(3, (2, -1, 3), (1, -2, 5))
        assert ag.apply(theta, g) == Element(3, (-2, 1, -3), (1, -2, 5))

    def test_conjugation_image(self):
        tau = ag.conjugation(Element.generator(2, 1))
        assert ag.apply(tau, Element.generator(2, 2)) == elem("x2*[x1,x2]", 2)

    def test_homomorphism_property(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 4)
            sigma = random_automorphism(rng, n)
            g, h = random_element(rng, n), random_element(rng, n)
            assert ag.apply(sigma, g * h) == ag.apply(sigma, g) * ag.apply(sigma, h)
            assert ag.apply(sigma, commutator(g, h)) == commutator(
                ag.apply(sigma, g), ag.apply(sigma, h)
            )

    def test_matches_substitution(self):
        # the closed form against multiplying the image powers out in order,
        # at ranks 2-10, with and without a commutator part
        rng = random.Random(11)
        for k in range(200):
            n = rng.randint(2, 10)
            sigma = ag.compose(random_automorphism(rng, n), random_ia(rng, n, bound=9))
            comm = [rng.randint(-10**6, 10**6) for _ in range(pair_count(n))] if k % 2 else None
            g = Element(n, [rng.randint(-10**6, 10**6) for _ in range(n)], comm)
            assert ag.apply(sigma, g) == apply_by_substitution(sigma, g)

    def test_matches_compose(self):
        # apply on each image of rho against compose's Lambda^2 M: the
        # congruence when the image has a commutator part, the power product
        # when it has none
        rng = random.Random(12)
        for n in range(1, 13):
            for k in range(6):
                if n == 1:
                    sigma, rho = (ag.lift(IntMatrix([[rng.choice((1, -1))]])) for _ in range(2))
                else:
                    sigma, rho = big_automorphism(rng, n), big_automorphism(rng, n)
                    if k % 2:
                        rho = ag.lift(ag.abelianize(rho))
                composed = ag.compose(sigma, rho)
                for img, expected in zip(rho.images, composed.images):
                    assert ag.apply(sigma, img) == expected


class TestComposeInvert:
    def test_invert_identity_and_symmetry(self):
        assert ag.invert(Automorphism.identity(2)) == Automorphism.identity(2)
        theta = ag.symmetry_standard(2)
        assert ag.invert(theta) == theta

    def test_invert_shear(self):
        sigma = Automorphism([elem("x1*x2", 2), elem("x2", 2)])
        inverse = ag.invert(sigma)
        assert ag.compose(sigma, inverse) == Automorphism.identity(2)
        assert ag.compose(inverse, sigma) == Automorphism.identity(2)
        assert inverse.image(1).abelian == (1, -1)

    def test_random_inverses(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 4)
            sigma = random_automorphism(rng, n)
            assert ag.compose(sigma, ag.invert(sigma)).is_identity()
            assert ag.compose(ag.invert(sigma), sigma).is_identity()

    def test_abelianize_functorial(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 4)
            sigma, rho = random_automorphism(rng, n), random_automorphism(rng, n)
            assert ag.abelianize(ag.compose(sigma, rho)) == (
                ag.abelianize(sigma) * ag.abelianize(rho)
            )


class TestClosedFormKernel:
    """compose and invert against their oracles, with entries up to 10^6:
    compose at ranks 2-6, invert at ranks 1-8; and their diagonal-sign closed
    forms at ranks 1-8, against substitution alone."""

    def cases(self, seed, count=60):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, 6)
            yield rng, n, big_automorphism(rng, n)

    def test_invert_matches_lift_and_compose(self):
        rng = random.Random(20)
        for n in range(1, 9):
            for _ in range(12):
                if n == 1:
                    sigma = ag.lift(IntMatrix([[rng.choice((1, -1))]]))
                else:
                    sigma = big_automorphism(rng, n)
                assert ag.invert(sigma) == invert_by_lift_and_compose(sigma)

    def test_compose_matches_substitution(self):
        for rng, n, sigma in self.cases(21):
            rho = big_automorphism(rng, n)
            product = ag.compose(sigma, rho)
            assert product.images == tuple(apply_by_substitution(sigma, img)
                                           for img in rho.images)

    def test_compose_with_inverse_is_identity(self):
        for _, n, sigma in self.cases(22):
            inverse = ag.invert(sigma)
            assert ag.compose(sigma, inverse) == Automorphism.identity(n)
            assert ag.compose(inverse, sigma) == Automorphism.identity(n)

    def diagonal_cases(self, seed):
        """(rng, n, sigma) with sigma abelianizing to a diagonal sign matrix D,
        drawn as lift(D) o alpha and as alpha o lift(D) with alpha IA: every
        D at ranks 1-4, six random ones at each of ranks 5-8, offsets up to
        10^6.  Built by substitution, so no closed form makes its input."""
        rng = random.Random(seed)
        for n in range(1, 9):
            patterns = (itertools.product((1, -1), repeat=n) if n <= 4 else
                        [[rng.choice((1, -1)) for _ in range(n)] for _ in range(6)])
            for signs in patterns:
                signed = ag.lift(IntMatrix([[d if i == j else 0 for j in range(n)]
                                            for i, d in enumerate(signs)]))
                alpha = random_ia(rng, n, bound=10**6)
                yield rng, n, compose_by_substitution(signed, alpha)
                yield rng, n, compose_by_substitution(alpha, signed)

    @pytest.fixture
    def general_path_calls(self, monkeypatch):
        """Counts the Lambda^2 matrices built: one per compose or invert on the
        general path, none on the diagonal-sign closed forms."""
        calls = []
        real = ag._lambda2

        def counting(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(ag, "_lambda2", counting)
        return calls

    def assert_compose_and_invert(self, sigma, rho):
        n = sigma.rank
        product = ag.compose(sigma, rho)
        for img, out in zip(rho.images, product.images, strict=True):
            assert out == apply_by_substitution(sigma, img)
        inverse = ag.invert(sigma)
        for k in range(1, n + 1):
            x = Element.generator(n, k)
            assert apply_by_substitution(sigma, inverse.image(k)) == x
            assert apply_by_substitution(inverse, sigma.image(k)) == x
        assert_matches_checked(product)
        assert_matches_checked(inverse)

    def test_diagonal_signs_closed_forms(self, general_path_calls):
        pairs = []
        for rng, n, sigma in self.diagonal_cases(25):
            pairs.append((sigma, sigma))
            if n > 1:
                pairs.append((sigma, big_automorphism(rng, n)))
        del general_path_calls[:]  # big_automorphism takes the general path
        for sigma, rho in pairs:
            self.assert_compose_and_invert(sigma, rho)
        assert general_path_calls == []

    def test_near_misses_take_general_path(self, general_path_calls):
        # a signed swap, and a sign matrix with one shear entry: neither is
        # diagonal, so both compose and invert build Lambda^2 once per call
        rng = random.Random(26)
        for n in range(2, 7):
            signs = [rng.choice((1, -1)) for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            swap = [[s if r == c else 0 for c in range(n)] for r, s in enumerate(signs)]
            swap[i][i], swap[j][j], swap[i][j], swap[j][i] = 0, 0, signs[i], signs[j]
            shear = [[s if r == c else 0 for c in range(n)] for r, s in enumerate(signs)]
            shear[i][j] = rng.choice((1, -1)) * rng.randint(1, 10**6)
            for matrix in (swap, shear):
                sigma = compose_by_substitution(ag.lift(IntMatrix(matrix)),
                                                random_ia(rng, n, bound=10**6))
                rho = big_automorphism(rng, n)
                del general_path_calls[:]
                self.assert_compose_and_invert(sigma, rho)
                assert general_path_calls == [n, n]

    def test_unchecked_results_match_checked_construction(self):
        # every result the package builds unchecked, against its validated
        # construction (assert_matches_checked)
        for rng, n, sigma in self.cases(23, count=30):
            g = Element(n, [rng.randint(-9, 9) for _ in range(n)],
                        [rng.randint(-9, 9) for _ in range(n * (n - 1) // 2)])
            h, i = random_element(rng, n, bound=10**6), rng.randint(1, n)
            tau = ag.conjugation(g)
            taus = [ag.conjugation(Element.generator(n, k)) for k in range(1, n + 1)]
            beta = random_ia(rng, n)
            theta = ag.compose(ag.symmetry_standard(n), ag.compose(beta, beta))
            for out in (ag.compose(sigma, big_automorphism(rng, n)), ag.invert(sigma), tau,
                        ag.lift(ag.abelianize(sigma)), ag.symmetry_standard(n),
                        ag.extremal_standard(n, i), Automorphism.identity(n),
                        ag.apply(sigma, g), g * g, g.inverse(), g ** rng.randint(-10**6, 10**6),
                        commutator(g, h), h, Element.generator(n, i), Element.identity(n),
                        ag.inner_witness(tau), iastruct.decode_triplet(taus[i - 1], theta, taus)):
                assert out.rank == n
                assert_matches_checked(out)
        # rank 1, which has no pairs, and the empty identity
        for out in (ag.conjugation(Element(1, (7,))), ag.lift(IntMatrix([[-1]])),
                    ag.symmetry_standard(1), ag.extremal_standard(1, 1),
                    ag.inner_witness(Automorphism.identity(1)), Element.generator(1, 1) ** -3,
                    commutator(Element(1, (2,)), Element(1, (3,))), Element.identity(0)):
            assert_matches_checked(out)
        # apply at larger ranks, with entries up to 10^6 in both parts
        rng = random.Random(24)
        for n in (6, 8, 11):
            g = Element(n, [rng.randint(-10**6, 10**6) for _ in range(n)],
                        [rng.randint(-10**6, 10**6) for _ in range(pair_count(n))])
            assert_matches_checked(ag.apply(big_automorphism(rng, n), g))


class TestKernelCorpus:
    """Replays inputs and outputs recorded before compose became a closed
    form (written by tests/make_kernel_corpus.py)."""

    corpus = json.loads((DATA / "kernel_corpus_r2_6_s4.json").read_text())

    @staticmethod
    def element(data):
        abelian, comm = data
        return Element(len(abelian), abelian, comm)

    def automorphism(self, data):
        return Automorphism([self.element(img) for img in data])

    def test_apply(self):
        for case in self.corpus["apply"]:
            sigma, g = self.automorphism(case["sigma"]), self.element(case["g"])
            assert ag.apply(sigma, g) == self.element(case["out"])

    def test_compose(self):
        for case in self.corpus["compose"]:
            sigma, rho = self.automorphism(case["sigma"]), self.automorphism(case["rho"])
            assert ag.compose(sigma, rho) == self.automorphism(case["out"])

    def test_invert(self):
        for case in self.corpus["invert"]:
            sigma = self.automorphism(case["sigma"])
            assert ag.invert(sigma) == self.automorphism(case["out"])


class TestIACorpus:
    """Replays inputs and outputs recorded while conjugation and
    ia_from_offsets still multiplied elements out (written by
    tests/make_kernel_corpus.py).  Outputs are compared in the recorded
    encoding."""

    corpus = json.loads((DATA / "ia_corpus_r2_6_s4.json").read_text())
    element = staticmethod(TestKernelCorpus.element)
    automorphism = TestKernelCorpus.automorphism

    @staticmethod
    def encode_element(g):
        return [list(g.abelian), list(g.comm)]

    def encode(self, sigma):
        return [self.encode_element(img) for img in sigma.images]

    @staticmethod
    def outcome(encode, op, *args):
        try:
            return encode(op(*args))
        except FreeNil2Error as exc:
            return {"error": type(exc).__name__}

    def test_conjugation(self):
        for case in self.corpus["conjugation"]:
            assert self.encode(ag.conjugation(self.element(case["a"]))) == case["out"]

    def test_inner_witness(self):
        outs = [case["out"] for case in self.corpus["inner_witness"]]
        assert None in outs and any(outs)
        for case in self.corpus["inner_witness"]:
            witness = ag.inner_witness(self.automorphism(case["alpha"]))
            assert (witness and self.encode_element(witness)) == case["out"]

    def test_ia_from_offsets(self):
        for case in self.corpus["ia_from_offsets"]:
            n = len(case["offsets"])
            assert self.encode(ag.ia_from_offsets(n, case["offsets"])) == case["out"]

    def test_stabilizer_split(self):
        for case in self.corpus["stabilizer_split"]:
            got = self.outcome(lambda split: [self.encode(split.plus), self.encode(split.minus)],
                               iastruct.stabilizer_split,
                               self.automorphism(case["alpha"]), case["i"])
            assert got == case["out"]

    def test_decode_triplet(self):
        for case in self.corpus["decode_triplet"]:
            taus = [self.automorphism(t) for t in case["taus"]]
            assert ag.is_basis_conjugation_set(taus) == case["basis"]
            assert self.outcome(self.encode, conjugation_basis_symmetry, taus) == (
                case["symmetry"])
            got = self.outcome(self.encode_element, iastruct.decode_triplet,
                               taus[case["i"] - 1], self.automorphism(case["theta"]), taus)
            assert got == case["out"]


class TestAbelianizeLift:
    def test_examples(self):
        assert ag.abelianize(Automorphism.identity(2)) == IntMatrix.identity(2)
        assert ag.abelianize(ag.symmetry_standard(2)) == -IntMatrix.identity(2)
        sigma = Automorphism([elem("x1*x2", 2), elem("x2", 2)])
        assert ag.abelianize(sigma) == IntMatrix([[1, 0], [1, 1]])

    def test_lift_examples(self):
        assert ag.lift(IntMatrix.identity(2)) == Automorphism.identity(2)
        swap = ag.lift(IntMatrix([[0, 1], [1, 0]]))
        assert swap.image(1) == Element.generator(2, 2)
        with pytest.raises(NotUnimodular):
            ag.lift(IntMatrix([[2, 0], [0, 1]]))

    def test_lift_is_section(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = random_unimodular(rng, n)
            assert ag.abelianize(ag.lift(m)) == m

    def test_is_ia(self):
        assert ag.is_ia(Automorphism.identity(3))
        assert ag.is_ia(
            Automorphism([elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)])
        )
        assert not ag.is_ia(ag.symmetry_standard(2))


class TestIAStructure:
    def test_ia_is_abelian_and_torsion_free(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 4)
            alpha, beta = random_ia(rng, n), random_ia(rng, n)
            assert ag.compose(alpha, beta) == ag.compose(beta, alpha)
            if not alpha.is_identity():
                power = alpha
                for _ in range(5):
                    power = ag.compose(power, alpha)
                    assert not power.is_identity()

    def test_symmetry_conjugation_inverts_ia(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 4)
            theta = ag.compose(ag.symmetry_standard(n), random_ia(rng, n))
            alpha = random_ia(rng, n)
            assert ag.compose(theta, ag.compose(alpha, theta)) == ag.invert(alpha)
            product = ag.compose(theta, alpha)
            assert ag.compose(product, product).is_identity()

    def test_two_involution_factorization(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 4)
            alpha = random_ia(rng, n)
            theta = ag.symmetry_standard(n)
            second = ag.compose(theta, alpha)
            assert ag.compose(theta, second) == alpha
            assert ag.abelianize(second) == -IntMatrix.identity(n)
            assert ag.compose(second, second).is_identity()


class TestConjugation:
    def test_central_gives_identity(self):
        assert ag.conjugation(Element.central(2, (7,))).is_identity()

    def test_homomorphism(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 4)
            g, h = random_element(rng, n), random_element(rng, n)
            assert ag.compose(ag.conjugation(g), ag.conjugation(h)) == ag.conjugation(g * h)

    def test_kernel_is_centre(self):
        assert not ag.conjugation(Element.generator(2, 1)).is_identity()
        assert ag.conjugation(Element.central(3, (1, 2, 3))).is_identity()

    def test_conjugation_is_ia(self):
        assert ag.is_ia(ag.conjugation(Element(3, (1, -2, 3), (0, 1, 0))))

    def test_closed_form_matches_products(self):
        rng = random.Random(12)
        for n in range(1, 9):
            for bound in (3, 10**6):
                for _ in range(5):
                    a = Element(n, [rng.randint(-bound, bound) for _ in range(n)],
                                [rng.randint(-bound, bound) for _ in range(pair_count(n))])
                    assert ag.conjugation(a).images == conjugation_by_products(a)
        central = Element.central(4, [rng.randint(-10**6, 10**6) for _ in range(6)])
        assert ag.conjugation(central).images == conjugation_by_products(central)
        assert ag.conjugation(central) == Automorphism.identity(4)
        # rank 1 has no pairs: every conjugation is the identity
        assert ag.conjugation(Element(1, (10**6,))).images == (Element(1, (1,)),)
        assert ag.conjugation(Element(3, (2, -5, 7))).images == (
            elem("x1*[x1,x2]^5*[x1,x3]^-7", 3), elem("x2*[x1,x2]^2*[x2,x3]^-7", 3),
            elem("x3*[x1,x3]^2*[x2,x3]^-5", 3))

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidAutomorphism, match="no generator images"):
            ag.conjugation(Element(0, ()))


class TestInnerWitness:
    def test_identity(self):
        witness = ag.inner_witness(Automorphism.identity(3))
        assert witness is not None and witness.is_central()

    def test_solvable_example(self):
        alpha = Automorphism([elem("x1*[x1,x2]", 2), elem("x2", 2)])
        witness = ag.inner_witness(alpha)
        assert witness is not None
        assert witness.abelian == (0, -1)
        assert ag.conjugation(witness) == alpha

    def test_unsolvable_example(self):
        alpha = Automorphism(
            [elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)]
        )
        assert ag.inner_witness(alpha) is None

    def test_not_ia_rejected(self):
        with pytest.raises(NotIA):
            ag.inner_witness(ag.symmetry_standard(2))

    def test_against_brute_force(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 4)
            if rng.random() < 0.5:
                alpha = ag.conjugation(random_element(rng, n, bound=2))
            else:
                alpha = random_ia(rng, n, 1)
            solved = ag.inner_witness(alpha)
            brute = brute_force_witness(alpha)
            assert (solved is None) == (brute is None)
            if solved is not None:
                assert solved.abelian == brute.abelian
                assert ag.conjugation(solved) == alpha

    def test_exact_oracle_matches_brute_force(self, monkeypatch):
        # on the automorphisms the suite's own check draws
        exact = verify.exact_inner_witness
        drawn = []

        def recording(alpha):
            drawn.append(alpha)
            return exact(alpha)

        monkeypatch.setattr(verify, "exact_inner_witness", recording)
        for rank, trials in ((2, 40), (3, 40), (4, 10)):
            assert verify.check_inner_witness_solver(rank, trials, 0).status == "pass"
        assert len(drawn) == 90
        outcomes = set()
        for alpha in drawn:
            got, brute = exact(alpha), brute_force_witness(alpha)
            outcomes.add(got is None)
            assert (got is None) == (brute is None)
            if got is not None:
                assert got.abelian == brute.abelian
        assert outcomes == {True, False}
        assert exact(ag.symmetry_standard(3)) is None

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_exact_oracle_matches_per_call_reference(self, rank):
        # identity, inner, IA and (at rank 3 up) mostly not inner, and not IA
        rng = random.Random(rank)
        draws = 3 if rank <= 8 else 1
        cases = [ag.conjugation(Element.identity(rank)), ag.symmetry_standard(rank)]
        for _ in range(draws):
            cases += [ag.conjugation(random_element(rng, rank, bound=3)),
                      random_ia(rng, rank, 1), random_automorphism(rng, rank)]
        outcomes = []
        for alpha in cases:
            got = verify.exact_inner_witness(alpha)
            assert got == exact_inner_witness_reference(alpha)
            outcomes.append(got is None)
        assert outcomes[:2] == [False, True]
        assert outcomes[2] is False
        if rank >= 3:
            assert outcomes[3] is True

    def test_exact_oracle_factors_once_per_rank(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return smith_rows(rows)

        monkeypatch.setattr(verify, "smith_rows", counting)
        verify._inner_system.cache_clear()
        rng = random.Random(4)
        for _ in range(4):
            assert verify.exact_inner_witness(ag.conjugation(random_element(rng, 4))) is not None
            verify.exact_inner_witness(random_ia(rng, 4, 1))
            assert verify.exact_inner_witness(ag.symmetry_standard(4)) is None
        # the 4 * 3 nonzero rows of L: the n * n abelian rows and every
        # central row of x_i on a pair avoiding i are zero
        assert calls == [12]

    def test_exact_oracle_catches_sign_flipped_conjugation(self, monkeypatch):
        # the flipped map is still a homomorphism with kernel the centre, so
        # conjugation_homomorphism passes it; only the product-built oracle
        # tells a from a^-1
        def flipped(a):
            n = a.rank
            return ag.ia_from_offsets(
                n, [commutator(Element.generator(n, i), a).comm for i in range(1, n + 1)])

        monkeypatch.setattr(ag, "conjugation", flipped)
        for rank in range(2, 6):
            assert verify.check_conjugation_homomorphism(rank, 20, 0).status == "pass"
            result = verify.check_inner_witness_solver(rank, 20, 0)
            assert result.status == "fail" and "oracle" in result.counterexample


class TestStandardInvolutions:
    def test_symmetry_squares_to_identity(self):
        theta = ag.symmetry_standard(2)
        assert ag.compose(theta, theta).is_identity()

    def test_extremal_abelianization(self):
        phi = ag.extremal_standard(3, 1)
        assert ag.abelianize(phi) == IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(IndexOutOfRank):
            ag.extremal_standard(3, 4)

    def test_permutation_commutes_with_symmetry(self):
        pi = ag.lift(IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))  # x_i -> x_{i+1}
        theta = ag.symmetry_standard(3)
        assert ag.compose(pi, theta) == ag.compose(theta, pi)


    def test_empty_and_negative_ranks_rejected(self):
        # the standard automorphisms are built unchecked, after these checks
        for rank in (0, -2):
            with pytest.raises(InvalidAutomorphism, match="no generator images"):
                ag.symmetry_standard(rank)
            with pytest.raises(InvalidAutomorphism, match="no generator images"):
                Automorphism.identity(rank)
        with pytest.raises(IndexOutOfRank):
            ag.extremal_standard(0, 1)
        with pytest.raises(IndexOutOfRank):
            ag.extremal_standard(3, 0)


class TestClassifyInvolution:
    def test_symmetry_mod_ia(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            theta = ag.compose(ag.symmetry_standard(n), random_ia(rng, n))
            assert ag.compose(theta, theta).is_identity()
            assert ag.classify_involution(theta) is InvolutionKind.SYMMETRY_MOD_IA

    def test_extremal(self):
        assert ag.classify_involution(ag.extremal_standard(3, 1)) is (
            InvolutionKind.EXTREMAL_MOD_IA
        )

    def test_swap_is_other(self):
        swap = ag.lift(IntMatrix([[0, 1], [1, 0]]))
        assert ag.classify_involution(swap) is InvolutionKind.OTHER_INVOLUTION

    def test_not_involution(self):
        shear = Automorphism([elem("x1*x2", 2), elem("x2", 2)])
        assert ag.classify_involution(shear) is InvolutionKind.NOT_INVOLUTION


class TestBasisConjugationSet:
    def standard(self, n):
        return [ag.conjugation(Element.generator(n, i)) for i in range(1, n + 1)]

    def test_standard_set(self):
        assert ag.is_basis_conjugation_set(self.standard(3))

    def test_triangular_set(self):
        taus = [
            ag.conjugation(Element.generator(2, 1)),
            ag.conjugation(Element(2, (1, 1))),
        ]
        assert ag.is_basis_conjugation_set(taus)

    def test_index_two_rejected(self):
        # witnesses (1, 0) and (2, 2) span an index-2 subgroup
        taus = [
            ag.conjugation(Element.generator(2, 1)),
            ag.conjugation(Element(2, (2, 2))),
        ]
        assert not ag.is_basis_conjugation_set(taus)

    def test_non_inner_rejected(self):
        alpha = Automorphism(
            [elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)]
        )
        with pytest.raises(NotInner):
            ag.is_basis_conjugation_set([alpha] + self.standard(3)[1:])

    def test_wrong_count(self):
        assert not ag.is_basis_conjugation_set(self.standard(3)[:2])

    def test_mixed_ranks_rejected(self):
        with pytest.raises(RankMismatch):
            ag.is_basis_conjugation_set(self.standard(2)[:1] + self.standard(3)[:1])


class TestAttachedSymmetry:
    def standard(self, n):
        return [ag.conjugation(Element.generator(n, i)) for i in range(1, n + 1)]

    def test_standard_symmetry_attached(self):
        assert ag.is_attached_symmetry(ag.symmetry_standard(2), self.standard(2))

    def test_ia_conjugate_attached(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(2, 4)
            beta = random_ia(rng, n)
            theta = ag.compose(
                ag.invert(beta), ag.compose(ag.symmetry_standard(n), beta)
            )
            # conjugating by an IA automorphism is multiplication by its square
            assert theta == ag.compose(
                ag.symmetry_standard(n), ag.compose(beta, beta)
            )
            assert ag.is_attached_symmetry(theta, self.standard(n))

    def test_odd_offset_not_attached(self):
        gamma = Automorphism([elem("x1*[x1,x2]", 2), elem("x2", 2)])
        theta = ag.compose(ag.symmetry_standard(2), gamma)
        assert not ag.is_attached_symmetry(theta, self.standard(2))

    def test_representative_independence(self):
        # same conjugations coded by central-shifted witnesses give same answer
        n = 3
        taus = self.standard(n)
        shifted = [
            ag.conjugation(Element.generator(n, i) * Element.central(n, (1, 0, 1)))
            for i in range(1, n + 1)
        ]
        assert all(t == s for t, s in zip(taus, shifted))
        theta = ag.symmetry_standard(n)
        assert ag.is_attached_symmetry(theta, shifted)


class TestPredicateOracles:
    """The predicates read off the generator images, against routes that
    build automorphisms and matrices: comparison with the identity
    automorphism, the abelianized matrix, the square and the quotient by the
    basis-set symmetry."""

    def automorphisms(self, rng, n):
        shear = [[int(i == j) for j in range(n)] for i in range(n)]
        shear[n - 1][0] = 1
        swap = [[int(i == j) for j in range(n)] for i in range(n)]
        swap[0], swap[1] = swap[1], swap[0]
        last_offset = [[0] * pair_count(n) for _ in range(n)]
        last_offset[n - 1][pair_count(n) - 1] = 1
        cases = [
            Automorphism.identity(n),
            ag.symmetry_standard(n),
            ag.extremal_standard(n, n),
            ag.lift(IntMatrix(swap)),
            ag.lift(IntMatrix(shear)),
            ag.ia_from_offsets(n, last_offset),
            ag.compose(ag.symmetry_standard(n), ag.ia_from_offsets(n, last_offset)),
        ]
        for _ in range(4):
            cases += [random_automorphism(rng, n), random_ia(rng, n, 1),
                      ag.compose(ag.symmetry_standard(n), random_ia(rng, n))]
        return cases

    def test_identity_ia_and_symmetry_match_old_routes(self):
        rng = random.Random(14)
        for n in range(2, 7):
            identity, minus = Automorphism.identity(n), -IntMatrix.identity(n)
            for sigma in self.automorphisms(rng, n):
                assert sigma.is_identity() == (sigma == identity)
                assert ag.is_ia(sigma) == ag.abelianize(sigma).is_identity()
                square_is_identity = ag.compose(sigma, sigma) == identity
                kind = ag.classify_involution(sigma)
                assert (kind is InvolutionKind.NOT_INVOLUTION) == (not square_is_identity)
                assert (kind is InvolutionKind.SYMMETRY_MOD_IA) == (
                    square_is_identity and ag.abelianize(sigma) == minus)

    def thetas(self, rng, n, taus):
        base = conjugation_basis_symmetry(taus)
        beta = random_ia(rng, n)
        # an IA factor with a single odd offset, so not a square
        odd = [[0] * pair_count(n) for _ in range(n)]
        odd[rng.randrange(n)][rng.randrange(pair_count(n))] = 2 * rng.randint(-2, 2) + 1
        return {
            "attached": ag.compose(base, ag.compose(beta, beta)),
            "odd": ag.compose(base, ag.ia_from_offsets(n, odd)),
            "standard": ag.symmetry_standard(n),
            "not_symmetry": ag.compose(ag.extremal_standard(n, rng.randint(1, n)), beta),
            "random": random_automorphism(rng, n),
        }

    def test_attachment_matches_quotient(self):
        rng = random.Random(15)
        seen = set()
        for n in range(2, 7):
            for _ in range(8):
                taus = random_basis_set(rng, n)
                for kind, theta in self.thetas(rng, n, taus).items():
                    got = ag.is_attached_symmetry(theta, taus)
                    assert got == attached_by_quotient(theta, taus), (n, kind)
                    seen.add((kind, got))
        assert {("attached", True), ("odd", False), ("not_symmetry", False),
                ("standard", True), ("standard", False)} <= seen

    def test_attachment_errors(self):
        n = 3
        taus = [ag.conjugation(Element.generator(n, i)) for i in range(1, n + 1)]
        theta = ag.symmetry_standard(n)
        not_inner = Automorphism([elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)])
        index_two = ag.conjugation(Element(n, (2, 0, 0)))
        other_rank = ag.conjugation(Element.generator(2, 1))
        cases = [
            ([not_inner] + taus[1:], theta, NotInner),
            ([theta] + taus[1:], theta, NotIA),
            (taus[:2], theta, InvalidAutomorphism),
            ([], theta, InvalidAutomorphism),
            ([index_two] + taus[1:], theta, InvalidAutomorphism),
            (taus[:2] + [other_rank], theta, RankMismatch),
            (taus, ag.symmetry_standard(4), RankMismatch),
            (taus, ag.extremal_standard(2, 1), RankMismatch),
        ]
        for basis, theta, error in cases:
            with pytest.raises(error):
                ag.is_attached_symmetry(theta, basis)
            with pytest.raises(error):
                attached_by_quotient(theta, basis)


class TestCentreless:
    def test_witness_search(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 4)
            sigma = random_automorphism(rng, n)
            if sigma.is_identity():
                continue
            elementary = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            elementary[0][1] = 1
            probes = [ag.conjugation(Element.generator(n, i)) for i in range(1, n + 1)]
            probes += [
                ag.symmetry_standard(n),
                ag.extremal_standard(n, 1),
                ag.lift(IntMatrix(elementary)),
            ]
            assert any(
                ag.compose(sigma, probe) != ag.compose(probe, sigma) for probe in probes
            )
