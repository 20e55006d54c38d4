import random

import pytest

from freenil2 import autgroup as ag
from freenil2 import iastruct as ia
from freenil2.errors import (
    DoesNotFixGenerator,
    NoInvertedRepresentative,
    NotAttached,
    NotIA,
)
from freenil2.nilcore import Element, pair_count
from freenil2.sampling import random_automorphism, random_ia
from freenil2.wordlang import parse_element


def elem(text, rank):
    return parse_element(text, rank)


def standard_taus(n):
    return [ag.conjugation(Element.generator(n, i)) for i in range(1, n + 1)]


class TestClassifyWrtExtremal:
    def test_identity_reports_plus(self):
        assert ia.classify_wrt_extremal(ag.Automorphism.identity(3), 1) is ia.PMClass.PLUS

    def test_minus_example(self):
        alpha = ag.Automorphism([elem("x1", 2), elem("x2*[x1,x2]", 2)])
        assert ia.classify_wrt_extremal(alpha, 1) is ia.PMClass.MINUS
        phi = ag.extremal_standard(2, 1)
        assert ag.compose(phi, ag.compose(alpha, phi)) == ag.invert(alpha)

    def test_plus_example(self):
        alpha = ag.Automorphism(
            [elem("x1", 3), elem("x2*[x2,x3]", 3), elem("x3", 3)]
        )
        assert ia.classify_wrt_extremal(alpha, 1) is ia.PMClass.PLUS
        phi = ag.extremal_standard(3, 1)
        assert ag.compose(phi, ag.compose(alpha, phi)) == alpha

    def test_mixed_form_is_minus(self):
        # own offset avoiding the index, other offsets through it: inverted
        alpha = ag.Automorphism(
            [elem("x1*[x2,x3]", 3), elem("x2*[x1,x2]", 3), elem("x3", 3)]
        )
        assert ia.classify_wrt_extremal(alpha, 1) is ia.PMClass.MINUS
        phi = ag.extremal_standard(3, 1)
        assert ag.compose(phi, ag.compose(alpha, phi)) == ag.invert(alpha)

    def test_neither(self):
        # own offset through the index but another image also moved through it
        alpha = ag.Automorphism(
            [elem("x1*[x1,x2]", 2), elem("x2*[x1,x2]", 2)]
        )
        assert ia.classify_wrt_extremal(alpha, 1) is ia.PMClass.NEITHER
        phi = ag.extremal_standard(2, 1)
        conj = ag.compose(phi, ag.compose(alpha, phi))
        assert conj != alpha and conj != ag.invert(alpha)

    def test_matches_conjugation_oracle(self):
        rng = random.Random(1)
        for _ in range(120):
            n = rng.randint(2, 5)
            i = rng.randint(1, n)
            alpha = random_ia(rng, n, 1)
            phi = ag.extremal_standard(n, i)
            conj = ag.compose(phi, ag.compose(alpha, phi))
            got = ia.classify_wrt_extremal(alpha, i)
            if got is ia.PMClass.PLUS:
                assert conj == alpha
            elif got is ia.PMClass.MINUS:
                assert conj == ag.invert(alpha)
            else:
                assert conj != alpha and conj != ag.invert(alpha)

    def test_requires_ia(self):
        with pytest.raises(NotIA):
            ia.classify_wrt_extremal(ag.symmetry_standard(2), 1)


class TestIaTauContains:
    def test_identity(self):
        x = Element.generator(2, 1)
        assert ag.apply(ag.Automorphism.identity(2), x) == x

    def test_moved_generator(self):
        alpha = ag.Automorphism(
            [elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)]
        )
        assert ag.apply(alpha, Element.generator(3, 1)) != Element.generator(3, 1)

    def test_untouched_generator(self):
        alpha = ag.Automorphism([elem("x1", 2), elem("x2*[x1,x2]", 2)])
        assert ag.apply(alpha, Element.generator(2, 1)) == Element.generator(2, 1)

    def test_fixing_extends_to_coset(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 4)
            i = rng.randint(1, n)
            offsets = [
                [0] * pair_count(n) if k == i else
                [rng.randint(-2, 2) for _ in range(pair_count(n))]
                for k in range(1, n + 1)
            ]
            alpha = ag.ia_from_offsets(n, offsets)
            x = Element.generator(n, i)
            assert ag.apply(alpha, x) == x
            central = Element.central(n, [rng.randint(-2, 2) for _ in range(pair_count(n))])
            assert ag.apply(alpha, x * central) == x * central


class TestSplit:
    def test_identity(self):
        split = ia.stabilizer_split(ag.Automorphism.identity(2), 1)
        assert split.plus.is_identity() and split.minus.is_identity()

    def test_example(self):
        alpha = ag.Automorphism(
            [elem("x1", 3), elem("x2*[x2,x3]*[x1,x2]", 3), elem("x3", 3)]
        )
        split = ia.stabilizer_split(alpha, 1)
        assert split.plus == ag.Automorphism(
            [elem("x1", 3), elem("x2*[x2,x3]", 3), elem("x3", 3)]
        )
        assert split.minus == ag.Automorphism(
            [elem("x1", 3), elem("x2*[x1,x2]", 3), elem("x3", 3)]
        )

    def test_pure_minus(self):
        alpha = ag.Automorphism([elem("x1", 2), elem("x2*[x1,x2]^2", 2)])
        split = ia.stabilizer_split(alpha, 1)
        assert split.plus.is_identity()

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(2, 5)
            i = rng.randint(1, n)
            offsets = [
                [0] * pair_count(n) if k == i else
                [rng.randint(-3, 3) for _ in range(pair_count(n))]
                for k in range(1, n + 1)
            ]
            alpha = ag.ia_from_offsets(n, offsets)
            split = ia.stabilizer_split(alpha, i)
            assert ag.compose(split.plus, split.minus) == alpha
            assert ag.compose(split.minus, split.plus) == alpha
            again = ia.stabilizer_split(split.plus, i)
            assert again.plus == split.plus and again.minus.is_identity()
            again = ia.stabilizer_split(split.minus, i)
            assert again.minus == split.minus and again.plus.is_identity()

    def test_must_fix_generator(self):
        alpha = ag.Automorphism([elem("x1*[x1,x2]", 2), elem("x2", 2)])
        with pytest.raises(DoesNotFixGenerator):
            ia.stabilizer_split(alpha, 1)

    def test_requires_ia(self):
        with pytest.raises(NotIA):
            ia.stabilizer_split(ag.symmetry_standard(2), 1)


class TestShiftingInvolutionCriterion:
    def test_involution(self):
        psi = ia.shifting_involution(3, 1, 2)
        assert ag.compose(psi, psi).is_identity()
        assert ag.apply(psi, Element.generator(3, 1)) == elem("x1^-1", 3)
        assert ag.apply(psi, Element.generator(3, 2)) == elem("x1*x2", 3)

    def test_identity_member_passes(self):
        psi = ia.shifting_involution(2, 1, 2)
        lam = ag.Automorphism.identity(2)
        assert ag.compose(psi, ag.compose(lam, psi)) == ag.invert(lam)

    def test_minus_member_inverted(self):
        lam = ag.Automorphism([elem("x1", 2), elem("x2*[x1,x2]", 2)])
        psi = ia.shifting_involution(2, 1, 2)
        assert ag.compose(psi, ag.compose(lam, psi)) == ag.invert(lam)

    def test_nontrivial_offset_detected(self):
        # moves x1 by a central offset avoiding index 1: inverted by the
        # extremal involution but not by the shifting involution
        lam = ag.Automorphism(
            [elem("x1*[x2,x3]", 3), elem("x2", 3), elem("x3", 3)]
        )
        phi = ag.extremal_standard(3, 1)
        assert ag.compose(phi, ag.compose(lam, phi)) == ag.invert(lam)
        psi = ia.shifting_involution(3, 1, 2)
        assert ag.compose(psi, ag.compose(lam, psi)) != ag.invert(lam)

    def test_check_passes(self):
        for rank, i, j, trials, seed in ((2, 1, 2, 30, 7), (3, 1, 2, 30, 7), (4, 1, 2, 30, 7),
                                         (4, 3, 1, 20, 8)):
            rng = random.Random(seed)
            for _ in range(trials):
                assert ia.inversion_criterion_check(rank, i, j, rng) is None


class TestDecodeTriplet:
    def test_standard(self):
        taus = standard_taus(2)
        assert ia.decode_triplet(taus[0], ag.symmetry_standard(2), taus) == (
            Element.generator(2, 1)
        )

    def test_shifted_symmetry(self):
        taus = standard_taus(2)
        beta = ag.Automorphism([elem("x1*[x1,x2]", 2), elem("x2", 2)])
        theta = ag.compose(ag.symmetry_standard(2), ag.compose(beta, beta))
        decoded = ia.decode_triplet(taus[0], theta, taus)
        assert decoded == elem("x1*[x1,x2]^-1", 2)
        assert ag.apply(theta, decoded) == decoded.inverse()

    def test_no_inverted_representative(self):
        tau = ag.conjugation(Element(2, (1, 1)))
        taus = [tau, ag.conjugation(Element.generator(2, 2))]
        with pytest.raises(NoInvertedRepresentative):
            ia.decode_triplet(tau, ag.symmetry_standard(2), taus)

    def test_tau_must_belong(self):
        taus = standard_taus(2)
        stranger = ag.conjugation(Element(2, (1, 1)))
        with pytest.raises(NotAttached):
            ia.decode_triplet(stranger, ag.symmetry_standard(2), taus)

    def test_theta_must_be_symmetry_mod_ia(self):
        taus = standard_taus(2)
        with pytest.raises(NotAttached):
            ia.decode_triplet(taus[0], ag.extremal_standard(2, 1), taus)

    def test_uniqueness_in_coset(self):
        rng = random.Random(4)
        taus = standard_taus(3)
        for _ in range(20):
            beta = random_ia(rng, 3)
            theta = ag.compose(ag.symmetry_standard(3), ag.compose(beta, beta))
            i = rng.randint(1, 3)
            decoded = ia.decode_triplet(taus[i - 1], theta, taus)
            assert ag.apply(theta, decoded) == decoded.inverse()
            for _ in range(8):
                other = Element(
                    3, decoded.abelian,
                    [c + rng.randint(-2, 2) for c in decoded.comm],
                )
                if other == decoded:
                    continue
                assert ag.apply(theta, other) != other.inverse()


class TestCompletenessRoundTrip:
    """gamma is rebuilt from its action Phi(alpha) = gamma o alpha o gamma^-1
    on Aut N alone: Phi(tau_i) is conjugation by gamma(x_i), and the only
    element of its witness coset inverted by Phi(theta) is gamma(x_i)."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_decoded_images_rebuild_gamma(self, n):
        rng = random.Random(1000 + n)
        taus, theta = standard_taus(n), ag.symmetry_standard(n)
        for _ in range(40):
            gamma = random_automorphism(rng, n)
            gamma_inv = ag.invert(gamma)

            def phi(alpha):
                return ag.compose(ag.compose(gamma, alpha), gamma_inv)

            phi_taus = [phi(tau) for tau in taus]
            phi_theta = phi(theta)
            images = [ia.decode_triplet(t, phi_theta, phi_taus) for t in phi_taus]
            assert ag.Automorphism(images) == gamma


class TestTripletsEquivalent:
    """Two (tau, taus, theta) triplets are equivalent when they decode to the
    same element."""

    def test_identical(self):
        theta = ag.symmetry_standard(2)
        rebuilt = ag.Automorphism([elem("x1^-1", 2), elem("x2^-1", 2)])
        taus = standard_taus(2)
        assert ia.decode_triplet(taus[0], theta, taus) == (
            ia.decode_triplet(standard_taus(2)[0], rebuilt, standard_taus(2))
        )

    def test_different_square_differs(self):
        taus = standard_taus(2)
        theta0 = ag.symmetry_standard(2)
        beta = ag.Automorphism([elem("x1*[x1,x2]", 2), elem("x2", 2)])
        theta2 = ag.compose(theta0, ag.compose(beta, beta))
        assert ia.decode_triplet(taus[0], theta0, taus) != (
            ia.decode_triplet(taus[0], theta2, taus)
        )

    def test_basis_independence(self):
        # same tau and theta, different basis sets containing tau
        n = 2
        tau1 = ag.conjugation(Element.generator(n, 1))
        taus_a = standard_taus(n)
        taus_b = [tau1, ag.conjugation(Element(n, (1, 1)))]
        assert ag.is_basis_conjugation_set(taus_b)
        theta = ag.symmetry_standard(n)
        assert ia.decode_triplet(tau1, theta, taus_a) == ia.decode_triplet(tau1, theta, taus_b)
