"""Acceptance suite: every criterion at its stated scale, one line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import random
import time

from freenil2 import autgroup as ag
from freenil2 import iastruct as ia
from freenil2 import involutions as inv
from freenil2 import sampling, verify
from freenil2.nilcore import Element, GeneratorWord, mul_fold, reduce_word
from freenil2.zlinalg import IntMatrix

SEED = 20240817


def report(number, title, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{title}] {status}{' ' + extra if extra else ''}")
    assert passed, f"acceptance criterion {number} ({title}) failed"


def test_01_x_witness():
    x1, x2, x3 = inv.X_CONJUGATE_TRIPLE
    start = time.perf_counter()
    product = x1 * x2 * x3
    square = product * product
    elapsed = time.perf_counter() - start
    ok = (product == IntMatrix([[-1, 2], [2, -3]]) and square != IntMatrix.identity(2)
          and square == IntMatrix([[5, -8], [-8, 13]]))
    report(1, "x-witness", ok and elapsed < 0.001, f"({elapsed * 1e6:.0f}us)")


def test_02_y_witness():
    y1, y2, y3 = inv.Y_CONJUGATE_TRIPLE
    start = time.perf_counter()
    product = y1 * y2 * y3
    square = product * product
    elapsed = time.perf_counter() - start
    ok = (product == IntMatrix([[0, 1], [1, 2]]) and square != IntMatrix.identity(2)
          and square == IntMatrix([[1, 2], [2, 5]]))
    report(2, "y-witness", ok and elapsed < 0.001, f"({elapsed * 1e6:.0f}us)")


def test_03_rotation_and_sqrt():
    rotation = IntMatrix([[0, -1], [1, 0]])
    ok = rotation * rotation == -IntMatrix.identity(2)
    f = IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    h = inv.sqrt_of_involution(f)
    ok = ok and h * h == f
    report(3, "rotation-and-sqrt", ok)


def test_04_order_three_witness():
    f1, f2 = inv.order_three_product_pair(2)
    m = f1 * f2
    ok = (
        (m * m * m).is_identity()
        and not (m * m).is_identity()
        and not m.is_identity()
    )
    report(4, "order-three-witness", ok)


def test_05_symmetry_conjugation_inverts_ia():
    start = time.perf_counter()
    ok = True
    for rank in range(2, 6):
        result = verify.check_symmetry_inverts_ia(rank, 200, SEED)
        ok = ok and result.status == "pass"
    elapsed = time.perf_counter() - start
    report(5, "symmetry-inverts-ia", ok and elapsed < 5.0, f"({elapsed:.2f}s, 200/rank)")


def test_06_three_conjugates_forward():
    rng = random.Random(SEED)
    triples = 0
    ok = True
    for rank in range(2, 6):
        for _ in range(50):
            theta = sampling.random_symmetry_mod_ia(rng, rank)
            probe_rng = random.Random(rng.randrange(2**32))
            conjugators = [sampling.random_conjugator(probe_rng, rank) for _ in range(3)]
            found = inv.three_conjugates_probe(theta, conjugators)
            triples += 1
            ok = ok and found is None
    report(6, "three-conjugates-forward", ok and triples >= 200, f"({triples} triples)")


def test_07_canonical_forms():
    start = time.perf_counter()
    ok = True
    for rank in range(2, 6):
        result = verify.check_canonical_involution_form(rank, 500, SEED)
        ok = ok and result.status == "pass"
    elapsed = time.perf_counter() - start
    report(7, "canonical-involution-forms", ok and elapsed < 10.0,
           f"({elapsed:.2f}s, 500/rank)")


def test_08_word_oracle_equivalence():
    rng = random.Random(SEED)
    ok = True
    for _ in range(1000):
        rank = rng.randint(2, 4)
        letters = lambda: [
            (rng.randint(1, rank), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 12))
        ]
        w1 = GeneratorWord(rank, letters())
        w2 = GeneratorWord(rank, letters())
        g1, g2 = reduce_word(w1), reduce_word(w2)
        ok = ok and g1 == mul_fold(w1) and g2 == mul_fold(w2)
        concat = GeneratorWord(rank, w1.letters + w2.letters)
        ok = ok and reduce_word(concat) == g1 * g2
        reversed_inverse = GeneratorWord(
            rank, [(i, -s) for i, s in reversed(w1.letters)]
        )
        ok = ok and reduce_word(reversed_inverse) == g1.inverse()
        if not ok:
            break
    report(8, "word-oracle-equivalence", ok, "(1000 word pairs)")


def test_09_inner_witness_and_tau_homomorphism():
    ok = True
    for rank in (2, 3, 4):
        result = verify.check_inner_witness_solver(rank, 300, SEED)
        ok = ok and result.status == "pass"
        result = verify.check_conjugation_homomorphism(rank, 100, SEED)
        ok = ok and result.status == "pass"
    report(9, "inner-witness-solver", ok, "(300/rank vs exact oracle, 300 tau pairs)")


def test_10_extremal_classification():
    ok = True
    for rank in range(2, 6):
        result = verify.check_plus_minus_classification(rank, 300, SEED)
        ok = ok and result.status == "pass"
    report(10, "extremal-classification", ok, "(300/rank)")


def test_11_stabilizer_split():
    ok = True
    for rank in (3, 4, 5):
        result = verify.check_stabilizer_split(rank, 300, SEED)
        ok = ok and result.status == "pass"
    report(11, "stabilizer-split", ok, "(300/rank)")


def test_12_minus_inversion_criterion():
    # counts only what the shifting involution gets right: members of the
    # minus factor it inverts, offset members it fails to invert
    passing = 0
    failing_detected = 0
    ok = True
    for rank in (3, 4, 5):
        rng = random.Random(SEED + rank)
        psi = ia.shifting_involution(rank, 1, 2)
        phi = ag.extremal_standard(rank, 1)
        for _ in range(40):
            lam = sampling.random_minus_member(rng, rank, 1)
            ok = ok and ia.classify_wrt_extremal(lam, 1) in (ia.PMClass.MINUS, ia.PMClass.PLUS)
            passing += ia.inversion_criterion_check(psi, lam)
            bad = sampling.random_inverted_member_with_offset(rng, rank, 1)
            ok = ok and ia.inversion_criterion_check(phi, bad)
            failing_detected += not ia.inversion_criterion_check(psi, bad)
    ok = ok and passing == failing_detected == 120
    report(12, "minus-inversion-criterion", ok,
           f"({passing} inverted members, {failing_detected} offset members)")


def test_13_triplet_decoding():
    rng = random.Random(SEED)
    thetas = 0
    ok = True
    for rank in range(2, 6):
        taus = [ag.conjugation(Element.generator(rank, i)) for i in range(1, rank + 1)]
        theta0 = ag.symmetry_standard(rank)
        for _ in range(25):
            beta = sampling.random_ia(rng, rank)
            theta = ag.compose(theta0, ag.compose(beta, beta))
            thetas += 1
            for i in range(1, rank + 1):
                decoded = ia.decode_triplet(taus[i - 1], theta, taus)
                ok = ok and ag.apply(theta, decoded) == decoded.inverse()
                perturbations = 0
                while perturbations < 10:
                    other = Element(
                        rank, decoded.abelian,
                        [c + rng.randint(-2, 2) for c in decoded.comm],
                    )
                    if other == decoded:
                        continue
                    perturbations += 1
                    ok = ok and ag.apply(theta, other) != other.inverse()
            if not ok:
                break
    report(13, "triplet-decoding", ok and thetas >= 100, f"({thetas} symmetries)")


def test_14_ia_two_involution_factorization():
    ok = True
    for rank in range(2, 6):
        result = verify.check_ia_factorization(rank, 50, SEED)
        ok = ok and result.status == "pass"
    report(14, "ia-two-involution-factorization", ok, "(200 trials)")
