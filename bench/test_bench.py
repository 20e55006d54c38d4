"""The benchmark's own tests: its checks pass on real outputs and catch
corrupted ones, and tracing rebinds every copy of a wrapped function.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from freenil2 import autgroup, involutions, zlinalg  # noqa: E402
from freenil2.nilcore import Element, reduce_word, GeneratorWord  # noqa: E402


def _apply_case(seed=3, n=5):
    rng = random.Random(seed)
    spec = oracles.random_automorphism(rng, n, length=12, coef=2, cbound=3)
    g = oracles.random_element(rng, n, abound=4, cbound=4)
    sigma = autgroup.Automorphism([Element(n, a, c) for a, c in spec["images"]])
    out = autgroup.apply(sigma, Element(n, *g))
    return spec, g, (out.abelian, out.comm), sigma


def test_oracle_product_matches_word_rewriting():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 5)
        letters = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
        acc = oracles.c2_identity(n)
        for i, s in letters:
            acc = oracles.c2_mul(acc, oracles.c2_pow(oracles.c2_generator(n, i - 1), s))
        want = reduce_word(GeneratorWord(n, letters))
        assert acc == (want.abelian, want.comm)


def test_oracle_determinant_and_word_inverse():
    rng = random.Random(1)
    for n in (2, 5, 8):
        w, w_inv = oracles.unimodular_word(rng, n, 30, 3)
        assert oracles.matmul(w, w_inv) == oracles.identity(n)
        assert abs(oracles.det(w)) == 1
    assert oracles.det([[2, 1], [4, 3]]) == 2


def test_apply_check_catches_a_commutator_coordinate():
    spec, g, got, _ = _apply_case()
    assert workloads.check_apply(spec["images"], g, got) == []
    comm = list(got[1])
    comm[2] += 1
    assert workloads.check_apply(spec["images"], g, (got[0], tuple(comm)))


def test_invert_check_catches_a_matrix_entry():
    spec, _, _, sigma = _apply_case(seed=4, n=6)
    images = [(img.abelian, img.comm) for img in autgroup.invert(sigma).images]
    assert workloads.check_invert(spec, images) == []
    a, c = images[1]
    images[1] = ((a[0] + 1,) + a[1:], c)
    assert workloads.check_invert(spec, images)


def test_compose_check_catches_a_commutator_coordinate():
    rng = random.Random(5)
    specs = [oracles.random_automorphism(rng, 4, length=10, coef=2, cbound=2) for _ in range(2)]
    sigma, rho = (autgroup.Automorphism([Element(4, a, c) for a, c in s["images"]])
                  for s in specs)
    images = [(img.abelian, img.comm) for img in autgroup.compose(sigma, rho).images]
    assert workloads.check_compose(specs[0], specs[1], images) == []
    a, c = images[3]
    images[3] = (a, (c[0] - 1,) + c[1:])
    assert workloads.check_compose(specs[0], specs[1], images)


def _lattice_case(swaps: bool):
    rng = random.Random(6)
    spec = oracles.random_involution(rng, 6, length=30, coef=3, swaps=swaps,
                                     entry_digits=(2, 5))
    f = zlinalg.IntMatrix(spec["f"])
    f_minus_i = zlinalg.IntMatrix([[x - (i == j) for j, x in enumerate(r)]
                                   for i, r in enumerate(spec["f"])])
    g = zlinalg.IntMatrix(spec["g"]) if "g" in spec else None
    out = (
        involutions.canonicalize_involution(f),
        zlinalg.smith_decompose(f_minus_i),
        zlinalg.kernel_summand_basis(f_minus_i),
        None if g is None else involutions.commuting_decomposition(f, g),
        None if g is None else involutions.sqrt_of_involution(f),
    )
    return spec, workloads.Lattice._plain(out)


def test_lattice_check_catches_a_block_type():
    spec, out = _lattice_case(swaps=True)
    assert workloads.check_lattice(spec, out) == []
    p, m, s = out["type"]
    for wrong in ((p + 1, m - 1, s) if m else (p - 1, m + 1, s), (p + 2, m, s - 1)):
        assert workloads.check_lattice(spec, dict(out, type=wrong))


def test_lattice_check_catches_a_matrix_entry():
    spec, out = _lattice_case(swaps=False)
    assert workloads.check_lattice(spec, out) == []
    rows = [list(r) for r in out["sqrt"]]
    rows[0][0] += 1
    assert workloads.check_lattice(spec, dict(out, sqrt=rows))
    u, d, v = out["smith"]
    d = [list(r) for r in d]
    d[0][0] += 1
    assert workloads.check_lattice(spec, dict(out, smith=(u, d, v)))


def test_verify_report_check_catches_changed_counts_and_status():
    suite = workloads.VerifySuite(seed=0)
    workloads.VERIFY_RANKS, saved = (2, 2), workloads.VERIFY_RANKS
    try:
        rc, text = suite._run(0)
        assert rc == 0
        report = json.loads(text)
        trials = workloads.VERIFY_TRIALS
        assert workloads.check_verify_report(rc, text, trials) == []
        assert workloads.check_verify_report(1, text, trials)
        changed = json.loads(text)
        changed["checks"][0]["trials"] += 1
        assert workloads.check_verify_report(rc, json.dumps(changed), trials)
        changed = json.loads(text)
        changed["checks"][5]["status"] = "fail"
        assert workloads.check_verify_report(rc, json.dumps(changed), trials)
        changed = json.loads(text)
        del changed["checks"][7]
        assert workloads.check_verify_report(rc, json.dumps(changed), trials)
        assert report["all_passed"] is True
    finally:
        workloads.VERIFY_RANKS = saved


def test_tracer_rebinds_names_imported_by_name():
    original = zlinalg.inverse_unimodular
    assert autgroup.inverse_unimodular is original
    tracer = Tracer()
    tracer.install()
    try:
        assert autgroup.inverse_unimodular is not original
        assert zlinalg.inverse_unimodular is autgroup.inverse_unimodular
        _, _, _, sigma = _apply_case()
        autgroup.invert(sigma)
    finally:
        tracer.uninstall()
    assert autgroup.inverse_unimodular is original
    assert zlinalg.inverse_unimodular is original
    assert tracer.stats["zlinalg.inverse_unimodular"][0] == 1
    assert tracer.stats["zlinalg.is_unimodular_matrix"][0] >= 3  # one per Automorphism
    assert tracer.stats["autgroup.invert"][0] == 1
    calls, total, self_s = tracer.stats["autgroup.invert"]
    assert 0 <= self_s < total
