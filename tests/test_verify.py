import hashlib
import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import freenil2
from freenil2 import autgroup, cli, iastruct, involutions, verify
from freenil2.errors import CanonicalizationPostconditionFailed
from freenil2.nilcore import Element, mul_fold, pair_count
from freenil2.sampling import random_minus_member, random_symmetry_mod_ia
from freenil2.verify import CheckResult, VerificationReport
from freenil2.wordlang import format_automorphism
from freenil2.zlinalg import IntMatrix


def test_every_check_passes_smoke():
    for name, fn in verify.CHECKS.items():
        result = fn(2, 3, 0)
        assert result.status == "pass", (name, result.counterexample)
        assert result.name == name


@pytest.mark.parametrize("rank", [12, 16])
def test_every_check_passes_past_the_suite_cap(rank):
    # run_suite stops at rank 8; the checks themselves run at any rank
    for name, check in verify.CHECKS.items():
        result = check(rank, 1, 0)
        assert result.status == "pass", (name, result.counterexample)


def test_run_suite_shapes_report():
    report = verify.run_suite(2, 3, 1, 0)
    names = [c.name for c in report.checks]
    assert len(names) == 2 * len(verify.CHECKS)
    assert all("[rank=" in n for n in names)
    assert report.all_passed()


def test_run_suite_validates_ranks():
    with pytest.raises(ValueError):
        verify.run_suite(1, 3, 1, 0)
    with pytest.raises(ValueError):
        verify.run_suite(3, 2, 1, 0)
    with pytest.raises(ValueError):
        verify.run_suite(2, 9, 1, 0)


@pytest.mark.parametrize("trials", [0, -5])
def test_checks_reject_fewer_than_one_trial(trials):
    # every check, the single-construction order_three_product included
    for name, check in verify.CHECKS.items():
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check(3, trials, 0)


def test_seed_changes_report():
    a = verify.run_suite(2, 2, 2, 0).to_json()
    b = verify.run_suite(2, 2, 2, 1).to_json()
    # statuses agree (all pass) but the reports are independently derived;
    # determinism is pinned by the golden-file test in test_cli
    assert a["seed"] != b["seed"]


def test_failing_check_gives_exit_one(monkeypatch, capsys):
    failing = VerificationReport(
        suite_version="1", rank_min=2, rank_max=2, trials=1, seed=0,
        checks=(CheckResult("group_axioms[rank=2]", "fail", 1, {"g": "x1"}),),
    )
    monkeypatch.setattr(verify, "run_suite", lambda **kw: failing)
    code = cli.main(["verify", "--rank-min", "2", "--rank-max", "2", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    assert "counterexample" in out


def test_trial_rng_is_stable():
    a = verify._trial_rng(0, "group_axioms", 2, 0).getrandbits(64)
    b = verify._trial_rng(0, "group_axioms", 2, 0).getrandbits(64)
    c = verify._trial_rng(0, "group_axioms", 2, 1).getrandbits(64)
    assert a == b
    assert a != c
    # pins the seed derivation: the golden report holds only statuses and
    # trial counts, so a change of hash would show nowhere else
    assert a == 10089006665928787417
    assert verify._trial_rng(7, "three_conjugates", 2, 1).getrandbits(64) == 12891605410170828498
    assert verify._trial_rng(0, "inner_witness_solver", 5, 199).getrandbits(64) == 2953538574079184576


def test_sha256_binding_matches_hashlib():
    for seed, name, rank, trial in itertools.product(
            (0, 1, 7, -3, 2**70), sorted(verify.CHECKS), range(2, 9), (0, 1, 199)):
        data = f"{seed}|{name}|{rank}|{trial}".encode()
        assert verify.sha256(data).digest() == hashlib.sha256(data).digest()


@pytest.mark.skipif(all(importlib.util.find_spec(m) is None for m in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module: verify falls back to hashlib")
def test_verify_path_loads_no_openssl():
    # a fresh interpreter, so nothing the test process imported can hide a load
    src = Path(freenil2.__file__).resolve().parents[1]
    program = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from freenil2 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--rank-max', '2', '--trials', '1'])\n"
        "print(code, sorted({'hashlib', '_hashlib', '_ssl'} & set(sys.modules)))\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", program],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0 []"


@pytest.mark.parametrize("rank, trials", [(2, 2.5), (2.0, 2)])
def test_checks_reject_non_integer_rank_or_trials(rank, trials):
    # a usage error, not a failed verification
    for check in verify.CHECKS.values():
        with pytest.raises(TypeError):
            check(rank, trials, 0)


@pytest.mark.parametrize("rank_min, rank_max, trials", [(2, 2, 1.5), (2.0, 2, 1), (2, 2.0, 1)])
def test_run_suite_rejects_non_integer_rank_or_trials(rank_min, rank_max, trials):
    with pytest.raises(TypeError):
        verify.run_suite(rank_min, rank_max, trials, 0)


def test_failure_reports_trials_started(monkeypatch):
    # mul_fold disagrees with reduce_word on words of more than 8 letters; at
    # seed 0 and rank 2 the first such word is drawn at trial index 3
    def long_words_off(word):
        g = mul_fold(word)
        return g * Element.generator(word.rank, 1) if len(word.letters) > 8 else g

    monkeypatch.setattr(verify, "mul_fold", long_words_off)
    assert verify.check_word_oracle(2, 10, 0) == CheckResult("word_oracle", "fail", 4, {
        "letters": [(2, 1), (1, -1), (1, -1), (2, -1), (1, -1), (1, -1), (2, -1), (2, 1),
                    (1, -1), (1, 1), (1, 1), (2, 1)]})


def raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


@pytest.mark.parametrize("module, attr, exc, check, expected", [
    (involutions, "canonicalize_involution", CanonicalizationPostconditionFailed("forced"),
     "canonical_involution_form",
     {"exception": "CanonicalizationPostconditionFailed", "message": "forced"}),
    (autgroup, "inner_witness", KeyError("forced"), "inner_witness_solver",
     {"exception": "KeyError", "message": "'forced'"}),
], ids=["library_error", "key_error"])
def test_raising_check_fails_with_exception(monkeypatch, capsys, module, attr, exc, check,
                                            expected):
    monkeypatch.setattr(module, attr, raising(exc))
    assert verify.CHECKS[check](2, 3, 0) == CheckResult(check, "fail", 1, expected)
    code = cli.main(["verify", "--rank-min", "2", "--rank-max", "2", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    assert f"counterexample: {json.dumps(expected, sort_keys=True)}" in out


def off_by_one_central(fn):
    """fn with the first central exponent of its result's first image raised
    by one: still an automorphism, but a wrong one."""
    def wrapped(*args):
        out = fn(*args)
        first = out.images[0]
        shifted = Element(first.rank, first.abelian, (first.comm[0] + 1,) + first.comm[1:])
        return autgroup.Automorphism((shifted,) + out.images[1:])
    return wrapped


@pytest.mark.parametrize("attr, law", [("compose", "compose_vs_apply"),
                                       ("invert", "invert_vs_apply")])
def test_symmetry_check_compares_closed_forms_with_apply(monkeypatch, attr, law):
    # compose(theta, alpha) and invert take the diagonal-sign closed forms
    # there; apply is their oracle, and each law names its own counterexample
    monkeypatch.setattr(autgroup, attr, off_by_one_central(getattr(autgroup, attr)))
    for rank in (2, 4):
        result = verify.CHECKS["symmetry_inverts_ia"](rank, 3, 0)
        assert (result.status, result.trials) == ("fail", 1)
        assert result.counterexample["law"] == law


def test_extremal_law_sees_wedge_sign_fault(monkeypatch):
    # with d_p * d_q forced to 1, every closed form is still right for theta
    # (all signs -1) and alpha (all +1); only the extremal eta sees the fault
    monkeypatch.setattr(autgroup, "_wedge_signs", lambda signs: [1] * pair_count(len(signs)))
    for rank in (2, 3, 4, 5):
        result = verify.CHECKS["symmetry_inverts_ia"](rank, 6, 0)
        assert (result.status, result.trials) == ("fail", 1)
        assert result.counterexample["law"] == "extremal_compose_vs_apply"


def wrong_on_mixed_signs(fn):
    """fn, off by one central exponent only where its first argument does not
    abelianize to I or -I."""
    wrong = off_by_one_central(fn)

    def wrapped(sigma, *rest):
        m, one = autgroup.abelianize(sigma), IntMatrix.identity(sigma.rank)
        return (fn if m in (one, -one) else wrong)(sigma, *rest)
    return wrapped


@pytest.mark.parametrize("attr, law", [("compose", "extremal_compose_vs_apply"),
                                       ("invert", "extremal_invert_vs_apply")])
def test_symmetry_check_compares_mixed_sign_closed_forms_with_apply(monkeypatch, attr, law):
    monkeypatch.setattr(autgroup, attr, wrong_on_mixed_signs(getattr(autgroup, attr)))
    for rank in (2, 4):
        result = verify.CHECKS["symmetry_inverts_ia"](rank, 3, 0)
        assert (result.status, result.trials) == ("fail", 1)
        assert result.counterexample["law"] == law


def test_three_conjugates_failure_is_reported_exactly(monkeypatch):
    # pinned data only: the check formats what the probe returns
    conjugates = (autgroup.symmetry_standard(2), autgroup.extremal_standard(2, 1),
                  autgroup.extremal_standard(2, 2))
    product = autgroup.compose(autgroup.compose(*conjugates[:2]), conjugates[2])
    # the probe finds nothing at trial index 0 and the pinned pair at index 1
    finds = iter([None, (conjugates, product)])
    monkeypatch.setattr(involutions, "three_conjugates_probe",
                        lambda sigma, conjugators: next(finds))
    theta = random_symmetry_mod_ia(verify._trial_rng(0, "three_conjugates", 2, 1), 2)
    assert verify.CHECKS["three_conjugates"](2, 5, 0) == CheckResult(
        "three_conjugates", "fail", 2, {
            "theta": format_automorphism(theta),
            "counterexample": {
                "conjugates": [{"rank": 2, "images": ["x1^-1", "x2^-1"]},
                               {"rank": 2, "images": ["x1^-1", "x2"]},
                               {"rank": 2, "images": ["x1", "x2^-1"]}],
                "product": {"rank": 2, "images": ["x1", "x2"]},
            }})


def test_inversion_criterion_failure_is_reported_exactly(monkeypatch):
    # at rank 3 each trial asks the predicate three times; the fake answers
    # wrongly from the seventh call on, the first of the third trial, which
    # asks whether the shifting involution inverts the drawn minus member
    real, calls = iastruct.inversion_criterion_check, itertools.count()

    def wrong_from_the_third_trial(psi, alpha):
        answer = real(psi, alpha)
        return not answer if next(calls) >= 6 else answer

    monkeypatch.setattr(iastruct, "inversion_criterion_check", wrong_from_the_third_trial)
    rng = verify._trial_rng(0, "minus_inversion_criterion", 3, 2)
    i = rng.randint(1, 3)
    j = rng.choice([k for k in range(1, 4) if k != i])
    member = format_automorphism(random_minus_member(rng, 3, i))
    assert verify.CHECKS["minus_inversion_criterion"](3, 10, 0) == CheckResult(
        "minus_inversion_criterion", "fail", 3, {"i": i, "j": j, "member": member})
