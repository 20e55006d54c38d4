import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenil2 import verify, wordlang
from freenil2.cli import main
from freenil2.nilcore import MAX_RANK

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestElementCommands:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "--rank", "2", "x2", "x1")
        assert code == 0 and out.strip() == "x1*x2*[x1,x2]^-1"

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", "--rank", "2", "x1*x2")
        assert code == 0 and out.strip() == "x1^-1*x2^-1*[x1,x2]^-1"

    def test_comm_trivial(self, capsys):
        code, out, _ = run(capsys, "comm", "--rank", "2", "x1", "x1")
        assert code == 0 and out.strip() == "1"

    def test_eval_normalizes(self, capsys):
        code, out, _ = run(capsys, "eval", "--rank", "3", "x2*x1*[x3,x2]")
        assert code == 0 and out.strip() == "x1*x2*[x1,x2]^-1*[x2,x3]^-1"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--rank", "2", "x1*")
        assert code == 2 and "error" in err

    def test_rank_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--rank", "2", "x5")
        assert code == 2 and "x5" in err

    def test_results_past_the_int_conversion_limit_print_exactly(self, capsys):
        # the interpreter converts at most 4,300 digits by default; N*N has 8,000
        n = 10**4000 - 1
        square = f"{'9' * 3999}8{'0' * 3999}1"  # (10^4000 - 1)^2, in two halves below
        assert int(square[:4000]) * 10**4000 + int(square[4000:]) == n * n
        want = f"x1^{n}*x2^{n}*[x1,x2]^-{square}"
        for argv in (("eval", "--rank", "2", f"x2^{n}*x1^{n}"),
                     ("mul", "--rank", "2", f"x2^{n}", f"x1^{n}")):
            code, out, err = run(capsys, *argv)
            assert (code, out.strip(), err) == (0, want, "")

    def test_input_integer_past_the_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--rank", "2", "x1^" + "9" * 4400)
        assert code == 2 and out == "" and "limit" in err


class TestAutomorphismCommands:
    def theta(self):
        return json.dumps({"rank": 2, "images": ["x1^-1", "x2^-1"]})

    def test_apply(self, capsys):
        # the image of the normal form (1,1;0) is (-1,-1;0)
        code, out, _ = run(capsys, "apply", self.theta(), "x1*x2")
        assert code == 0 and out.strip() == "x1^-1*x2^-1"
        # while the word x2^-1 x1^-1 collects to (-1,-1;-1)
        code, out, _ = run(capsys, "eval", "--rank", "2", "x2^-1*x1^-1")
        assert code == 0 and out.strip() == "x1^-1*x2^-1*[x1,x2]^-1"

    def test_compose_and_invert(self, capsys):
        shear = json.dumps({"rank": 2, "images": ["x1*x2", "x2"]})
        code, out, _ = run(capsys, "invert-aut", shear)
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run(capsys, "compose", shear, json.dumps(doc))
        assert code == 0
        assert json.loads(out) == {"rank": 2, "images": ["x1", "x2"]}

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", self.theta())
        assert code == 0 and out.strip() == "SymmetryModIA"

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", self.theta())
        assert code == 0 and json.loads(out) == {"kind": "SymmetryModIA"}

    def test_canon(self, capsys):
        code, out, _ = run(capsys, "canon", "[[2,1],[-3,-2]]")
        assert code == 0 and "type (p, m, s) = (0, 0, 1)" in out

    def test_canon_json(self, capsys):
        code, out, _ = run(capsys, "canon", "--json", "[[-1,0],[2,1]]")
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == {"fixed": 1, "negated": 1, "swapped": 0}

    def test_is_inner_negative(self, capsys):
        alpha = json.dumps({"rank": 3, "images": ["x1*[x2,x3]", "x2", "x3"]})
        code, out, _ = run(capsys, "is-inner", alpha)
        assert code == 0 and out.strip() == "not inner"

    def test_is_inner_positive(self, capsys):
        alpha = json.dumps({"rank": 2, "images": ["x1", "x2*[x1,x2]"]})
        code, out, _ = run(capsys, "is-inner", "--json", alpha)
        assert code == 0
        doc = json.loads(out)
        assert doc["inner"] is True and doc["witness"] == "x1"

    def test_split_ia(self, capsys):
        alpha = json.dumps({"rank": 3, "images": ["x1", "x2*[x2,x3]*[x1,x2]", "x3"]})
        code, out, _ = run(capsys, "split-ia", "--generator", "1", alpha)
        assert code == 0
        doc = json.loads(out)
        assert doc["plus"]["images"] == ["x1", "x2*[x2,x3]", "x3"]
        assert doc["minus"]["images"] == ["x1", "x2*[x1,x2]", "x3"]

    def test_decode(self, capsys):
        tau = json.dumps({"rank": 2, "images": ["x1", "x2*[x1,x2]"]})
        tau2 = json.dumps({"rank": 2, "images": ["x1*[x1,x2]^-1", "x2"]})
        theta = self.theta()
        basis = f"[{tau}, {tau2}]"
        code, out, _ = run(capsys, "decode", "--tau", tau, "--theta", theta,
                           "--basis-set", basis)
        assert code == 0 and out.strip() == "x1"

    def test_invalid_document_exit_code(self, capsys):
        bad = json.dumps({"rank": 2, "images": ["x1", "x1"]})
        code, _, err = run(capsys, "classify", bad)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("images", [[1, 2], ["x1", None]])
    def test_non_string_images_exit_code(self, capsys, images):
        doc = json.dumps({"rank": 2, "images": images})
        code, _, err = run(capsys, "classify", doc)
        assert code == 2 and "element strings" in err

    def test_deep_nesting_exit_code(self, capsys):
        deep = "[" * 100_000
        for argv in (["classify", deep], ["canon", deep],
                     ["decode", "--tau", self.theta(), "--theta", self.theta(),
                      "--basis-set", deep]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "nested too deeply" in err

    # decimal strings are ASCII digits with an optional sign, as in the
    # element grammar: int() would read the last four
    @pytest.mark.parametrize("matrix", ["[[{}]]", "[[null]]", "[[1.5]]", "[[true, 0], [0, 1]]",
                                        '[["1", " 0 "], ["0", "-\u0661"]]', '[["1_0"]]',
                                        '[["\u00b9"]]', '[["1", "0"], ["0", " -1"]]'])
    def test_non_integer_matrix_entry_exit_code(self, capsys, matrix):
        code, out, err = run(capsys, "canon", matrix)
        assert code == 2 and out == "" and err.startswith("error: matrix entries must be")

    def test_matrix_rank_bounded_by_max_rank(self, capsys):
        code, out, _ = run(capsys, "canon", "[[-1]]")
        assert code == 0 and "type (p, m, s) = (0, 1, 0)" in out
        identity = [[int(i == j) for j in range(60)] for i in range(60)]
        code, out, err = run(capsys, "canon", json.dumps(identity))
        assert code == 2 and out == "" and f"at most {MAX_RANK} rows" in err

    def test_invalid_json_message_is_shared(self, capsys):
        # every JSON document is decoded by one loader, with one message
        for argv in (["classify", "[1,"], ["canon", "[1,"],
                     ["decode", "--tau", self.theta(), "--theta", self.theta(),
                      "--basis-set", "[1,"]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, "error: invalid JSON: Expecting value (at position 3)\n")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(self.theta())
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and out.strip() == "SymmetryModIA"


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank-min", "2", "--rank-max", "2",
                           "--trials", "2", "--seed", "7")
        assert code == 0
        assert "result: PASS" in out

    def test_json_matches_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank-min", "2", "--rank-max", "2",
                           "--trials", "2", "--seed", "7", "--json")
        assert code == 0
        golden = json.loads((DATA / "golden_verify_r2_t2_s7.json").read_text())
        assert json.loads(out) == golden

    def test_deterministic_rerun(self, capsys):
        _, first, _ = run(capsys, "verify", "--rank-min", "2", "--rank-max", "3",
                          "--trials", "1", "--seed", "5", "--json")
        _, second, _ = run(capsys, "verify", "--rank-min", "2", "--rank-max", "3",
                           "--trials", "1", "--seed", "5", "--json")
        assert first == second

    def test_rank_8_smoke(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank-min", "8", "--rank-max", "8",
                           "--trials", "1")
        assert code == 0 and "result: PASS" in out

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "verify", "--rank-min", "9", "--rank-max", "9")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_vacuous_pass(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--rank-max", "2", "--trials", trials)
        assert code == 2 and "trials" in err and "PASS" not in out

    def test_report_schema(self, capsys):
        _, out, _ = run(capsys, "verify", "--rank-min", "2", "--rank-max", "2",
                        "--trials", "1", "--seed", "0", "--json")
        doc = json.loads(out)
        assert set(doc) == {"suite_version", "rank_min", "rank_max", "trials",
                            "seed", "all_passed", "checks"}
        for check in doc["checks"]:
            assert set(check) == {"name", "status", "trials", "counterexample"}
            assert check["status"] in {"pass", "fail", "skipped"}


class TestRankCap:
    HUGE = str(10**9)

    @pytest.mark.parametrize("argv", [
        ("eval", "--rank", HUGE, "x1"),
        ("mul", "--rank", HUGE, "x1", "x2"),
        ("inv", "--rank", HUGE, "x1"),
        ("comm", "--rank", HUGE, "x1", "x2"),
        ("verify", "--rank-max", HUGE, "--json"),
    ])
    def test_huge_rank_exits_2_without_allocating(self, capsys, monkeypatch, argv):
        # were the cap ever skipped, fail at once rather than build rank-sized data
        monkeypatch.setattr(wordlang, "Element", None)
        monkeypatch.setattr(verify, "CHECKS", {})
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and "rank" in err
        assert peak < 1 << 20

    def test_cap_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "eval", "--rank", str(MAX_RANK), f"x{MAX_RANK}")
        assert code == 0 and out.strip() == f"x{MAX_RANK}"
        code, _, err = run(capsys, "eval", "--rank", str(MAX_RANK + 1), "x1")
        assert code == 2 and str(MAX_RANK) in err

    def test_document_rank_over_cap(self, capsys):
        n = MAX_RANK + 1
        doc = json.dumps({"rank": n, "images": [f"x{i}" for i in range(1, n + 1)]})
        code, _, err = run(capsys, "classify", doc)
        assert code == 2 and "'rank'" in err


def test_usage_without_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
)
element_texts = st.sampled_from(["1", "x1", "x2^-1", "x1*x2", "[x1,x2]^3", "x3"]) | st.text(max_size=12)
# Inline documents only: a text that does not start with '{' or '[' is read as a path.
documents = st.one_of(
    st.integers(2, 3).flatmap(lambda n: st.fixed_dictionaries({
        "rank": st.just(n),
        "images": st.lists(element_texts | json_values, min_size=n, max_size=n),
    })),
    st.fixed_dictionaries({
        "rank": st.integers(1, 4) | json_values,
        "images": st.lists(element_texts | json_values, max_size=4) | json_values,
    }),
    st.lists(json_values, max_size=4),
    st.dictionaries(st.text(max_size=8), json_values, max_size=4),
).map(json.dumps)


def exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=150, deadline=None)
@given(documents, element_texts)
def test_fuzz_documents_exit_0_or_2(document, element):
    assert exit_code("classify", "--", document) in (0, 2)
    assert exit_code("apply", "--", document, element) in (0, 2)


@settings(max_examples=150, deadline=None)
@given(element_texts)
def test_fuzz_element_text_exit_0_or_2(text):
    assert exit_code("eval", "--rank", "3", "--", text) in (0, 2)
