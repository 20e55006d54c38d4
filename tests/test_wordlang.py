import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenil2.autgroup import Automorphism, abelianize, is_ia
from freenil2.errors import IndexOutOfRank, InvalidAutomorphism, ParseError
from freenil2.nilcore import MAX_RANK, Element, pair_count
from freenil2.wordlang import (
    format_automorphism,
    format_element,
    parse_automorphism,
    parse_basis_set,
    parse_element,
    parse_matrix,
)
from freenil2.zlinalg import IntMatrix


class TestParseElement:
    def test_one(self):
        assert parse_element("1", 2).is_identity()

    def test_left_to_right_product(self):
        assert parse_element("x2*x1", 2) == Element(2, (1, 1), (-1,))

    def test_commutator_antisymmetry(self):
        assert parse_element("[x2,x1]^3", 2) == Element.central(2, (-3,))
        assert parse_element("[x1,x2]^-1", 3) == Element.central(3, (-1, 0, 0))

    def test_degenerate_commutator(self):
        assert parse_element("[x1,x1]^5", 2).is_identity()

    def test_whitespace(self):
        assert parse_element("  x1 ^ 2 * [ x1 , x2 ] ^ -1 ", 2) == Element(2, (2, 0), (-1,))

    def test_zero_exponent(self):
        assert parse_element("x1^0", 2).is_identity()

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_element("x1*", 2)
        assert err.value.position is not None
        with pytest.raises(ParseError):
            parse_element("", 2)
        with pytest.raises(ParseError):
            parse_element("x0", 2)
        with pytest.raises(ParseError):
            parse_element("y1", 2)
        with pytest.raises(ParseError):
            parse_element("1*x1", 2)
        with pytest.raises(ParseError):
            parse_element("[x1 x2]", 2)
        # ASCII digits only: not superscripts, nor other scripts' digits
        for text, position in (("x1^\u00b2", 3), ("x\u00b2", 1), ("x1^\u0661", 3)):
            with pytest.raises(ParseError) as err:
                parse_element(text, 2)
            assert err.value.position == position, text

    def test_index_out_of_rank(self):
        with pytest.raises(IndexOutOfRank):
            parse_element("x3", 2)
        with pytest.raises(IndexOutOfRank):
            parse_element("[x1,x4]", 3)

    def test_rank_precondition(self):
        with pytest.raises(ValueError):
            parse_element("x1", 1)

    @given(st.binary(max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_never_panics_on_bytes(self, data):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return
        try:
            parse_element(text, 3)
        except (ParseError, IndexOutOfRank):
            pass


class TestFormatElement:
    def test_examples(self):
        assert format_element(Element.identity(2)) == "1"
        assert format_element(Element(3, (2, 0, -1), (3, 0, 0))) == "x1^2*x3^-1*[x1,x2]^3"
        assert format_element(Element.central(2, (-1,))) == "[x1,x2]^-1"

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, data):
        rank = data.draw(st.integers(2, 4))
        coord = st.integers(min_value=-9, max_value=9)
        g = Element(
            rank,
            data.draw(st.tuples(*[coord] * rank)),
            data.draw(st.tuples(*[coord] * pair_count(rank))),
        )
        text = format_element(g)
        assert parse_element(text, rank) == g
        assert format_element(parse_element(text, rank)) == text


class TestParseAutomorphism:
    def test_identity(self):
        sigma = parse_automorphism({"rank": 2, "images": ["x1", "x2"]})
        assert sigma.is_identity()

    def test_standard_symmetry(self):
        sigma = parse_automorphism('{"rank": 2, "images": ["x1^-1", "x2^-1"]}')
        assert abelianize(sigma) == -IntMatrix.identity(2)

    def test_invalid_determinant(self):
        with pytest.raises(InvalidAutomorphism):
            parse_automorphism({"rank": 2, "images": ["x1", "x1"]})

    def test_ia_document(self):
        sigma = parse_automorphism({"rank": 3, "images": ["x1*[x2,x3]", "x2", "x3"]})
        assert is_ia(sigma)

    def test_document_errors(self):
        with pytest.raises(ParseError, match=r"invalid JSON: Expecting value \(at position 0\)"):
            parse_automorphism("not json")
        with pytest.raises(ParseError):
            parse_automorphism({"rank": 2})
        with pytest.raises(ParseError):
            parse_automorphism({"rank": 2, "images": ["x1"]})
        with pytest.raises(ParseError):
            parse_automorphism({"rank": 1, "images": ["x1"]})
        with pytest.raises(ParseError):
            parse_automorphism([1, 2])

    def test_roundtrip_document(self):
        sigma = parse_automorphism({"rank": 2, "images": ["x1*x2^2*[x1,x2]^-3", "x2"]})
        doc = format_automorphism(sigma)
        again = parse_automorphism(json.dumps(doc))
        assert again == sigma


class TestParseMatrix:
    def test_plain_rows(self):
        m = parse_matrix("[[1, 2], [3, 4]]")
        assert m == IntMatrix([[1, 2], [3, 4]])

    def test_decimal_strings_for_large_entries(self):
        big = 10**30
        m = parse_matrix(f'[["{big}", 1], [0, "-{big}"]]')
        assert m.rows[0][0] == big and m.rows[1][1] == -big

    def test_rejects_non_rows(self):
        with pytest.raises(ValueError):
            parse_matrix('{"rows": []}')
        with pytest.raises(ValueError):
            parse_matrix("[[1, 2], [3]]")

    @pytest.mark.parametrize("entry", [" 0 ", "0 ", "1_0", "-\u0661", "\u0661", "\u00b9",
                                       "", "-", "+-1", "0x1", "1e3", "1\n"])
    def test_decimal_strings_are_ascii_digits_with_an_optional_sign(self, entry):
        # int() accepts whitespace, underscores and other scripts' digits;
        # the grammar's integers do not
        with pytest.raises(ParseError, match="decimal strings"):
            parse_matrix(json.dumps([["1", "0"], ["0", entry]]))

    def test_signed_decimal_strings(self):
        assert parse_matrix('[["+1", "0"], ["0", "-1"]]') == IntMatrix([[1, 0], [0, -1]])

    def test_rank_bounded_by_max_rank(self):
        assert parse_matrix([[-1]]) == IntMatrix([[-1]])
        assert parse_matrix(IntMatrix.identity(MAX_RANK).to_lists()).n == MAX_RANK
        # the bound comes before any row is read: these rows are not even square
        with pytest.raises(ParseError, match=f"at most {MAX_RANK} rows"):
            parse_matrix([[1]] * (MAX_RANK + 1))

    def test_json_errors(self):
        with pytest.raises(ParseError, match=r"invalid JSON: .* \(at position 13\)"):
            parse_matrix("[[1,0],[0,-1]")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_matrix("[" * 100_000)


class TestParseBasisSet:
    def test_documents(self):
        taus = parse_basis_set('[{"rank": 2, "images": ["x1", "x2*[x1,x2]"]},'
                               ' {"rank": 2, "images": ["x1*[x1,x2]^-1", "x2"]}]')
        assert [format_automorphism(t)["images"] for t in taus] == [
            ["x1", "x2*[x1,x2]"], ["x1*[x1,x2]^-1", "x2"]]

    def test_errors(self):
        with pytest.raises(ParseError, match="JSON array of automorphisms"):
            parse_basis_set('{"rank": 2, "images": ["x1", "x2"]}')
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_basis_set("[{")
        with pytest.raises(ParseError, match="'rank' and 'images'"):
            parse_basis_set("[{}]")
