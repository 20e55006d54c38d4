import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freenil2.autgroup import Automorphism, abelianize, is_ia
from freenil2.errors import IndexOutOfRank, InvalidAutomorphism, ParseError
from freenil2.nilcore import Element, pair_count
from freenil2.wordlang import (
    format_automorphism,
    format_element,
    parse_automorphism,
    parse_element,
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
        with pytest.raises(ParseError):
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
