"""Parser and printer for group-word text and automorphism JSON documents.

Element grammar (whitespace between tokens is ignored):

    element := "1" | term ("*" term)*
    term    := gen power? | "[" gen "," gen "]" power?
    power   := "^" signed-integer
    gen     := "x" positive-integer

Commutator literals [xi, xj] with i > j are accepted and normalized through
antisymmetry.  The parsed element is the normal form of the denoted product,
terms multiplied left to right.

Automorphism documents are JSON objects {"rank": n, "images": [...]} with one
element string per generator, and basis sets are JSON arrays of them.  Ranks,
given here or to ``parse_element``, must lie in 2..``nilcore.MAX_RANK``.
Matrix documents are JSON arrays of 1..``MAX_RANK`` rows of integers or
decimal strings (ASCII digits with an optional sign, as in the grammar).
Every JSON document is decoded here, by ``_json_document``.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal

from .errors import IndexOutOfRank, ParseError
from .nilcore import MAX_RANK, Element, commutator, pair_list
from .zlinalg import IntMatrix


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, char: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def integer(self, signed: bool) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        # ASCII digits only: str.isdigit also accepts superscripts, which
        # int() rejects, and other scripts' digits, which int() reads
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_generator(scanner: _Scanner, rank: int) -> int:
    scanner.skip_ws()
    start = scanner.pos
    if scanner.peek() != "x":
        raise ParseError("expected a generator 'x<k>'", scanner.pos)
    scanner.pos += 1
    index = scanner.integer(signed=False)
    if index < 1:
        raise ParseError("generator index must be positive", start)
    if index > rank:
        raise IndexOutOfRank(f"generator x{index} outside rank {rank}")
    return index


def _parse_power(scanner: _Scanner) -> int:
    if scanner.peek() == "^":
        scanner.pos += 1
        return scanner.integer(signed=True)
    return 1


def _parse_term(scanner: _Scanner, rank: int) -> Element:
    ch = scanner.peek()
    if ch == "[":
        scanner.pos += 1
        i = _parse_generator(scanner, rank)
        scanner.expect(",")
        j = _parse_generator(scanner, rank)
        scanner.expect("]")
        exponent = _parse_power(scanner)
        base = commutator(Element.generator(rank, i), Element.generator(rank, j))
        return base ** exponent
    if ch == "x":
        i = _parse_generator(scanner, rank)
        exponent = _parse_power(scanner)
        return Element.generator(rank, i) ** exponent
    raise ParseError("expected a generator or a commutator '['", scanner.pos)


def parse_element(text: str, rank: int) -> Element:
    """Parse element text into its normal form."""
    if not 2 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 2 and {MAX_RANK}")
    scanner = _Scanner(text)
    if scanner.peek() == "1":
        scanner.pos += 1
        if not scanner.at_end():
            raise ParseError("unexpected input after '1'", scanner.pos)
        return Element.identity(rank)
    if scanner.peek() is None:
        raise ParseError("empty input", 0)
    result = _parse_term(scanner, rank)
    while not scanner.at_end():
        scanner.expect("*")
        result = result * _parse_term(scanner, rank)
    return result


def format_element(g: Element) -> str:
    """Canonical text: generators ascending, then commutators lexicographic,
    zero exponents omitted; the identity prints as "1".  Exponents print
    exactly at any length: str refuses ints past the interpreter's conversion
    limit (4,300 digits by default), which guards parsing, but a result of
    valid input may exceed it, and Decimal converts exactly."""
    parts = []
    for i, e in enumerate(g.abelian, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e != 0:
            parts.append(f"x{i}^{Decimal(e)}")
    for (i, j), e in zip(pair_list(g.rank), g.comm):
        if e == 1:
            parts.append(f"[x{i},x{j}]")
        elif e != 0:
            parts.append(f"[x{i},x{j}]^{Decimal(e)}")
    return "*".join(parts) if parts else "1"


def _json_document(document):
    """Decode a JSON text; an object already parsed passes through."""
    if not isinstance(document, (str, bytes)):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except RecursionError as exc:
        raise ParseError("JSON document nested too deeply") from exc


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_matrix(document) -> IntMatrix:
    """Build a square matrix from a JSON array of rows (text or parsed).

    Entries are integers, or decimal strings for entries too large to write
    as JSON numbers comfortably.  More than ``MAX_RANK`` rows is a ParseError,
    raised before any row is converted.
    """
    rows = _json_document(document)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("expected a JSON array of rows")
    if len(rows) > MAX_RANK:
        raise ParseError(f"a matrix may have at most {MAX_RANK} rows")
    if not all(type(x) is int or (type(x) is str and _DECIMAL.fullmatch(x))
               for row in rows for x in row):
        raise ParseError("matrix entries must be integers or decimal strings "
                         "(ASCII digits with an optional sign)")
    return IntMatrix(rows)


def parse_automorphism(document):
    """Build an automorphism from a JSON document (text or parsed object).

    The document must be an object {"rank": n, "images": [n element strings]};
    validation of the images (abelianized determinant +-1) is inherited from
    the automorphism constructor.
    """
    from .autgroup import Automorphism

    document = _json_document(document)
    if not isinstance(document, dict):
        raise ParseError("automorphism document must be a JSON object")
    if "rank" not in document or "images" not in document:
        raise ParseError("automorphism document needs 'rank' and 'images'")
    rank = document["rank"]
    images = document["images"]
    if not isinstance(rank, int) or not 2 <= rank <= MAX_RANK:
        raise ParseError(f"'rank' must be an integer between 2 and {MAX_RANK}")
    if (not isinstance(images, list) or len(images) != rank
            or not all(isinstance(text, str) for text in images)):
        raise ParseError(f"'images' must list exactly {rank} element strings")
    return Automorphism([parse_element(text, rank) for text in images])


def parse_basis_set(document) -> list:
    """Build the automorphisms of a JSON array of automorphism documents."""
    documents = _json_document(document)
    if not isinstance(documents, list):
        raise ParseError("basis set document must be a JSON array of automorphisms")
    return [parse_automorphism(doc) for doc in documents]


def format_automorphism(sigma) -> dict:
    """Automorphism as a JSON-ready document, images in canonical text."""
    return {
        "rank": sigma.rank,
        "images": [format_element(img) for img in sigma.images],
    }
