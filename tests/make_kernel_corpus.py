"""Write the seeded corpora that pin the automorphism kernel and the lattice
layer to recorded outputs.

    PYTHONPATH=src python3 tests/make_kernel_corpus.py

The committed ``tests/data/kernel_corpus_r2_6_s4.json`` was written by this
script before ``compose`` became a closed form, when it applied sigma to
each image of rho.  ``TestKernelCorpus`` in ``test_autgroup.py`` replays
it, pinning today's kernel to those outputs.  ``tests/data/
lattice_corpus_r2_6_s4.json`` was written before ``LatticeBasis`` lost its
second elimination routine and ``plus_minus`` began to carry the defect;
``TestLatticeCorpus`` in ``test_involutions.py`` replays it.
``tests/data/ia_corpus_r2_6_s4.json`` was written while ``conjugation`` and
``ia_from_offsets`` still multiplied ``Element`` objects out; it pins them,
``inner_witness`` on inner and non-inner input, ``stabilizer_split`` and
``decode_triplet`` (the ``is-inner``, ``split-ia`` and ``decode`` commands),
and ``TestIACorpus`` in ``test_autgroup.py`` replays it.

Regenerating a corpus from the current code would only pin the code to
itself, so the script never overwrites a corpus file: it writes the missing
ones and leaves the others as they are.  Delete a file first to re-pin it on
purpose.
``tests/test_corpora.py`` rebuilds all three with the builders below and
compares them byte for byte with the committed files, which also pins the
samplers' draws.

Elements are stored as ``[abelian, comm]``; automorphisms as the list of
their generator images; matrices as lists of rows and lattice bases as lists
of vectors.  An operation that raises is stored as ``{"error": <class>}``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from freenil2 import autgroup, iastruct, involutions
from freenil2.errors import FreeNil2Error
from freenil2.nilcore import Element, pair_count
from freenil2.sampling import (
    random_automorphism,
    random_element,
    random_ia,
    random_ia_on_supports,
    random_involution_matrix,
    random_unimodular,
    random_unimodular_word,
)
from freenil2.zlinalg import IntMatrix, direct_complement, kernel_summand_basis

from autgroup_reference import conjugation_basis_symmetry

SEED = 4
RANKS = range(2, 7)
CASES = 6  # per operation and rank
DATA = Path(__file__).parent / "data"
KERNEL_PATH = DATA / "kernel_corpus_r2_6_s4.json"
LATTICE_PATH = DATA / "lattice_corpus_r2_6_s4.json"
IA_PATH = DATA / "ia_corpus_r2_6_s4.json"
WORD_LENGTHS = (4, 400)  # conjugator lengths; 400 letters give entries of up to ~17 digits


def _element(g: Element) -> list:
    return [list(g.abelian), list(g.comm)]


def _automorphism(sigma) -> list:
    return [_element(img) for img in sigma.images]


def _sigma(rng: random.Random, n: int):
    return autgroup.compose(random_automorphism(rng, n), random_ia(rng, n, bound=9))


def build_kernel() -> dict:
    rng = random.Random(SEED)
    corpus = {"seed": SEED, "apply": [], "compose": [], "invert": []}
    for n in RANKS:
        for _ in range(CASES):
            sigma = _sigma(rng, n)
            bound = rng.choice((9, 10**6))
            g = Element(n, [rng.randint(-bound, bound) for _ in range(n)],
                        [rng.randint(-bound, bound) for _ in range(pair_count(n))])
            corpus["apply"].append({"sigma": _automorphism(sigma), "g": _element(g),
                                    "out": _element(autgroup.apply(sigma, g))})
        for _ in range(CASES):
            sigma, rho = _sigma(rng, n), _sigma(rng, n)
            corpus["compose"].append({"sigma": _automorphism(sigma), "rho": _automorphism(rho),
                                      "out": _automorphism(autgroup.compose(sigma, rho))})
        for _ in range(CASES):
            sigma = _sigma(rng, n)
            corpus["invert"].append({"sigma": _automorphism(sigma),
                                     "out": _automorphism(autgroup.invert(sigma))})
    return corpus


def _vectors(basis) -> list:
    return [list(v) for v in basis.vectors]


def _outcome(encode, op, *args):
    try:
        return encode(op(*args))
    except FreeNil2Error as exc:
        return {"error": type(exc).__name__}


def _commuting_pair(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """Two diagonalizable involutions on one random eigenbasis."""
    w, w_inv = random_unimodular_word(rng, n, rng.choice(WORD_LENGTHS))
    signs = [IntMatrix([[rng.choice((1, -1)) if i == j else 0 for j in range(n)]
                        for i in range(n)]) for _ in range(2)]
    return w * signs[0] * w_inv, w * signs[1] * w_inv


def build_lattice() -> dict:
    rng = random.Random(SEED)
    corpus = {"seed": SEED, "involutions": [], "pairs": []}
    for n in RANKS:
        identity = IntMatrix.identity(n)
        for _ in range(CASES):
            f = random_involution_matrix(rng, n, word_length=rng.choice(WORD_LENGTHS))
            pm = involutions.plus_minus(f)
            kernel = kernel_summand_basis(f - identity)
            form = involutions.canonicalize_involution(f)
            corpus["involutions"].append({
                "f": f.to_lists(),
                "plus": _vectors(pm.plus),
                "minus": _vectors(pm.minus),
                "defect": involutions.involution_block_type(f)[2],
                "kernel": _vectors(kernel),
                "complement": _vectors(direct_complement(kernel)),
                "type": list(form.block_type()),
                "basis": form.basis.to_lists(),
            })
        for k in range(CASES):
            if k % 2:
                f, g = _commuting_pair(rng, n)
            else:
                f, g = (random_involution_matrix(rng, n, diagonalizable=True,
                                                 word_length=rng.choice(WORD_LENGTHS))
                        for _ in range(2))
            corpus["pairs"].append({
                "f": f.to_lists(),
                "g": g.to_lists(),
                "commuting": _outcome(lambda bases: [_vectors(b) for b in bases],
                                      involutions.commuting_decomposition, f, g),
                "sqrt": _outcome(IntMatrix.to_lists, involutions.sqrt_of_involution, f),
            })
    return corpus


def _big_element(rng: random.Random, n: int) -> Element:
    bound = rng.choice((9, 10**6))
    return Element(n, [rng.randint(-bound, bound) for _ in range(n)],
                   [rng.randint(-bound, bound) for _ in range(pair_count(n))])


def build_ia() -> dict:
    rng = random.Random(SEED)
    corpus = {"seed": SEED, "conjugation": [], "inner_witness": [], "ia_from_offsets": [],
              "stabilizer_split": [], "decode_triplet": []}
    for n in RANKS:
        for _ in range(CASES):
            a = _big_element(rng, n)
            corpus["conjugation"].append({"a": _element(a),
                                          "out": _automorphism(autgroup.conjugation(a))})
        for k in range(CASES):
            # even cases are inner; odd ones compose an inner automorphism with
            # a random IA one, which is inner only at rank 2
            alpha = autgroup.conjugation(_big_element(rng, n))
            if k % 2:
                alpha = autgroup.compose(alpha, random_ia(rng, n, bound=rng.choice((1, 9))))
            witness = autgroup.inner_witness(alpha)
            corpus["inner_witness"].append({"alpha": _automorphism(alpha),
                                            "out": witness and _element(witness)})
        for _ in range(CASES):
            offsets = [list(_big_element(rng, n).comm) for _ in range(n)]
            corpus["ia_from_offsets"].append({
                "offsets": offsets,
                "out": _automorphism(autgroup.ia_from_offsets(n, offsets))})
        for k in range(CASES):
            # the last case moves x_i, which the split rejects
            i = rng.randint(1, n)
            supports = [() if j == i and k < CASES - 1 else range(pair_count(n))
                        for j in range(1, n + 1)]
            alpha = random_ia_on_supports(rng, n, supports, bound=rng.choice((2, 10**6)))
            corpus["stabilizer_split"].append({
                "alpha": _automorphism(alpha), "i": i,
                "out": _outcome(lambda split: [_automorphism(split.plus),
                                               _automorphism(split.minus)],
                                iastruct.stabilizer_split, alpha, i)})
        for k in range(CASES):
            # witnesses: the columns of a random unimodular matrix, with random
            # central parts; the last case doubles one of them, so no basis
            columns = random_unimodular(rng, n).columns()
            witnesses = [Element(n, col, random_element(rng, n).comm) for col in columns]
            if k == CASES - 1:
                witnesses[0] = witnesses[0] ** 2
            taus = [autgroup.conjugation(w) for w in witnesses]
            symmetry = _outcome(lambda s: s, conjugation_basis_symmetry, taus)
            base = (autgroup.symmetry_standard(n) if isinstance(symmetry, dict)
                    else symmetry)
            # odd k: an IA factor with random offsets, not a square, so usually
            # no representative is inverted
            beta = random_ia(rng, n)
            theta = autgroup.compose(base, beta if k % 2 else autgroup.compose(beta, beta))
            i = rng.randint(1, n)
            corpus["decode_triplet"].append({
                "taus": [_automorphism(t) for t in taus],
                "basis": autgroup.is_basis_conjugation_set(taus),
                "symmetry": symmetry if isinstance(symmetry, dict) else _automorphism(symmetry),
                "theta": _automorphism(theta), "i": i,
                "out": _outcome(_element, iastruct.decode_triplet, taus[i - 1], theta, taus)})
    return corpus


def dump(corpus: dict) -> str:
    """One case per line, so a diff shows which case changed."""
    lines = ["{", f'"seed": {corpus["seed"]},']
    ops = [op for op in corpus if op != "seed"]
    for k, op in enumerate(ops):
        cases = ",\n".join(json.dumps(case, separators=(",", ":")) for case in corpus[op])
        lines.append(f'"{op}": [\n{cases}\n]' + ("," if k < len(ops) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_new(path: Path, text: str) -> None:
    """Write a corpus file that does not exist yet; raise FileExistsError
    rather than re-pin an existing one."""
    with path.open("x") as out:
        out.write(text)


if __name__ == "__main__":
    for path, build in ((KERNEL_PATH, build_kernel), (LATTICE_PATH, build_lattice),
                        (IA_PATH, build_ia)):
        try:
            write_new(path, dump(build()))
        except FileExistsError:
            print(f"kept {path}: it exists, delete it first to re-pin it")
        else:
            print(f"wrote {path}")
