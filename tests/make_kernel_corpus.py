"""Write the seeded corpus of automorphism-kernel inputs and outputs.

    PYTHONPATH=src python3 tests/make_kernel_corpus.py

The committed ``tests/data/kernel_corpus_r2_6_s4.json`` was written by this
script before ``compose`` became a closed form, when it applied sigma to
each image of rho.  ``TestKernelCorpus`` in ``test_autgroup.py`` replays
it, pinning today's kernel to those outputs; regenerating it from the
current code would only pin the code to itself.

Elements are stored as ``[abelian, comm]``; automorphisms as the list of
their generator images.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from freenil2 import autgroup
from freenil2.nilcore import Element, pair_count
from freenil2.sampling import random_automorphism, random_ia

SEED = 4
RANKS = range(2, 7)
CASES = 6  # per operation and rank
PATH = Path(__file__).parent / "data" / "kernel_corpus_r2_6_s4.json"


def _element(g: Element) -> list:
    return [list(g.abelian), list(g.comm)]


def _automorphism(sigma) -> list:
    return [_element(img) for img in sigma.images]


def _sigma(rng: random.Random, n: int):
    return autgroup.compose(random_automorphism(rng, n), random_ia(rng, n, bound=9))


def build() -> dict:
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


if __name__ == "__main__":
    corpus = build()
    lines = ["{", f'"seed": {corpus["seed"]},']
    for k, op in enumerate(("apply", "compose", "invert")):
        cases = ",\n".join(json.dumps(case, separators=(",", ":")) for case in corpus[op])
        lines.append(f'"{op}": [\n{cases}\n]' + ("," if k < 2 else ""))
    lines.append("}")
    PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {PATH}")
