"""The corpus builders against the committed corpora, byte for byte.

The replay tests pin each operation to its recorded output; this pins the
builders' inputs too, so a change to a sampler's draws shows here.
"""

import pytest

import make_kernel_corpus as corpora


@pytest.mark.parametrize("path, build", [
    (corpora.KERNEL_PATH, corpora.build_kernel),
    (corpora.LATTICE_PATH, corpora.build_lattice),
    (corpora.IA_PATH, corpora.build_ia),
], ids=["kernel", "lattice", "ia"])
def test_builder_reproduces_committed_corpus(path, build):
    assert corpora.dump(build()) == path.read_text()
