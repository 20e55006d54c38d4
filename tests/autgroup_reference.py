"""The basis-set symmetry theta_B, kept as the oracle of
``autgroup.is_attached_symmetry`` and replayed by the IA corpus."""

from freenil2 import autgroup as ag
from freenil2.autgroup import Automorphism
from freenil2.errors import NotInner


def conjugation_basis_symmetry(taus) -> Automorphism:
    """The symmetry inverting the zero-offset witnesses of a basis set of
    conjugations."""
    witnesses = [ag.inner_witness(tau) for tau in taus]
    if any(w is None for w in witnesses):
        raise NotInner("an element of the candidate basis set is not a conjugation")
    rho = Automorphism(witnesses)
    return ag.compose(rho, ag.compose(ag.symmetry_standard(rho.rank), ag.invert(rho)))
