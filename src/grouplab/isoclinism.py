"""Isoclinism of finite groups, with explicit replayable witnesses.

Two groups are isoclinic when some isomorphism of their central quotients
and some isomorphism of their derived subgroups intertwine the commutator
maps. The search backtracks over central-quotient isomorphisms and derives
the derived-subgroup map from each candidate: the compatibility condition
pins it down on commutator values, and a candidate whose forced map is not
single-valued or does not extend to a homomorphism is dropped.

A witness is just that pair, alpha and beta. Each group's structure
(center, central quotient, projection and section of coset minima, derived
subgroup, commutator table) is computed once and kept on the group object;
every reader of a witness takes the quotients, projections and sections
from there, so checking many pairs of the same groups recomputes nothing.

The search's acceptance test is the certificate: a candidate is returned
only when ``verify_witness`` accepts it. That checks alpha and beta, and the
compatibility condition on one representative per central coset, as one
array comparison over all pairs of the first group. This covers every
choice of representatives: each kept projection's kernel is the center by
construction, so every coset is a representative times a central element,
and [az, bz'] = [a, b] for central z and z'. The verdict is kept on the
witness object, so later checks of it (the caller's, and ``build_gamma``'s)
read it; a ``dataclasses.replace`` copy is a new object and is checked
afresh.

A verified witness induces an isomorphism between the CURLY pairing
realizations of the two groups. Its pair table is a pairing exactly when it
extends to a homomorphism from the first realization (Moravec), so the
extension that builds gamma is also the pairing check. The commuting square
against both commutator surjections is checked here too, and so is the
independence of gamma from the coset representatives, exactly: the second
realization's pair table must be constant on every block of central cosets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InternalCheckFailed,
    PairingAxiomFailed,
    RelatorNotKilled,
    ValidationError,
    WitnessInvalid,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _cached,
    _extend_hom,
    center,
    commutator_table,
    derived_subgroup,
    isomorphisms_iter,
    quotient,
)
# check_pairing is not called here; perfbench/spans.py wraps it under this module's name
from .wedge import WedgeRealization, WedgeVariant, check_pairing, hom_from_generator_images


@dataclass(frozen=True)
class IsoclinismWitness:
    """The pair of intertwining isomorphisms, alpha and beta.

    ``alpha`` maps indices of the central quotients kept on source and
    target (``_central_data``); ``beta`` lists (element of the first derived
    subgroup, element of the second) pairs in parent labels.
    """

    source: FiniteGroup
    target: FiniteGroup
    alpha: GroupHom
    beta: tuple[tuple[int, int], ...]

    def beta_dict(self) -> dict[int, int]:
        return dict(self.beta)

    def beta_hom(self) -> GroupHom:
        """beta as a homomorphism between the derived subgroups as groups.

        The groups are the ones kept on each group's derived subgroup. Raises
        WitnessInvalid when beta's domain or image is not that subgroup.
        """
        g1, members1 = derived_subgroup(self.source).as_group()
        g2, members2 = derived_subgroup(self.target).as_group()
        domain = sorted(x for x, _ in self.beta)
        image = sorted(y for _, y in self.beta)
        if domain != list(members1) or image != list(members2):
            raise WitnessInvalid("beta's domain or image is not the derived subgroup")
        pos2 = {x: i for i, x in enumerate(members2)}
        bmap = self.beta_dict()
        images = tuple(pos2[bmap[x]] for x in members1)
        return GroupHom(g1, g2, images)


def _central_data(G: FiniteGroup) -> tuple[FiniteGroup, GroupHom, Subgroup, tuple[int, ...]]:
    """The central quotient Q, the projection G -> Q, Z(G) and the section of coset minima, kept on G."""

    def build() -> tuple[FiniteGroup, GroupHom, Subgroup, tuple[int, ...]]:
        Z = center(G)
        Q, proj = quotient(G, Z)
        section = tuple(np.unique(proj.images, return_index=True)[1].tolist())
        return Q, proj, Z, section

    return _cached(G, "_central_data", build)


def _coset_images(G: FiniteGroup, alpha: GroupHom) -> np.ndarray:
    """Entry x is alpha of the central coset of x, for x in G."""
    return np.take(alpha.images, _central_data(G)[1].images)


def _derive_beta(G1: FiniteGroup, G2: FiniteGroup, image: np.ndarray) -> dict[int, int] | None:
    """Map forced on commutators by compatibility, extended to the closure.

    ``image[x, y]`` is the commutator in G2 of the lifts of x and y. Returns
    the map on the first derived subgroup that the walk of
    ``groups._extend_hom`` builds from the forced values, or None when a
    commutator is sent to two values or an edge of the walk disagrees;
    ``verify_witness`` checks the rest, bijectivity among it. The map needs
    no injectivity test: ``are_isoclinic`` matched signatures, so |G1'| =
    |G2'|, and alpha is onto, so ``image`` holds every commutator of G2 and
    the map is onto G2', hence injective.
    """
    comm1 = commutator_table(G1)
    forced = np.zeros(G1.order, dtype=image.dtype)
    forced[comm1] = image
    if not np.array_equal(forced[comm1], image):  # [x, y] is sent to two values
        return None
    values = np.flatnonzero(np.bincount(comm1.ravel())).tolist()
    try:
        images = _extend_hom(G1, G2, values, forced[values].tolist())
    except RelatorNotKilled:
        return None
    return {x: y for x, y in enumerate(images) if y >= 0}


def are_isoclinic(G1: FiniteGroup, G2: FiniteGroup) -> IsoclinismWitness | None:
    """First witness in deterministic search order that verify_witness accepts, or None."""
    if _signature(G1) != _signature(G2):
        return None
    Q1, Q2 = _central_data(G1)[0], _central_data(G2)[0]
    comm2, sec2 = commutator_table(G2), _central_data(G2)[3]
    for alpha in isomorphisms_iter(Q1, Q2):
        beta = _derive_beta(G1, G2, _pair_table(comm2, _coset_images(G1, alpha), sec2))
        if beta is None:
            continue
        w = IsoclinismWitness(source=G1, target=G2, alpha=alpha, beta=tuple(sorted(beta.items())))
        if verify_witness(w):
            return w
    return None


def verify_witness(w: IsoclinismWitness) -> bool:
    """Whether w is an isoclinism witness, over all pairs and all representative choices.

    The certificate runs once per witness object and its verdict is kept on
    w (see the module docstring). A malformed witness, with a map of the
    wrong length or with entries out of range, is rejected.
    """

    def certify() -> bool:
        G1, G2 = w.source, w.target
        alpha = GroupHom(_central_data(G1)[0], _central_data(G2)[0], w.alpha.images)
        if not (alpha.is_homomorphism() and alpha.is_bijective()):
            return False
        try:
            beta_hom = w.beta_hom()
        except WitnessInvalid:  # beta is not defined on the derived subgroups
            return False
        if not (beta_hom.is_homomorphism() and beta_hom.is_bijective()):
            return False
        beta = np.zeros(G1.order, dtype=np.int64)
        beta[[x for x, _ in w.beta]] = [y for _, y in w.beta]
        image = _pair_table(commutator_table(G2), _coset_images(G1, alpha), _central_data(G2)[3])
        return bool(np.array_equal(beta[commutator_table(G1)], image))

    return _cached(w, "_verified", certify)


def identity_witness(G: FiniteGroup) -> IsoclinismWitness:
    Q = _central_data(G)[0]
    return IsoclinismWitness(
        source=G,
        target=G,
        alpha=GroupHom(Q, Q, tuple(range(Q.order))),
        beta=tuple((x, x) for x in sorted(derived_subgroup(G).members)),
    )


def invert_witness(w: IsoclinismWitness) -> IsoclinismWitness:
    return IsoclinismWitness(
        source=w.target,
        target=w.source,
        alpha=w.alpha.inverse(),
        beta=tuple(sorted((y, x) for x, y in w.beta)),
    )


def compose_witnesses(w12: IsoclinismWitness, w23: IsoclinismWitness) -> IsoclinismWitness:
    """The witness from w12's source to w23's target; both must verify.

    Equal middle tables give equal kept central quotients, so alpha composes.
    """
    if w12.target.mul != w23.source.mul:
        raise WitnessInvalid("witnesses do not share the middle group")
    if not (verify_witness(w12) and verify_witness(w23)):
        raise WitnessInvalid("a composed witness failed verification")
    b23 = w23.beta_dict()
    return IsoclinismWitness(
        source=w12.source,
        target=w23.target,
        alpha=w23.alpha.compose(w12.alpha),
        beta=tuple(sorted((x, b23[y]) for x, y in w12.beta)),
    )


@dataclass(frozen=True)
class GammaMap:
    """The isomorphism between CURLY realizations induced by a witness."""

    witness: IsoclinismWitness
    gamma: GroupHom
    gamma_tilde: GroupHom
    kernel1_members: tuple[int, ...]
    kernel2_members: tuple[int, ...]


def _pair_table(
    pairs2: np.ndarray, coset: np.ndarray, section2: np.ndarray | Sequence[int]
) -> np.ndarray:
    """Entry (a, b) is the entry of pairs2 at the section2 lifts of a and b.

    pairs2 is a |G2| x |G2| table: a realization's pair images, or the
    commutator table of G2. ``coset[x]`` is alpha of the central coset of x,
    so a lifts to section2[coset[a]]. A stack of sections, one per row, gives
    a stack of tables.
    """
    lift = np.take(section2, coset, axis=-1)
    return pairs2[lift[..., :, None], lift[..., None, :]]


def _check_inputs(w: IsoclinismWitness, wedge1: WedgeRealization, wedge2: WedgeRealization) -> None:
    """Require CURLY realizations of the witness groups and a verified witness."""
    if wedge1.variant is not WedgeVariant.CURLY or wedge2.variant is not WedgeVariant.CURLY:
        raise ValidationError("gamma is built between CURLY realizations")
    if wedge1.base.mul != w.source.mul or wedge2.base.mul != w.target.mul:
        raise ValidationError("wedge realizations do not match the witness groups")
    if not verify_witness(w):
        raise WitnessInvalid("witness failed verification")


def build_gamma(
    w: IsoclinismWitness,
    wedge1: WedgeRealization,
    wedge2: WedgeRealization,
) -> GammaMap:
    """Construct, verify and package the induced map and its kernel part.

    As in ``wedge.pairing_to_hom``, the extension that builds gamma is also
    the pairing check of the induced table phi; a failed one raises
    PairingAxiomFailed. kappa1 rests on the same certificate.
    """
    _check_inputs(w, wedge1, wedge2)
    phi = _pair_table(wedge2.pair_table(), _coset_images(w.source, w.alpha), _central_data(w.target)[3])
    try:
        gamma = hom_from_generator_images(wedge1, wedge2.realization.group, phi)
    except RelatorNotKilled as exc:
        raise PairingAxiomFailed("induced pair table violates a pairing axiom") from exc
    if not gamma.is_bijective():
        raise InternalCheckFailed("induced map between realizations is not bijective")
    # commuting square: beta after kappa1 equals kappa2 after gamma, so gamma maps ker1 into ker2
    bmap, k1, k2 = w.beta_dict(), wedge1.kappa.images, wedge2.kappa.images
    if any(bmap[k1[el]] != k2[y] for el, y in enumerate(gamma.images)):
        raise InternalCheckFailed("commuting square fails at a realization element")
    k1_group, ker1 = wedge1.kernel.as_group()
    k2_group, ker2 = wedge2.kernel.as_group()
    pos2 = {x: i for i, x in enumerate(ker2)}
    tilde_images = tuple(pos2[gamma.images[x]] for x in ker1)
    gamma_tilde = GroupHom(k1_group, k2_group, tilde_images)
    if not (gamma_tilde.is_homomorphism() and gamma_tilde.is_bijective()):
        raise InternalCheckFailed("kernel restriction is not an isomorphism")
    return GammaMap(
        witness=w,
        gamma=gamma,
        gamma_tilde=gamma_tilde,
        kernel1_members=ker1,
        kernel2_members=ker2,
    )


def well_definedness_fuzz(
    w: IsoclinismWitness,
    wedge1: WedgeRealization,
    wedge2: WedgeRealization,
    trials: int = 100,
    seed: int = 0,
) -> bool:
    """Whether gamma's pair table is the same for every choice of coset representatives.

    The check is exact: wedge2's pair table must equal its own entries at the
    kept section lifts, that is be constant on every (central coset x central
    coset) block of the target. alpha is onto the target's central quotient,
    so every such block is the lift of a pair of source cosets, and no choice
    of lifts can move gamma's table. Inputs are checked as build_gamma checks
    them. ``trials`` and ``seed`` are accepted and ignored: they set the
    sample of the random check this one replaced, and callers written for
    it still pass them.
    """
    _check_inputs(w, wedge1, wedge2)
    pairs2, (_, proj2, _, section2) = wedge2.pair_table(), _central_data(w.target)
    return bool(np.array_equal(pairs2, _pair_table(pairs2, proj2.images, section2)))


def _signature(G: FiniteGroup) -> tuple:
    """Isoclinism invariants, kept on G: the orders of G/Z(G) and G', and the element orders of both."""

    def build() -> tuple:
        Q, D = _central_data(G)[0], derived_subgroup(G)
        return (Q.order, len(D), Q.order_multiset(), D.as_group()[0].order_multiset())

    return _cached(G, "_signature", build)


def partition_into_families(catalog: Sequence[FiniteGroup]) -> list[list[int]]:
    """Partition catalog indices into isoclinism families.

    Each group joins the first family whose first member shares its
    ``_signature`` and is isoclinic to it, else starts a new one. Isoclinism
    is an equivalence relation, so one comparison per family decides;
    families are ordered by first member, members ascending.
    """
    sigs = [_signature(G) for G in catalog]
    families: list[list[int]] = []
    for j, G in enumerate(catalog):
        for fam in families:
            if sigs[fam[0]] == sigs[j] and are_isoclinic(catalog[fam[0]], G) is not None:
                fam.append(j)
                break
        else:
            families.append([j])
    return families


def witness_to_json(w: IsoclinismWitness) -> dict:
    return {
        "schema_version": 1,
        "source": w.source.label,
        "target": w.target.label,
        "alpha": list(w.alpha.images),
        "beta": [list(pair) for pair in w.beta],
        "section": {"source": list(_central_data(w.source)[3]), "target": list(_central_data(w.target)[3])},
    }
