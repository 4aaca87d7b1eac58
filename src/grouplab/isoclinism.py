"""Isoclinism of finite groups, with explicit replayable witnesses.

Two groups are isoclinic when some isomorphism of their central quotients
and some isomorphism of their derived subgroups intertwine the commutator
maps. The search backtracks over central-quotient isomorphisms and derives
the derived-subgroup map from each candidate: the compatibility condition
pins it down on commutator values, and any failure of single-valuedness,
multiplicativity or bijectivity rejects the candidate.

``verify_witness`` checks the compatibility condition on one
representative per central coset, as one array comparison over all pairs
of the first group. That is a certificate for every choice of
representatives: it first checks that the target projection is a
homomorphism onto the target quotient whose kernel is exactly Z(G2), so
every coset is a representative times a central element, and
[az, bz'] = [a, b] for central z and z'.

Each group's structure (center, central quotient and projection, derived
subgroup, commutator table) is computed once and kept on the group object,
so checking many pairs of the same groups does not recompute it.

A verified witness induces an isomorphism between the CURLY pairing
realizations of the two groups; building it, checking the commuting-square
identity against both commutator surjections, and fuzzing the choice of
coset representatives are all explicit operations here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InternalCheckFailed,
    PairingAxiomFailed,
    ValidationError,
    WitnessInvalid,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _cached,
    _extend_partial,
    center,
    commutator_table,
    derived_subgroup,
    isomorphisms_iter,
    quotient,
)
from .wedge import WedgeRealization, WedgeVariant, check_pairing, hom_from_generator_images


@dataclass(frozen=True)
class IsoclinismWitness:
    """The pair of intertwining isomorphisms plus the data to replay them.

    ``alpha`` maps central-quotient indices; ``beta`` lists (element of the
    first derived subgroup, element of the second) pairs in parent labels;
    the sections pick one representative element per central coset.
    """

    source: FiniteGroup
    target: FiniteGroup
    quotient1: FiniteGroup
    quotient2: FiniteGroup
    proj1: GroupHom
    proj2: GroupHom
    alpha: GroupHom
    beta: tuple[tuple[int, int], ...]
    section1: tuple[int, ...]
    section2: tuple[int, ...]

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


def _central_data(G: FiniteGroup) -> tuple[FiniteGroup, GroupHom, Subgroup]:
    """The central quotient Q, the projection G -> Q and Z(G), kept on G."""

    def build() -> tuple[FiniteGroup, GroupHom, Subgroup]:
        Z = center(G)
        Q, proj = quotient(G, Z)
        return Q, proj, Z

    return _cached(G, "_central_data", build)


def _minimal_section(G: FiniteGroup, proj: GroupHom, Q: FiniteGroup) -> tuple[int, ...]:
    sec = [-1] * Q.order
    for x in range(G.order):
        q = proj.images[x]
        if sec[q] < 0:
            sec[q] = x
    return tuple(sec)


def _derive_beta(
    G1: FiniteGroup,
    G2: FiniteGroup,
    image: np.ndarray,
    derived2: Subgroup,
) -> dict[int, int] | None:
    """Map forced on commutators by compatibility, extended to the closure.

    ``image[x, y]`` is the commutator in G2 of the lifts of x and y. Returns
    the full map on the first derived subgroup, or None when the candidate
    quotient isomorphism admits no compatible derived-subgroup isomorphism.
    """
    comm1 = commutator_table(G1)
    forced = np.zeros(G1.order, dtype=image.dtype)
    forced[comm1] = image
    if not np.array_equal(forced[comm1], image):  # [x, y] is sent to two values
        return None
    values = np.unique(comm1).tolist()
    beta = dict(zip(values, forced[values].tolist()))
    known = _extend_partial(G1, G2, beta, values)
    if known is None or set(known.values()) != set(derived2.members):
        return None
    members = sorted(known)
    for a in members:
        for b in members:
            if known[G1.mul[a][b]] != G2.mul[known[a]][known[b]]:
                return None
    return known


def are_isoclinic(G1: FiniteGroup, G2: FiniteGroup) -> IsoclinismWitness | None:
    """First witness in deterministic search order, or None."""
    Q1, proj1, _ = _central_data(G1)
    Q2, proj2, _ = _central_data(G2)
    if Q1.order != Q2.order:
        return None
    D1 = derived_subgroup(G1)
    D2 = derived_subgroup(G2)
    if len(D1) != len(D2):
        return None
    if Q1.order_multiset() != Q2.order_multiset():
        return None
    sec1 = _minimal_section(G1, proj1, Q1)
    sec2 = _minimal_section(G2, proj2, Q2)
    comm2 = commutator_table(G2)
    for alpha in isomorphisms_iter(Q1, Q2):
        image = _pair_table(comm2, np.take(alpha.images, proj1.images), sec2)
        beta = _derive_beta(G1, G2, image, D2)
        if beta is None:
            continue
        return IsoclinismWitness(
            source=G1,
            target=G2,
            quotient1=Q1,
            quotient2=Q2,
            proj1=proj1,
            proj2=proj2,
            alpha=alpha,
            beta=tuple(sorted(beta.items())),
            section1=sec1,
            section2=sec2,
        )
    return None


def _is_central_projection(G: FiniteGroup, Q: FiniteGroup, proj: GroupHom) -> bool:
    """Whether proj is a homomorphism from G onto Q whose kernel is exactly Z(G)."""
    images = np.asarray(proj.images)
    if images.shape != (G.order,) or set(images.tolist()) != set(range(Q.order)):
        return False
    if not np.array_equal(images[np.asarray(G.mul)], np.asarray(Q.mul)[images[:, None], images]):
        return False
    return tuple(np.flatnonzero(images == 0).tolist()) == center(G).members


def verify_witness(w: IsoclinismWitness) -> bool:
    """Re-check everything, over all pairs and all representative choices.

    The compatibility condition is compared on section representatives only,
    which covers every representative once proj2 is known to be a central
    projection (see the module docstring).
    """
    if not (w.alpha.is_homomorphism() and w.alpha.is_bijective()):
        return False
    try:
        beta_hom = w.beta_hom()
    except WitnessInvalid:  # beta is not defined on the derived subgroups
        return False
    if not (beta_hom.is_homomorphism() and beta_hom.is_bijective()):
        return False
    G1, G2 = w.source, w.target
    # projections and sections must be coherent
    for q in range(w.quotient1.order):
        if w.proj1.images[w.section1[q]] != q:
            return False
    for q in range(w.quotient2.order):
        if w.proj2.images[w.section2[q]] != q:
            return False
    if not _is_central_projection(G2, w.quotient2, w.proj2):
        return False
    beta = np.zeros(G1.order, dtype=np.int64)
    beta[[x for x, _ in w.beta]] = [y for _, y in w.beta]
    image = _pair_table(commutator_table(G2), np.take(w.alpha.images, w.proj1.images), w.section2)
    return bool(np.array_equal(beta[commutator_table(G1)], image))


def identity_witness(G: FiniteGroup) -> IsoclinismWitness:
    Q, proj, _ = _central_data(G)
    D = derived_subgroup(G)
    sec = _minimal_section(G, proj, Q)
    return IsoclinismWitness(
        source=G,
        target=G,
        quotient1=Q,
        quotient2=Q,
        proj1=proj,
        proj2=proj,
        alpha=GroupHom(Q, Q, tuple(range(Q.order))),
        beta=tuple((x, x) for x in sorted(D.members)),
        section1=sec,
        section2=sec,
    )


def invert_witness(w: IsoclinismWitness) -> IsoclinismWitness:
    return IsoclinismWitness(
        source=w.target,
        target=w.source,
        quotient1=w.quotient2,
        quotient2=w.quotient1,
        proj1=w.proj2,
        proj2=w.proj1,
        alpha=w.alpha.inverse(),
        beta=tuple(sorted((y, x) for x, y in w.beta)),
        section1=w.section2,
        section2=w.section1,
    )


def compose_witnesses(w12: IsoclinismWitness, w23: IsoclinismWitness) -> IsoclinismWitness:
    if w12.target.mul != w23.source.mul:
        raise WitnessInvalid("witnesses do not share the middle group")
    if w12.quotient2.mul != w23.quotient1.mul:
        raise WitnessInvalid("middle central quotients disagree")
    b12 = w12.beta_dict()
    b23 = w23.beta_dict()
    return IsoclinismWitness(
        source=w12.source,
        target=w23.target,
        quotient1=w12.quotient1,
        quotient2=w23.quotient2,
        proj1=w12.proj1,
        proj2=w23.proj2,
        alpha=w23.alpha.compose(w12.alpha),
        beta=tuple(sorted((x, b23[y]) for x, y in b12.items())),
        section1=w12.section1,
        section2=w23.section2,
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


def build_gamma(
    w: IsoclinismWitness,
    wedge1: WedgeRealization,
    wedge2: WedgeRealization,
) -> GammaMap:
    """Construct, verify and package the induced map and its kernel part."""
    if wedge1.variant is not WedgeVariant.CURLY or wedge2.variant is not WedgeVariant.CURLY:
        raise ValidationError("gamma is built between CURLY realizations")
    if wedge1.base.mul != w.source.mul or wedge2.base.mul != w.target.mul:
        raise ValidationError("wedge realizations do not match the witness groups")
    if not verify_witness(w):
        raise WitnessInvalid("witness failed re-verification")
    coset = np.take(w.alpha.images, w.proj1.images)
    phi = _pair_table(wedge2.pair_table(), coset, w.section2)
    if not check_pairing(w.source, wedge2.realization.group, phi):
        raise PairingAxiomFailed("induced pair table violates a pairing axiom")
    gamma = hom_from_generator_images(
        wedge1.realization, wedge2.realization.group, phi.ravel().tolist()
    )
    if not gamma.is_bijective():
        raise InternalCheckFailed("induced map between realizations is not bijective")
    # commuting square: beta after kappa1 equals kappa2 after gamma
    bmap = w.beta_dict()
    k1, k2 = wedge1.kappa.images, wedge2.kappa.images
    for el in range(wedge1.realization.group.order):
        if bmap[k1[el]] != k2[gamma.images[el]]:
            raise InternalCheckFailed("commuting square fails at a realization element")
    ker1 = tuple(sorted(wedge1.kernel.members))
    ker2 = tuple(sorted(wedge2.kernel.members))
    ker2_set = set(ker2)
    for x in ker1:
        if gamma.images[x] not in ker2_set:
            raise InternalCheckFailed("gamma does not restrict to the kernels")
    k1_group, members1 = Subgroup(wedge1.realization.group, ker1).as_group()
    k2_group, members2 = Subgroup(wedge2.realization.group, ker2).as_group()
    pos2 = {x: i for i, x in enumerate(members2)}
    tilde_images = tuple(pos2[gamma.images[x]] for x in members1)
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
    """Perturb coset representatives by central elements; gamma must not move."""
    Z2 = sorted(center(w.target).members)
    if len(Z2) == 1:  # every perturbation is the identity
        return True
    mul2 = np.array(w.target.mul)
    pairs2, coset = wedge2.pair_table(), np.take(w.alpha.images, w.proj1.images)
    baseline = _pair_table(pairs2, coset, w.section2)
    rng = random.Random(seed)
    for start in range(0, trials, 100):  # 100 trials at a time bound the memory
        draws = [rng.choice(Z2) for _ in range(min(100, trials - start) * len(w.section2))]
        perturbed = mul2[w.section2, np.reshape(draws, (-1, len(w.section2)))]
        if not np.all(_pair_table(pairs2, coset, perturbed) == baseline):
            return False
    return True


def _signature(G: FiniteGroup) -> tuple:
    Q, _, _ = _central_data(G)
    D = derived_subgroup(G)
    dg, _ = D.as_group()
    return (Q.order, len(D), Q.order_multiset(), dg.order_multiset())


def partition_into_families(catalog: Sequence[FiniteGroup]) -> list[list[int]]:
    """Partition catalog indices into isoclinism families.

    Pairwise searches are pruned by cheap invariants of the central quotient
    and derived subgroup; the union-find merge order is deterministic.
    """
    n = len(catalog)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sigs = [_signature(G) for G in catalog]
    for i in range(n):
        for j in range(i + 1, n):
            if sigs[i] != sigs[j]:
                continue
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if are_isoclinic(catalog[i], catalog[j]) is not None:
                parent[max(ri, rj)] = min(ri, rj)
    families: dict[int, list[int]] = {}
    for i in range(n):
        families.setdefault(find(i), []).append(i)
    return [sorted(members) for _, members in sorted(families.items())]


def witness_to_json(w: IsoclinismWitness) -> dict:
    return {
        "schema_version": 1,
        "source": w.source.label,
        "target": w.target.label,
        "alpha": list(w.alpha.images),
        "beta": [list(pair) for pair in w.beta],
        "section": {"source": list(w.section1), "target": list(w.section2)},
    }
