"""Witness search, verification, the induced realization map, and families."""

import dataclasses

import pytest

from grouplab.catalog import builtin
from grouplab.errors import PairingAxiomFailed, WitnessInvalid
from grouplab.groups import center, derived_subgroup, direct_product, from_mul_table
from grouplab.isoclinism import (
    IsoclinismWitness,
    are_isoclinic,
    build_gamma,
    compose_witnesses,
    identity_witness,
    invert_witness,
    partition_into_families,
    verify_witness,
    well_definedness_fuzz,
    witness_to_json,
)
from grouplab.wedge import WedgeVariant, compute_wedge


def cyclic(n):
    return from_mul_table([[(i + j) % n for j in range(n)] for i in range(n)], label=f"Z{n}")


S3 = builtin("symmetric", (3,))
D4 = builtin("dihedral", (4,))
Q8 = builtin("quaternion8")
Z4 = cyclic(4)
V4 = direct_product(cyclic(2), cyclic(2), label="V4")
S3xZ2 = builtin("direct_product", (("symmetric", 3), ("cyclic", 2)))


class TestSearch:
    def test_abelian_pair(self):
        w = are_isoclinic(Z4, V4)
        assert w is not None
        assert w.quotient1.order == 1 and w.quotient2.order == 1
        assert verify_witness(w)

    def test_product_with_abelian(self):
        w = are_isoclinic(S3, S3xZ2)
        assert w is not None and verify_witness(w)

    def test_d4_q8(self):
        w = are_isoclinic(D4, Q8)
        assert w is not None and verify_witness(w)

    def test_s3_z6_rejected(self):
        assert are_isoclinic(S3, cyclic(6)) is None

    def test_deterministic(self):
        w1 = are_isoclinic(D4, Q8)
        w2 = are_isoclinic(D4, Q8)
        assert w1.alpha.images == w2.alpha.images and w1.beta == w2.beta


class TestVerifyWitness:
    def test_search_output_verifies(self):
        for pair in ((D4, Q8), (S3, S3xZ2), (Z4, V4)):
            assert verify_witness(are_isoclinic(*pair))

    def test_identity_witness(self):
        for G in (S3, D4, Q8):
            assert verify_witness(identity_witness(G))

    def test_incompatible_beta_rejected(self):
        # inversion on the derived subgroup of S3 is an automorphism but is
        # not compatible with the identity quotient map
        wi = identity_witness(S3)
        bad = tuple(sorted((x, S3.inv[x]) for x in derived_subgroup(S3).members))
        wbad = IsoclinismWitness(
            source=wi.source,
            target=wi.target,
            quotient1=wi.quotient1,
            quotient2=wi.quotient2,
            proj1=wi.proj1,
            proj2=wi.proj2,
            alpha=wi.alpha,
            beta=bad,
            section1=wi.section1,
            section2=wi.section2,
        )
        assert not verify_witness(wbad)


class TestWitnessAlgebra:
    def test_inversion(self):
        w = are_isoclinic(D4, Q8)
        winv = invert_witness(w)
        assert winv.source.label == Q8.label
        assert verify_witness(winv)

    def test_composition(self):
        w12 = are_isoclinic(D4, Q8)
        w23 = invert_witness(w12)
        loop = compose_witnesses(w12, w23)
        assert loop.source.mul == loop.target.mul
        assert verify_witness(loop)

    def test_composition_requires_matching_middle(self):
        w = are_isoclinic(D4, Q8)
        with pytest.raises(WitnessInvalid):
            compose_witnesses(w, w)

    def test_json_shape(self):
        doc = witness_to_json(are_isoclinic(D4, Q8))
        assert set(doc) == {"schema_version", "source", "target", "alpha", "beta", "section"}
        assert sorted(doc["section"]) == ["source", "target"]


class TestGamma:
    def test_identity_gamma(self):
        w = identity_witness(S3)
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        g = build_gamma(w, wr, wr)
        assert g.gamma.images == tuple(range(wr.order))
        assert g.gamma_tilde.source.order == 1

    def test_d4_q8_gamma(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        g = build_gamma(w, w1, w2)
        assert w1.order == w2.order == 2
        assert g.gamma.is_bijective()
        assert g.gamma_tilde.is_bijective()

    def test_s3_product_gamma(self):
        w = are_isoclinic(S3, S3xZ2)
        w1 = compute_wedge(S3, WedgeVariant.CURLY)
        w2 = compute_wedge(S3xZ2, WedgeVariant.CURLY)
        g = build_gamma(w, w1, w2)
        assert w1.order == w2.order == 3
        assert g.gamma.is_bijective()
        assert g.gamma_tilde.source.order == 1

    def test_inverted_witness_gives_inverse_gamma(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        g = build_gamma(w, w1, w2)
        ginv = build_gamma(invert_witness(w), w2, w1)
        n = w1.order
        for x in range(n):
            assert ginv.gamma.images[g.gamma.images[x]] == x

    def test_realization_orders_equal_for_witnessed_pairs(self):
        for G1, G2 in ((D4, Q8), (S3, S3xZ2)):
            assert (
                compute_wedge(G1, WedgeVariant.CURLY).order
                == compute_wedge(G2, WedgeVariant.CURLY).order
            )


class TestFuzz:
    def test_valid_witness_is_stable(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        assert well_definedness_fuzz(w, w1, w2, trials=1000, seed=42)

    def test_abelian_pair_vacuous(self):
        w = are_isoclinic(Z4, V4)
        w1 = compute_wedge(Z4, WedgeVariant.CURLY)
        w2 = compute_wedge(V4, WedgeVariant.CURLY)
        assert well_definedness_fuzz(w, w1, w2, trials=100)


class TestCorruptedPairImages:
    """A wrong pair image of the second realization must be caught (D4 ~ Q8)."""

    @staticmethod
    def _changed(wr, m, n):
        images = list(wr.realization.gen_images)
        p = m * wr.base.order + n
        images[p] = (images[p] + 1) % wr.order
        return dataclasses.replace(
            wr, realization=dataclasses.replace(wr.realization, gen_images=tuple(images))
        )

    def test_off_section_change_fails_the_fuzz(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        z = next(x for x in center(Q8).members if x != 0)
        m, n = Q8.mul[w.section2[1]][z], w.section2[2]
        assert m not in w.section2
        bad = self._changed(w2, m, n)
        build_gamma(w, w1, bad)  # gamma reads section pairs only
        assert not well_definedness_fuzz(w, w1, bad, seed=0)

    def test_section_change_fails_the_pairing_check(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        bad = self._changed(w2, w.section2[1], w.section2[2])
        with pytest.raises(PairingAxiomFailed):
            build_gamma(w, w1, bad)


class TestFamilies:
    def test_abelian_single_family(self):
        cat = [cyclic(2), cyclic(4), V4, cyclic(8)]
        assert partition_into_families(cat) == [[0, 1, 2, 3]]

    def test_d4_q8_z8(self):
        cat = [D4, Q8, cyclic(8)]
        assert partition_into_families(cat) == [[0, 1], [2]]

    def test_empty(self):
        assert partition_into_families([]) == []
