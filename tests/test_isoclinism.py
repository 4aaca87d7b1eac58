"""Witness search, verification, the induced realization map, and families."""

import copy
import dataclasses
import random
from pathlib import Path

import pytest

from grouplab import isoclinism
from grouplab.catalog import builtin, load_catalog
from grouplab.errors import PairingAxiomFailed, ValidationError, WitnessInvalid
from grouplab.groups import (
    GroupHom,
    center,
    commutator_table,
    derived_subgroup,
    direct_product,
    from_mul_table,
    isomorphisms_iter,
    relabeled,
)
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

from fuzz_reference import sampled_fuzz
from partition_reference import union_find_partition


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
        assert w.alpha.source.order == 1 and w.alpha.target.order == 1
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
        # not compatible with the identity quotient map. The copy is a new
        # object, so the verdict kept on the verified original does not carry.
        wi = identity_witness(S3)
        assert verify_witness(wi)
        bad = tuple(sorted((x, S3.inv[x]) for x in derived_subgroup(S3).members))
        assert not verify_witness(dataclasses.replace(wi, beta=bad))
        assert verify_witness(wi)

    def test_malformed_witness_is_rejected(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        Q1, Q2, alpha = w.alpha.source, w.alpha.target, w.alpha.images
        cases = {
            "alpha one image short": GroupHom(Q1, Q2, alpha[:-1]),
            "alpha image of 99": GroupHom(Q1, Q2, alpha[:-1] + (99,)),
        }
        for kind, change in cases.items():
            bad = dataclasses.replace(w, alpha=change)
            assert not verify_witness(bad), kind
            with pytest.raises(WitnessInvalid):
                build_gamma(bad, w1, w2)

    def test_certificate_runs_once_per_witness(self, monkeypatch):
        """The search, the caller's check and build_gamma share one certificate.

        The certificate asks for beta_hom exactly once, so its calls count
        the certificates run on D4 ~ Q8, whose first candidate is accepted.
        """
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        calls = []
        beta_hom = IsoclinismWitness.beta_hom

        def counted(w):
            calls.append(w)
            return beta_hom(w)

        monkeypatch.setattr(IsoclinismWitness, "beta_hom", counted)
        w = are_isoclinic(D4, Q8)
        assert verify_witness(w)
        build_gamma(w, w1, w2)
        assert calls == [w]

    def test_beta_hom_uses_the_kept_derived_groups(self):
        w = are_isoclinic(D4, Q8)
        hom = w.beta_hom()
        assert hom.source is derived_subgroup(D4).as_group()[0]
        assert hom.target is derived_subgroup(Q8).as_group()[0]
        assert w.beta_hom().source is hom.source

    def test_beta_off_the_derived_subgroup_is_rejected(self):
        wi = identity_witness(S3)
        outside = next(x for x in range(S3.order) if x not in derived_subgroup(S3))
        (x0, _), *rest = wi.beta
        for beta in (tuple(rest), ((x0, outside), *rest), ((outside, x0), *rest)):
            bad = dataclasses.replace(wi, beta=beta)
            with pytest.raises(WitnessInvalid, match="derived subgroup"):
                bad.beta_hom()
            assert not verify_witness(bad)


class TestDeriveBeta:
    def test_commutator_sent_to_two_values_is_rejected_first(self, monkeypatch):
        """The single-valuedness check rejects before any extension is tried.

        The central quotient of D4 x S3 is V4 x S3. Its automorphisms
        (v, s) -> (v * phi(s), s), with phi the sign of s into V4, change the
        D4 part of some commutators and not of others, so they send one
        commutator of G to two values.
        """
        G = builtin("direct_product", (("dihedral", 4), ("symmetric", 3)))
        Q, _, _, section = isoclinism._central_data(G)
        comm = commutator_table(G)

        def no_extension(*args):
            raise AssertionError("a two-valued candidate reached the extension")

        monkeypatch.setattr(isoclinism, "_extend_hom", no_extension)
        two_valued = 0
        for alpha in isomorphisms_iter(Q, Q):
            image = isoclinism._pair_table(comm, isoclinism._coset_images(G, alpha), section)
            values = {}
            for c, v in zip(comm.ravel().tolist(), image.ravel().tolist()):
                values.setdefault(c, set()).add(v)
            if any(len(vs) > 1 for vs in values.values()):
                two_valued += 1
                assert isoclinism._derive_beta(G, G, image) is None
        assert two_valued


def verify_by_loops(w):
    """The check over every representative pair, one element at a time.

    For each (a1, b1) and every (a2, b2) in the central cosets that alpha
    assigns to them, [a2, b2] must be beta([a1, b1]). It reads the cosets
    off each group's kept projection and uses no section.
    """
    if not (w.alpha.is_homomorphism() and w.alpha.is_bijective()):
        return False
    beta_hom = w.beta_hom()
    if not (beta_hom.is_homomorphism() and beta_hom.is_bijective()):
        return False
    G1, G2 = w.source, w.target
    if {x for x, _ in w.beta} != set(derived_subgroup(G1).members):
        return False
    if {y for _, y in w.beta} != set(derived_subgroup(G2).members):
        return False
    proj1 = isoclinism._central_data(G1)[1].images
    proj2 = isoclinism._central_data(G2)[1].images
    bmap = w.beta_dict()
    cosets2 = [[] for _ in range(w.alpha.target.order)]
    for x in range(G2.order):
        cosets2[proj2[x]].append(x)
    for a1 in range(G1.order):
        qa = w.alpha.images[proj1[a1]]
        for b1 in range(G1.order):
            qb = w.alpha.images[proj1[b1]]
            expected = bmap[G1.comm(a1, b1)]
            for a2 in cosets2[qa]:
                for b2 in cosets2[qb]:
                    if G2.comm(a2, b2) != expected:
                        return False
    return True


def tampered(w):
    """(kind of change, changed copy of w) pairs: some still valid, most not."""
    Q2 = w.alpha.target
    out = []
    beta = list(w.beta)
    if len(beta) > 2:
        (x1, y1), (x2, y2) = beta[1], beta[2]
        beta[1], beta[2] = (x1, y2), (x2, y1)
        out.append(("beta entries swapped", dataclasses.replace(w, beta=tuple(beta))))
    for q in range(1, Q2.order):
        images = list(w.alpha.images)
        images[1] = (images[1] + q) % Q2.order
        out.append(("alpha image changed", dataclasses.replace(w, alpha=GroupHom(w.alpha.source, Q2, tuple(images)))))
    for auto in isomorphisms_iter(Q2, Q2):
        out.append(("alpha times an automorphism", dataclasses.replace(w, alpha=auto.compose(w.alpha))))
    return out


class TestVerifyWitnessIsACertificate:
    """verify_witness against the loop over all representative pairs."""

    def test_every_family_witness(self, corpus, family_witnesses):
        for (i, j), w in family_witnesses.items():
            assert verify_witness(w) and verify_by_loops(w), (corpus[i].label, corpus[j].label)

    def test_tampered_witnesses(self, corpus, family_witnesses):
        cases = {"D4~Q8": are_isoclinic(D4, Q8), "S3~S3xZ2": are_isoclinic(S3, S3xZ2)}
        for (i, j), w in family_witnesses.items():
            if w.alpha.target.order > 1:
                cases[f"{corpus[i].label}~{corpus[j].label}"] = w
        seen = set()
        for pair, w in cases.items():
            for kind, bad in tampered(w):
                expected = verify_by_loops(bad)
                assert verify_witness(bad) == expected, (pair, kind)
                seen.add((kind, expected))
        # every kind of change occurred, and the checks were not all one-sided
        assert seen == {
            ("beta entries swapped", False),
            ("alpha image changed", False),
            ("alpha times an automorphism", True),
            ("alpha times an automorphism", False),
        }


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

    def test_composition_of_a_malformed_witness_is_rejected(self):
        w12 = are_isoclinic(D4, Q8)
        w23 = invert_witness(w12)
        short = dataclasses.replace(w23, beta=w23.beta[1:])
        with pytest.raises(WitnessInvalid, match="failed verification"):
            compose_witnesses(w12, short)
        with pytest.raises(WitnessInvalid, match="failed verification"):
            compose_witnesses(invert_witness(short), w23)

    def test_composition_through_an_equal_table_copy(self):
        # the middle groups are distinct objects with equal tables, so each
        # keeps its own central quotient, and the two are equal
        Q8copy = from_mul_table(Q8.mul, label="Q8copy")
        w12 = are_isoclinic(D4, Q8)
        w23 = are_isoclinic(Q8copy, D4)
        loop = compose_witnesses(w12, w23)
        assert loop.source is D4 and loop.target is D4
        assert verify_witness(loop)

    def test_witness_is_alpha_and_beta(self):
        names = [f.name for f in dataclasses.fields(IsoclinismWitness)]
        assert names == ["source", "target", "alpha", "beta"]

    def test_json_shape(self):
        doc = witness_to_json(are_isoclinic(D4, Q8))
        assert set(doc) == {"schema_version", "source", "target", "alpha", "beta", "section"}
        assert sorted(doc["section"]) == ["source", "target"]

    def test_json_sections_are_the_coset_minima(self):
        for G1, G2 in ((D4, Q8), (S3, S3xZ2), (Z4, V4)):
            doc = witness_to_json(are_isoclinic(G1, G2))
            for side, G in (("source", G1), ("target", G2)):
                minima = {}
                for x, q in enumerate(isoclinism._central_data(G)[1].images):
                    minima.setdefault(q, x)
                assert doc["section"][side] == [minima[q] for q in range(len(minima))], (G.label, side)


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

    def test_trials_and_seed_are_ignored(self):
        # kept for callers of the sampled check; a check with no draws is now no weaker
        w, w1, w2 = self.d4_q8()
        for trials, seed in ((0, 0), (-5, 7), (1, -1)):
            assert well_definedness_fuzz(w, w1, w2, trials=trials, seed=seed)

    @staticmethod
    def d4_q8():
        return are_isoclinic(D4, Q8), compute_wedge(D4, WedgeVariant.CURLY), compute_wedge(Q8, WedgeVariant.CURLY)

    def test_constant_alpha_is_rejected(self):
        w, w1, w2 = self.d4_q8()
        constant = GroupHom(w.alpha.source, w.alpha.target, (0,) * w.alpha.source.order)
        with pytest.raises(WitnessInvalid):
            well_definedness_fuzz(dataclasses.replace(w, alpha=constant), w1, w2)

    def test_alpha_image_out_of_range_is_rejected(self):
        w, w1, w2 = self.d4_q8()
        images = (99,) + w.alpha.images[1:]
        with pytest.raises(WitnessInvalid):
            well_definedness_fuzz(dataclasses.replace(w, alpha=GroupHom(w.alpha.source, w.alpha.target, images)), w1, w2)

    def test_swapped_wedges_are_rejected(self):
        w, w1, w2 = self.d4_q8()
        with pytest.raises(ValidationError, match="do not match the witness groups"):
            well_definedness_fuzz(w, w2, w1)

    def test_exterior_wedge_is_rejected(self):
        w, w1, w2 = self.d4_q8()
        with pytest.raises(ValidationError, match="CURLY"):
            well_definedness_fuzz(w, compute_wedge(D4, WedgeVariant.EXTERIOR), w2)

    def test_inputs_are_checked_before_the_trivial_center_shortcut(self):
        S3r = relabeled(S3, [0, 2, 4, 1, 5, 3])
        w = are_isoclinic(S3, S3r)
        w1 = compute_wedge(S3, WedgeVariant.CURLY)
        w2 = compute_wedge(S3r, WedgeVariant.CURLY)
        with pytest.raises(ValidationError, match="do not match the witness groups"):
            well_definedness_fuzz(w, w2, w1)
        constant = GroupHom(w.alpha.source, w.alpha.target, (0,) * w.alpha.source.order)
        with pytest.raises(WitnessInvalid):
            well_definedness_fuzz(dataclasses.replace(w, alpha=constant), w1, w2)

    def test_trivial_center_and_abelian_pairs_are_stable(self):
        # a trivial center makes every block one entry; an abelian target is one block
        for G1, G2 in ((S3, relabeled(S3, [0, 2, 4, 1, 5, 3])), (Z4, V4)):
            w = are_isoclinic(G1, G2)
            w1 = compute_wedge(G1, WedgeVariant.CURLY)
            w2 = compute_wedge(G2, WedgeVariant.CURLY)
            assert well_definedness_fuzz(w, w1, w2), (G1.label, G2.label)


class TestCorruptedPairImages:
    """A wrong pair image of the second realization must be caught (D4 ~ Q8)."""

    @staticmethod
    def _changed(wr, m, n):
        """A copy of wr, with its kept kappa and kernel, whose pair table differs at (m, n)."""
        table = wr.pair_table().copy()
        table[m, n] = (table[m, n] + 1) % wr.order
        bad = copy.copy(wr)
        object.__setattr__(bad, "pair_table", lambda: table)
        return bad

    def test_off_section_change_fails_the_fuzz(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        section2 = isoclinism._central_data(Q8)[3]
        z = next(x for x in center(Q8).members if x != 0)
        m, n = Q8.mul[section2[1]][z], section2[2]
        assert m not in section2
        bad = self._changed(w2, m, n)
        build_gamma(w, w1, bad)  # gamma reads section pairs only
        assert not well_definedness_fuzz(w, w1, bad, seed=0)

    @pytest.mark.parametrize(
        "G1,G2,mutants,blind",
        [
            (D4, Q8, 48, 8),
            (builtin("dihedral", (8,)), builtin("dicyclic", (4,)), 192, 16),
            (D4, builtin("direct_product", (("dihedral", 4), ("cyclic", 2))), 240, 48),
        ],
        ids=["D4~Q8", "D8~Dic4", "D4~D4xZ2"],
    )
    def test_every_off_section_change_fails_the_exact_check(self, G1, G2, mutants, blind):
        """The exact check rejects each mutant; the sampled one misses exactly the (s·z, s·z') pairs."""
        w = are_isoclinic(G1, G2)
        w1 = compute_wedge(G1, WedgeVariant.CURLY)
        w2 = compute_wedge(G2, WedgeVariant.CURLY)
        _, proj2, _, section2 = isoclinism._central_data(G2)
        off = [(m, n) for m in range(G2.order) for n in range(G2.order) if not {m, n} <= set(section2)]
        assert len(off) == mutants
        missed = set()
        for m, n in off:
            bad = self._changed(w2, m, n)
            assert not well_definedness_fuzz(w, w1, bad), (m, n)
            if sampled_fuzz(w, w1, bad, trials=100, seed=0):
                missed.add((m, n))
        same_coset = {(m, n) for m, n in off if m != n and proj2.images[m] == proj2.images[n]}
        assert missed == same_coset and len(missed) == blind

    def test_section_change_fails_the_pairing_check(self):
        w = are_isoclinic(D4, Q8)
        w1 = compute_wedge(D4, WedgeVariant.CURLY)
        w2 = compute_wedge(Q8, WedgeVariant.CURLY)
        section2 = isoclinism._central_data(Q8)[3]
        bad = self._changed(w2, section2[1], section2[2])
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


# The families-dense benchmark pool (perfbench/workloads.py): a builtin group and its number of copies.
FAMILIES_DENSE_POOL = (
    (("symmetric", (3,)), 40),
    (("dihedral", (6,)), 4),
    (("dicyclic", (3,)), 4),
    (("dihedral", (4,)), 8),
    (("quaternion8", ()), 8),
    (("direct_product", (("dihedral", 4), ("cyclic", 2))), 1),
    (("direct_product", (("quaternion8",), ("cyclic", 2))), 1),
    (("dihedral", (8,)), 1),
    (("dicyclic", (4,)), 1),
    (("dihedral", (5,)), 3),
    (("alternating", (4,)), 1),
    (("dihedral", (7,)), 1),
)


class TestFamiliesByRepresentative:
    """partition_into_families against the union-find partition of partition_reference, counting are_isoclinic calls."""

    @staticmethod
    def counted(monkeypatch, partition, groups):
        """The partition, and the (first, second) catalog indices of every are_isoclinic call it made."""
        index = {id(G): i for i, G in enumerate(groups)}
        calls = []
        real = isoclinism.are_isoclinic

        def counting(G1, G2):
            calls.append((index[id(G1)], index[id(G2)]))
            return real(G1, G2)

        monkeypatch.setattr(isoclinism, "are_isoclinic", counting)
        families = partition(groups)
        monkeypatch.setattr(isoclinism, "are_isoclinic", real)
        return families, calls

    def check(self, monkeypatch, groups):
        want, ref_calls = self.counted(monkeypatch, union_find_partition, groups)
        got, calls = self.counted(monkeypatch, partition_into_families, groups)
        assert got == want
        assert len(calls) == len(ref_calls)
        assert all(i < j for i, j in calls)
        return got, calls

    @pytest.mark.parametrize("seed, shuffled", [(321, False), (322, True)])
    def test_families_dense_pool_relabeled(self, monkeypatch, seed, shuffled):
        rng = random.Random(seed)
        groups = []
        for (family, params), copies in FAMILIES_DENSE_POOL:
            G = builtin(family, params)
            groups += [relabeled(G, [0] + rng.sample(range(1, G.order), G.order - 1)) for _ in range(copies)]
        if shuffled:  # families interleave
            rng.shuffle(groups)
        families, calls = self.check(monkeypatch, groups)
        assert sorted(len(f) for f in families) == [1, 1, 2, 3, 18, 48]
        assert len(calls) == len(groups) - len(families) == 67

    def test_catalog(self, monkeypatch):
        groups = load_catalog(Path(__file__).resolve().parent.parent / "catalog")
        families, calls = self.check(monkeypatch, groups)
        assert len(families) == 5 and len(calls) == 30
