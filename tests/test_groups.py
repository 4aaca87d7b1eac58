"""Group table construction and structural subroutines."""

import itertools
import random
import re

import numpy as np
import pytest

from grouplab.catalog import builtin
from grouplab.errors import (
    ClosureExceedsCap,
    EmptyGeneratorList,
    NotAbelian,
    NotNormal,
    RelatorNotKilled,
    ValidationError,
)
from grouplab.groups import (
    AbelianInvariants,
    GroupHom,
    Subgroup,
    _extend_hom,
    abelian_invariants,
    abelian_subgroups,
    build_from_permutations,
    center,
    commutator_table,
    derived_subgroup,
    direct_product,
    find_isomorphism,
    from_mul_table,
    invariant_factors_from_orders,
    isomorphisms_iter,
    minimal_generating_sequence,
    quotient,
    relabeled,
    subgroup_closure,
    table_arrays,
    validate_table,
)
import subgroup_reference
import table_reference
from test_nontrivial_b0 import (
    B64_CYCLES,
    B243_CYCLES,
    B243B_CYCLES,
    B243C_CYCLES,
    DEGREE,
    N_CYCLES,
    T243_CYCLES,
    group_243,
    perm,
)


def cyclic(n):
    return from_mul_table([[(i + j) % n for j in range(n)] for i in range(n)], label=f"Z{n}")


S3 = build_from_permutations([[1, 0, 2], [2, 1, 0]], label="S3")
Q8 = builtin("quaternion8")
D4 = builtin("dihedral", (4,))
V4 = direct_product(cyclic(2), cyclic(2), label="V4")


def brute_closure(perms):
    """Independent closure oracle: plain set saturation over composition."""
    ident = tuple(range(len(perms[0])))
    seen = {ident}
    changed = True
    while changed:
        changed = False
        for a in list(seen):
            for b in perms:
                c = tuple(a[b[i]] for i in range(len(a)))
                if c not in seen:
                    seen.add(c)
                    changed = True
    return seen


class TestBuildFromPermutations:
    def test_single_involution(self):
        G = build_from_permutations([[1, 0]])
        assert G.order == 2

    def test_s3_from_two_transpositions(self):
        assert S3.order == len(brute_closure([(1, 0, 2), (2, 1, 0)])) == 6
        validate_table(S3.mul, S3.inv)

    def test_empty_generators_with_point_count(self):
        G = build_from_permutations([], degree=3)
        assert G.order == 1

    def test_empty_generators_without_points_rejected(self):
        with pytest.raises(EmptyGeneratorList):
            build_from_permutations([])

    def test_cap(self):
        with pytest.raises(ClosureExceedsCap):
            build_from_permutations([[1, 0, 2], [2, 1, 0]], cap=4)

    def test_not_a_permutation(self):
        with pytest.raises(ValidationError):
            build_from_permutations([[0, 0, 1]])


class TestCommutatorConvention:
    def test_equal_arguments(self):
        for x in range(S3.order):
            assert S3.comm(x, x) == 0

    def test_abelian(self):
        Z6 = cyclic(6)
        for x in range(6):
            for y in range(6):
                assert Z6.comm(x, y) == 0

    def test_s3_transpositions_give_three_cycle(self):
        # right-to-left composition: [(1 2), (1 3)] = (1 2 3)
        x = S3.element_names.index("(1 2)")
        y = S3.element_names.index("(1 3)")
        assert S3.element_names[S3.comm(x, y)] == "(1 2 3)"

    def test_conjugation_matches_definition(self):
        for x in range(S3.order):
            for y in range(S3.order):
                expected = S3.mul[S3.mul[x][y]][S3.inv[x]]
                assert S3.conj(x, y) == expected


class TestCenterAndDerived:
    def test_center_abelian_is_whole_group(self):
        Z6 = cyclic(6)
        assert len(center(Z6)) == 6

    def test_center_s3_trivial(self):
        # brute scan straight off the table
        brute = [z for z in range(6) if all(S3.mul[z][g] == S3.mul[g][z] for g in range(6))]
        assert brute == [0]
        assert center(S3).members == (0,)

    def test_center_q8(self):
        assert len(center(Q8)) == 2

    def test_derived_abelian_trivial(self):
        assert derived_subgroup(cyclic(12)).members == (0,)

    def test_derived_s3(self):
        comms = {S3.comm(x, y) for x in range(6) for y in range(6)}
        closure = subgroup_closure(S3, sorted(comms))
        assert len(derived_subgroup(S3)) == len(closure) == 3

    def test_derived_d4(self):
        assert len(derived_subgroup(D4)) == 2


class TestStructureKeptOnTheGroup:
    def test_computed_once_per_group(self):
        G = relabeled(D4, [0, 3, 1, 2, 5, 4, 7, 6])
        assert center(G) is center(G)
        assert derived_subgroup(G) is derived_subgroup(G)
        assert commutator_table(G) is commutator_table(G)
        assert table_arrays(G) is table_arrays(G)
        assert G.order_multiset() is G.order_multiset()

    def test_commutator_table_matches_comm(self):
        for G in (S3, D4, Q8):
            assert commutator_table(G).tolist() == [
                [G.comm(x, y) for y in range(G.order)] for x in range(G.order)
            ]

    def test_table_arrays_match_the_table(self):
        for G in (S3, D4, Q8):
            mul, inv, conj = table_arrays(G)
            n = G.order
            assert mul.dtype == inv.dtype == conj.dtype == "int32"
            assert mul.tolist() == [list(row) for row in G.mul]
            assert inv.tolist() == list(G.inv)
            assert conj.tolist() == [[G.conj(x, y) for y in range(n)] for x in range(n)]

    def test_callers_cannot_change_the_kept_values(self):
        G = relabeled(D4, [0, 2, 1, 3, 4, 5, 6, 7])
        gens = minimal_generating_sequence(G)
        expected = list(gens)
        gens.append(5)
        gens[0] = 7
        assert minimal_generating_sequence(G) == expected
        table = commutator_table(G)
        with pytest.raises(ValueError):
            table[1, 2] = 0
        with pytest.raises(ValueError):
            table.ravel()[0] = 3
        for array in table_arrays(G):
            with pytest.raises(ValueError):
                array[0] = 1
        assert commutator_table(G).tolist() == [
            [G.comm(x, y) for y in range(G.order)] for x in range(G.order)
        ]

    def test_kept_values_stay_out_of_equality(self):
        a, b = relabeled(D4, list(range(8))), relabeled(D4, list(range(8)))
        center(a), commutator_table(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


class TestQuotient:
    def test_by_whole_group(self):
        Q, proj = quotient(S3, Subgroup(S3, tuple(range(6))))
        assert Q.order == 1
        assert set(proj.images) == {0}

    def test_by_trivial(self):
        Q, proj = quotient(S3, Subgroup(S3, (0,)))
        assert Q.order == 6
        assert find_isomorphism(Q, S3) is not None

    def test_s3_by_a3(self):
        A3 = derived_subgroup(S3)
        Q, proj = quotient(S3, A3)
        assert Q.order == 2
        assert proj.is_homomorphism()
        assert sorted(proj.kernel().members) == sorted(A3.members)

    def test_malformed_images_are_not_a_homomorphism(self):
        _, proj = quotient(D4, derived_subgroup(D4))
        images = proj.images
        assert GroupHom(D4, proj.target, images).is_homomorphism()
        for bad in (images[:-1], images + (0,), images[:-1] + (99,), images[:-1] + (-1,)):
            assert not GroupHom(D4, proj.target, bad).is_homomorphism(), bad

    def test_image_outside_the_target_is_not_bijective(self):
        Z2 = cyclic(2)
        hom = GroupHom(Z2, Z2, (0, 5))
        assert not hom.is_bijective()
        with pytest.raises(ValidationError):
            hom.inverse()
        assert GroupHom(Z2, Z2, (0, 1)).inverse().images == (0, 1)
        for bad in ((0,), (0, 1, 1), (1, 1), (0, -1)):
            assert not GroupHom(Z2, Z2, bad).is_bijective(), bad

    def test_order_and_surjectivity(self):
        N = derived_subgroup(D4)
        Q, proj = quotient(D4, N)
        assert Q.order == D4.order // len(N)
        assert set(proj.images) == set(range(Q.order))

    def test_not_normal_rejected(self):
        H = subgroup_closure(S3, [S3.element_names.index("(1 2)")])
        with pytest.raises(NotNormal):
            quotient(S3, H)


def brute_force_maximal_abelian(G):
    """Exhaustive subset oracle: the maximal abelian subgroups of G, each a sorted member list."""
    subgroups = []
    for r in range(1, G.order + 1):
        for cand in itertools.combinations(range(G.order), r):
            if 0 not in cand:
                continue
            cset = set(cand)
            if all(G.mul[a][b] in cset and G.inv[a] in cset for a in cand for b in cand):
                subgroups.append(cset)
    abelian = [s for s in subgroups if all(G.mul[a][b] == G.mul[b][a] for a in s for b in s)]
    return sorted(sorted(s) for s in abelian if not any(s < t for t in abelian))


class TestAbelianSubgroups:
    def test_abelian_maximal_is_whole_group(self):
        Z6 = cyclic(6)
        maxi = abelian_subgroups(Z6)
        assert len(maxi) == 1 and len(maxi[0]) == 6

    def test_s3_maximal_via_brute_force(self):
        got = abelian_subgroups(S3)
        assert brute_force_maximal_abelian(S3) == sorted(sorted(g.members) for g in got)
        assert sorted(len(g) for g in got) == [2, 2, 2, 3]

    @pytest.mark.parametrize("G", [D4, Q8], ids=["D4", "Q8"])
    def test_maximal_via_brute_force(self, G):
        # three subgroups of order 4, each containing the center
        got = abelian_subgroups(G)
        assert brute_force_maximal_abelian(G) == sorted(sorted(g.members) for g in got)
        assert [len(g) for g in got] == [4, 4, 4]

    def test_trivial_group(self):
        Z1 = cyclic(1)
        subs = abelian_subgroups(Z1)
        assert len(subs) == 1 and subs[0].members == (0,)

    def test_deterministic_order(self):
        a = [s.members for s in abelian_subgroups(D4)]
        b = [s.members for s in abelian_subgroups(D4)]
        assert a == b
        assert a == sorted(a, key=lambda t: (len(t), t))


class TestAbelianInvariants:
    def test_trivial(self):
        assert abelian_invariants(cyclic(1)).factors == ()

    def test_klein(self):
        assert abelian_invariants(V4).factors == (2, 2)

    def test_z6(self):
        assert abelian_invariants(cyclic(6)).factors == (6,)

    @pytest.mark.parametrize(
        "factors",
        [(2, 4), (2, 2, 4), (3, 9), (2, 6), (12,), (2, 2, 2, 2)],
    )
    def test_products_recover_factors(self, factors):
        G = cyclic(factors[0])
        for d in factors[1:]:
            G = direct_product(G, cyclic(d))
        got = abelian_invariants(G).factors
        order = 1
        for d in factors:
            order *= d
        assert got and abelian_invariants(G).group_order == order
        for a, b in zip(got, got[1:]):
            assert b % a == 0

    def test_product_equals_order(self, corpus):
        for G in corpus:
            if G.is_abelian():
                inv = abelian_invariants(G)
                assert inv.group_order == G.order

    def test_not_abelian_rejected(self):
        with pytest.raises(NotAbelian):
            abelian_invariants(S3)

    def test_relabeling_stable(self):
        rng = random.Random(5)
        Z12 = cyclic(12)
        for _ in range(5):
            perm = [0] + rng.sample(range(1, 12), 11)
            assert abelian_invariants(relabeled(Z12, perm)).factors == (12,)


class TestFindIsomorphism:
    def test_identity_on_same_group(self):
        hom = find_isomorphism(S3, S3)
        assert hom is not None and hom.is_homomorphism() and hom.is_bijective()

    def test_z4_vs_v4(self):
        assert find_isomorphism(cyclic(4), V4) is None

    def test_two_presentations_of_s3(self):
        other = builtin("symmetric", (3,))
        hom = find_isomorphism(S3, other)
        assert hom is not None and hom.is_homomorphism() and hom.is_bijective()

    def test_symmetry_on_sample_pairs(self):
        D6 = builtin("dihedral", (6,))
        S3xZ2 = builtin("direct_product", (("symmetric", 3), ("cyclic", 2)))
        assert find_isomorphism(D6, S3xZ2) is not None
        assert find_isomorphism(S3xZ2, D6) is not None
        assert find_isomorphism(D4, Q8) is None
        assert find_isomorphism(Q8, D4) is None

    def test_symmetry_across_corpus(self, corpus):
        same_order = [
            (a, b)
            for i, a in enumerate(corpus)
            for b in corpus[i + 1 :]
            if a.order == b.order
        ]
        assert same_order
        for a, b in same_order:
            forward = find_isomorphism(a, b)
            backward = find_isomorphism(b, a)
            assert (forward is None) == (backward is None), (a.label, b.label)

    def test_center_and_derived_characteristic(self):
        for G in (S3, D4, Q8):
            zc = set(center(G).members)
            dc = set(derived_subgroup(G).members)
            found = 0
            for auto in isomorphisms_iter(G, G):
                assert {auto.images[x] for x in zc} == zc
                assert {auto.images[x] for x in dc} == dc
                found += 1
                if found >= 6:
                    break


# --- references for the generator-edge walk ------------------------------------

# The groups of the benchmark's three workload pools (perfbench/workloads.py).
BENCHMARK_POOL = (
    ("direct_product", (("dihedral", 4), ("dihedral", 4))),
    ("direct_product", (("alternating", 4), ("cyclic", 4))),
    ("dihedral", (16,)),
    ("direct_product", (("dihedral", 4), ("cyclic", 4))),
    ("direct_product", (("quaternion8",), ("cyclic", 4))),
    ("symmetric", (4,)),
    ("dicyclic", (6,)),
    ("dihedral", (4,)),
    ("quaternion8", ()),
    ("alternating", (4,)),
    ("dihedral", (6,)),
    ("dicyclic", (3,)),
    ("dihedral", (8,)),
    ("dicyclic", (4,)),
    ("direct_product", (("dihedral", 4), ("cyclic", 2))),
    ("direct_product", (("quaternion8",), ("cyclic", 2))),
    ("elementary", (2, 4)),
    ("direct_product", (("cyclic", 4), ("cyclic", 4))),
    ("dihedral", (9,)),
    ("dihedral", (10,)),
    ("dicyclic", (5,)),
    ("dihedral", (12,)),
    ("direct_product", (("alternating", 4), ("cyclic", 2))),
    ("symmetric", (3,)),
    ("dihedral", (5,)),
    ("dihedral", (7,)),
)


def reference_extend_partial(G1, G2, known, gens):
    """Reference: the closure of a partial map under the mapped generators, as the search once ran it.

    Returns the extended map on the generated subgroup, or None on any
    conflict or loss of injectivity.
    """
    out = dict(known)
    used = set(out.values())
    if len(used) != len(out):
        return None
    queue = list(out.keys())
    while queue:
        a = queue.pop(0)
        fa = out[a]
        for g in gens:
            b = G1.mul[a][g]
            fb = G2.mul[fa][out[g]]
            prev = out.get(b)
            if prev is None:
                if fb in used:
                    return None
                out[b] = fb
                used.add(fb)
                queue.append(b)
            elif prev != fb:
                return None
    return out


def reference_is_homomorphism(hom):
    """Reference: one target element per source element, and all |G|^2 products compared."""
    img, tmul = hom.images, hom.target.mul
    if len(img) != hom.source.order or not set(img) <= set(range(hom.target.order)):
        return False
    return all(img[xy] == tmul[img[x]][img[y]] for x, row in enumerate(hom.source.mul) for y, xy in enumerate(row))


def reference_isomorphisms(G1, G2):
    """Reference: the search over partial maps, with the product check at each leaf."""
    if G1.order != G2.order or G1.order_multiset() != G2.order_multiset():
        return
    if G1.order == 1:
        yield GroupHom(G1, G2, (0,))
        return
    gens = minimal_generating_sequence(G1)
    candidates = [[y for y in range(G2.order) if G2.element_order(y) == G1.element_order(g)] for g in gens]

    def rec(i, known):
        if i == len(gens):
            if len(known) == G1.order:
                hom = GroupHom(G1, G2, tuple(known[x] for x in range(G1.order)))
                if reference_is_homomorphism(hom) and hom.is_bijective():
                    yield hom
            return
        for y in candidates[i]:
            ext = reference_extend_partial(G1, G2, {**known, gens[i]: y}, gens[: i + 1])
            if ext is not None:
                yield from rec(i + 1, ext)

    yield from rec(0, {0: 0})


class TestOneWalk:
    """The generator-edge walk against the partial-map search and the product table."""

    def test_search_matches_the_reference_on_the_benchmark_central_quotients(self):
        rng = random.Random(23)
        quotients = {}
        for family, params in BENCHMARK_POOL:
            G = builtin(family, params)
            Q, _ = quotient(G, center(G))
            quotients.setdefault(Q.mul, Q)
        assert len(quotients) == 13
        searched = 0
        for Q in quotients.values():
            R1, R2 = (relabeled(Q, [0] + rng.sample(range(1, Q.order), Q.order - 1)) for _ in range(2))
            for G1, G2 in ((Q, Q), (Q, R1), (R1, R2)):
                got = [hom.images for hom in isomorphisms_iter(G1, G2)]
                assert got == [hom.images for hom in reference_isomorphisms(G1, G2)], (Q.label, G1.label, G2.label)
                searched += len(got)
        assert searched > 3 * 20160  # GL(4, 2), the automorphisms of the central quotient of D4 x D4

    def test_is_homomorphism_matches_the_product_table_on_every_single_entry_corruption(self):
        _, proj = quotient(D4, derived_subgroup(D4))
        corrupted = 0
        for hom in (proj, GroupHom(Q8, Q8, tuple(range(8))), GroupHom(S3, S3, tuple(range(6)))):
            assert hom.is_homomorphism() and reference_is_homomorphism(hom)
            for x, v in itertools.product(range(hom.source.order), range(hom.target.order)):
                if v != hom.images[x]:
                    bad = GroupHom(hom.source, hom.target, hom.images[:x] + (v,) + hom.images[x + 1 :])
                    assert bad.is_homomorphism() == reference_is_homomorphism(bad), (hom.source.label, x, v)
                    corrupted += 1
        assert corrupted == 8 * 3 + 8 * 7 + 6 * 5

    def test_walk_names_the_first_edge_that_disagrees(self):
        # 1 -> 1 and 2 -> 3 set the images of 1 and 2 from the identity; the
        # edge from 1 along the generator 1 then reaches 2 with the image 2
        Z4 = cyclic(4)
        with pytest.raises(RelatorNotKilled, match=r"\(element 1, generator 0\)"):
            _extend_hom(Z4, Z4, [1, 2], [1, 3])
        assert _extend_hom(Z4, Z4, [1, 2], [1, 2]) == [0, 1, 2, 3]

    def test_walk_leaves_the_rest_of_the_source_unmapped(self):
        Z2 = cyclic(2)
        assert _extend_hom(V4, Z2, [1], [1]) == [0, 1, -1, -1]
        assert _extend_hom(V4, Z2, [], []) == [0, -1, -1, -1]


class TestCentralizerDescent:
    """abelian_subgroups and center against the BFS and loop references of subgroup_reference."""

    @staticmethod
    def check(G):
        got = [A.members for A in abelian_subgroups(G)]
        assert got == subgroup_reference.maximal_abelian_subgroups(G), G.label
        assert center(G).members == subgroup_reference.loop_center(G), G.label

    def test_corpus(self, corpus):
        assert len(corpus) == 35
        for G in corpus:
            self.check(G)

    def test_benchmark_pools_relabeled(self):
        rng = random.Random(28)
        for family, params in BENCHMARK_POOL:
            G = builtin(family, params)
            for _ in range(2):
                self.check(relabeled(G, [0] + rng.sample(range(1, G.order), G.order - 1)))

    def test_groups_of_order_64_to_243(self):
        D4xD4 = direct_product(D4, D4)
        B64 = build_from_permutations([perm(c) for c in B64_CYCLES], cap=64, degree=DEGREE, label="B64")
        larger = [
            direct_product(D4xD4, cyclic(2), label="D4xD4xZ2"),
            B64,
            build_from_permutations([perm(c) for c in N_CYCLES], cap=64, degree=DEGREE, label="N"),
            direct_product(B64, cyclic(2), label="B64xZ2"),
            group_243(B243_CYCLES, "B243"),
            group_243(B243B_CYCLES, "B243b"),
            group_243(B243C_CYCLES, "B243c"),
            group_243(T243_CYCLES, "T243"),
        ]
        for G in larger:
            self.check(G)


def table_fields(G):
    return G.mul, G.inv, G.label, G.element_names


class TestOneTabulator:
    """Every constructor's tabulated group against the loop that filled its table by hand."""

    S4 = builtin("symmetric", (4,))

    @pytest.mark.parametrize(
        "factors", [(D4, S3), (builtin("dihedral", (16,)), builtin("dihedral", (8,)))], ids=["D4xS3", "D16xD8"]
    )
    def test_direct_product(self, factors):
        G = direct_product(*factors)
        assert table_fields(G) == table_fields(table_reference.loop_direct_product(*factors))

    def test_relabeled(self):
        sigma = [0] + random.Random(24).sample(range(1, 24), 23)
        G = relabeled(self.S4, sigma)
        assert G.mul != self.S4.mul
        assert table_fields(G) == table_fields(table_reference.loop_relabeled(self.S4, sigma))

    def test_quotient(self):
        A4 = derived_subgroup(self.S4)
        V4 = Subgroup(self.S4, tuple(x for x in A4.members if self.S4.element_order(x) <= 2))
        D8 = builtin("dihedral", (8,))
        for G, N in ((self.S4, V4), (D8, center(D8))):
            Q, proj = quotient(G, N)
            ref_Q, ref_proj = table_reference.loop_quotient(G, N)
            assert Q.order == G.order // len(N)
            assert table_fields(Q) == table_fields(ref_Q)
            assert proj.images == ref_proj.images

    def test_subgroup_as_group(self):
        G = direct_product(builtin("alternating", (4,)), cyclic(2))
        D = derived_subgroup(G)
        assert len(D) == 4
        grp, members = D.as_group()
        ref_grp, ref_members = table_reference.loop_as_group(D)
        assert members == ref_members
        assert table_fields(grp) == table_fields(ref_grp)

    def test_build_from_permutations(self):
        three_cycles = [p for p in itertools.permutations(range(4)) if sum(p[i] != i for i in range(4)) == 3]
        assert len(three_cycles) == 8
        G = build_from_permutations(three_cycles, label="A4")
        assert G.order == 12
        assert table_fields(G) == table_fields(table_reference.loop_permutations(three_cycles, label="A4"))


class TestValidation:
    def test_every_corpus_group_satisfies_all_axioms(self, corpus):
        for G in corpus:
            validate_table(G.mul, G.inv)

    def test_latin_square_violation(self):
        with pytest.raises(ValidationError):
            from_mul_table([[0, 1], [1, 1]])

    def test_bad_identity(self):
        # 2x2 table where element 0 is not the identity
        with pytest.raises(ValidationError):
            from_mul_table([[1, 0], [0, 1]])

    def test_associativity_violation(self):
        # Latin square that is not a group: 5x5 from a nonassociative quasigroup
        t = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValidationError):
            from_mul_table(t)

    def test_relabel_must_fix_identity(self):
        with pytest.raises(ValidationError):
            relabeled(V4, [1, 0, 2, 3])

    def test_subgroup_not_closed_under_multiplication(self):
        # restricting a cocycle class to these members raised KeyError: 3
        S = Subgroup(D4, (0, 1, 2))
        assert any(D4.mul[x][y] not in S for x in S.members for y in S.members)
        with pytest.raises(ValidationError, match="not closed"):
            S.as_group()

    @pytest.mark.parametrize(
        "members, match",
        [
            ((), "identity"),
            ((0, 99), "99"),
            ((0, -1), "-1"),
            ((0.0,), "0.0"),
            ((0, True), "True"),
            ((0, 0, 4), "member 0 is repeated"),
        ],
    )
    def test_subgroup_members_must_be_element_indices(self, members, match):
        # () gave a group of order 0, 99 a bare IndexError, -1 the last
        # element, 0.0 a TypeError and a repeat a bare ValueError from tuple.index
        with pytest.raises(ValidationError, match=match):
            Subgroup(D4, members).as_group()
        with pytest.raises(ValidationError, match=match):
            abelian_invariants(Subgroup(D4, members))

    @pytest.mark.parametrize("seed", [[-1], [True], [6], [2.0], [2, "2"]])
    def test_closure_seed_must_be_element_indices(self, seed):
        # -1 became a member, True stood in for 1, 6 and 2.0 raised bare IndexError and TypeError
        with pytest.raises(ValidationError, match="seed element"):
            subgroup_closure(cyclic(6), seed)

    def test_one_sided_closure_matches_the_two_sided_one(self, corpus):
        rng = random.Random(19)
        for G in corpus:
            for size in (0, 1, 2, 3):
                seed = [rng.randrange(G.order) for _ in range(size)]
                have, queue = {0, *seed}, [0, *seed]
                while queue:  # closed under left and right products by the seed and inverses
                    x = queue.pop()
                    for y in [G.mul[x][g] for g in seed] + [G.mul[g][x] for g in seed] + [G.inv[x]]:
                        if y not in have:
                            have.add(y)
                            queue.append(y)
                assert subgroup_closure(G, seed).members == tuple(sorted(have)), (G.label, seed)

    def test_numpy_integer_members_are_accepted(self):
        sub, members = Subgroup(D4, tuple(np.arange(4))).as_group()
        assert sub.order == 4 and members == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "members, match",
        [((0, 7), "member 7"), ((0, -1), "member -1"), ((1, 2), "identity"), ((0, 1, 3, 4), "not closed")],
    )
    def test_quotient_rejects_members_that_are_not_a_subgroup(self, members, match):
        # 7 raised a bare IndexError, -1 was read as element 5 and (1, 2) gave NotNormal;
        # 1 and the three involutions are closed under conjugation and gave a "group" of order 3
        S3 = builtin("symmetric", (3,))
        with pytest.raises(ValidationError, match=match):
            quotient(S3, Subgroup(S3, members))


def validation_message(check, mul, inv):
    try:
        check(mul, inv)
    except ValidationError as exc:
        return str(exc)
    return None


def seeded_corruptions(G, rng):
    """(mul, inv) pairs that break one axiom of G's table each, with inv read off the rows as from_mul_table does."""
    n, base = G.order, [list(row) for row in G.mul]

    def case(mul, inv=None):
        mul = [tuple(row) for row in mul]
        return mul, inv if inv is not None else [row.index(0) if 0 in row else 0 for row in mul]

    i, j, k = rng.randrange(n), *rng.sample(range(n), 2)
    row = [list(r) for r in base]
    row[i][j] = rng.choice([v for v in range(-1, n + 1) if v != base[i][j]])
    yield case(row)  # a repeated or foreign entry in a row
    ragged = [list(r) for r in base]
    ragged[i] = ragged[i][:-1]
    yield case(ragged)
    ragged[0][0] = 1  # a bad row before the short one is named first
    yield case(ragged)
    column = [list(r) for r in base]
    column[i][j], column[i][k] = column[i][k], column[i][j]
    yield case(column)
    rows = [list(r) for r in base]
    rows[j], rows[k] = rows[k], rows[j]
    yield case(rows)  # a Latin square whose row 0 or column 0 is not the identity
    inv = list(G.inv)
    inv[j] = rng.choice([v for v in range(n) if v != G.inv[j]])
    yield case(base, inv)
    yield case(base, inv[:-1])
    # an intercalate ab = dc, ac = db away from 0: swapping it keeps a Latin loop with the same inverses
    row_of = {(v, c): d for d, r in enumerate(base) for c, v in enumerate(r)}
    blocks = [
        (a, b, c, d)
        for a in range(1, n)
        for b in range(1, n)
        for c in range(b + 1, n)
        for d in [row_of[base[a][b], c]]
        if d != 0 and base[d][b] == base[a][c] and 0 not in (base[a][b], base[a][c])
    ]
    if blocks:
        a, b, c, d = rng.choice(blocks)
        loop = [list(r) for r in base]
        loop[a][b], loop[a][c], loop[d][b], loop[d][c] = loop[a][c], loop[a][b], loop[d][c], loop[d][b]
        yield case(loop)


class TestValidateTableInArrays:
    """validate_table against the Python loop of table_reference on seeded corruptions of the corpus tables."""

    def test_seeded_corruptions_raise_the_loop_message(self, corpus):
        rng = random.Random(30)
        seen = set()
        for G in corpus:
            assert validate_table(G.mul, G.inv) is None
            if G.order < 3:
                continue
            for mul, inv in seeded_corruptions(G, rng):
                got = validation_message(validate_table, mul, inv)
                assert got == validation_message(table_reference.loop_validate_table, mul, inv), G.label
                if got is not None:
                    seen.add(re.sub(r"-?\d+", "#", got))
        assert seen == {
            "row # is not a permutation (Latin square violated)",
            "row # has length #, expected #",
            "column # is not a permutation (Latin square violated)",
            "element # is not a two-sided identity",
            "inverse table length mismatch",
            "inv[#] is not a two-sided inverse",
            "associativity fails at (#, #, #)",
        }

    @pytest.mark.parametrize("x, entry", [(1, True), (2, -1), (2, 5.0), (2, 6)])
    def test_inverse_entries_must_be_element_indices(self, x, entry):
        # True and -1 were read as the inverses 1 and 5 and accepted, 5.0 raised a bare
        # TypeError in the loop and was cast to 5 by an array, 6 raised a bare IndexError
        S3 = builtin("symmetric", (3,))
        inv = list(S3.inv)
        inv[x] = entry
        with pytest.raises(ValidationError, match="inverse entry"):
            validate_table(S3.mul, inv)


def groups_for_table_reads():
    """B64, N, D4 x D4 x Z2 and the four order-243 groups of test_nontrivial_b0."""
    B64 = build_from_permutations([perm(c) for c in B64_CYCLES], cap=64, degree=DEGREE, label="B64")
    return [
        B64,
        build_from_permutations([perm(c) for c in N_CYCLES], cap=64, degree=DEGREE, label="N"),
        direct_product(direct_product(D4, D4), cyclic(2), label="D4xD4xZ2"),
        group_243(B243_CYCLES, "B243"),
        group_243(B243B_CYCLES, "B243b"),
        group_243(B243C_CYCLES, "B243c"),
        group_243(T243_CYCLES, "T243"),
    ]


class TestTableReads:
    """Element orders, abelian and normal tests, closures and the invariant census against the loops of table_reference."""

    @staticmethod
    def check(G, subgroups, rng):
        """Compare every read on G and on each member tuple; return how many of them are not normal."""
        orders = [table_reference.loop_element_order(G, x) for x in range(G.order)]
        assert [G.element_order(x) for x in range(G.order)] == orders, G.label
        assert G.order_multiset() == tuple(sorted(orders)), G.label
        assert G.is_abelian() == table_reference.loop_is_abelian(G), G.label
        if G.is_abelian():
            assert abelian_invariants(G) == table_reference.census_invariants(G), G.label
        for size in (0, 1, 2, 3):
            seed = [rng.randrange(G.order) for _ in range(size)]
            assert subgroup_closure(G, seed) == table_reference.bfs_closure(G, seed), (G.label, seed)
        not_normal = 0
        for members in subgroups:
            S = Subgroup(G, members)
            abelian = table_reference.loop_subgroup_is_abelian(S)
            assert S.is_abelian() == abelian, (G.label, members)
            normal = table_reference.loop_is_normal(S)
            assert S.is_normal() == normal, (G.label, members)
            not_normal += not normal
            if abelian:
                assert abelian_invariants(S) == table_reference.census_invariants(S), (G.label, members)
        return not_normal

    def test_corpus_and_every_abelian_subgroup(self, corpus):
        rng = random.Random(301)
        not_normal = 0
        for G in corpus:
            subs = set(subgroup_reference.all_abelian_subgroups(G))
            subs |= {derived_subgroup(G).members, tuple(range(G.order))}
            not_normal += self.check(G, sorted(subs), rng)
        assert not_normal >= 60

    def test_benchmark_pools_relabeled(self):
        rng = random.Random(302)
        not_normal = 0
        for family, params in BENCHMARK_POOL:
            G = builtin(family, params)
            for _ in range(2):
                R = relabeled(G, [0] + rng.sample(range(1, G.order), G.order - 1))
                subs = {A.members for A in abelian_subgroups(R)} | {subgroup_closure(R, [x]).members for x in range(R.order)}
                subs |= {center(R).members, derived_subgroup(R).members, tuple(range(R.order))}
                not_normal += self.check(R, sorted(subs), rng)
        assert not_normal >= 400

    def test_groups_of_order_64_to_243(self):
        rng = random.Random(303)
        not_normal = 0
        for G in groups_for_table_reads():
            subs = {A.members for A in abelian_subgroups(G)}
            subs |= {subgroup_closure(G, [x]).members for x in rng.sample(range(G.order), 12)}
            subs |= {center(G).members, derived_subgroup(G).members, tuple(range(G.order))}
            not_normal += self.check(G, sorted(subs), rng)
        assert not_normal >= 150


class TestElementOrderChecksItsArgument:
    @pytest.mark.parametrize("x", [-1, 6, True, 2.0, "1"])
    def test_non_elements_are_rejected(self, x):
        # at the parent -1 read element 5 through NumPy's wrap-around, 6 raised a bare
        # IndexError and True a bare TypeError
        S3 = builtin("symmetric", (3,))
        with pytest.raises(ValidationError, match="element .* is not an integer or lies outside"):
            S3.element_order(x)

    def test_numpy_integers_are_elements(self):
        S3 = builtin("symmetric", (3,))
        assert [S3.element_order(np.int64(x)) for x in range(6)] == [S3.element_order(x) for x in range(6)]


class TestInvariantFactorsByGcdAndLcm:
    """invariant_factors_from_orders against the per-prime chain of table_reference."""

    def test_seeded_random_order_lists(self):
        rng = random.Random(311)
        # small primes and their powers make long chains; the values up to 5000 bring other primes
        values = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 25, 27, 32, 36, 49, 64, 81, 97, 100, 243, 720, 1001]
        for _ in range(20000):
            orders = [rng.choice(values) if rng.random() < 0.8 else rng.randrange(1, 5000) for _ in range(rng.randrange(9))]
            if rng.random() < 0.2:
                orders.append(rng.randrange(-3, 2))  # orders below 2 are dropped by both
            assert invariant_factors_from_orders(orders) == table_reference.factorised_chain(orders), orders


class TestMinimalGeneratingSequenceSkipsCoveredCandidates:
    """The greedy sequence against table_reference's loop, which computes every candidate's closure."""

    def test_corpus(self, corpus):
        for G in corpus:
            assert minimal_generating_sequence(G) == table_reference.loop_minimal_generating_sequence(G), G.label

    def test_benchmark_pools_relabeled(self):
        rng = random.Random(313)
        for family, params in BENCHMARK_POOL:
            G = builtin(family, params)
            R = relabeled(G, [0] + rng.sample(range(1, G.order), G.order - 1))
            for H in (G, R):
                assert minimal_generating_sequence(H) == table_reference.loop_minimal_generating_sequence(H), H.label

    def test_groups_of_order_64_to_243(self):
        for G in groups_for_table_reads():
            assert minimal_generating_sequence(G) == table_reference.loop_minimal_generating_sequence(G), G.label

    def test_fewer_closures(self, monkeypatch):
        import grouplab.groups as groups_module

        G = groups_for_table_reads()[3]  # B243
        counts = {}
        for module in (groups_module, table_reference):
            real = module.subgroup_closure
            calls = counts[module.__name__] = []
            monkeypatch.setattr(module, "subgroup_closure", lambda H, seed, real=real, calls=calls: calls.append(1) or real(H, seed))
        assert minimal_generating_sequence(G) == table_reference.loop_minimal_generating_sequence(G)
        assert 5 * len(counts["grouplab.groups"]) < len(counts["table_reference"])


class TestInputChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: from_mul_table([]), "empty multiplication table", id="empty table"),
            pytest.param(
                lambda: from_mul_table([[0, 1], [1, 0]], element_names=["a"]),
                "element_names length mismatch",
                id="names length",
            ),
            pytest.param(
                lambda: relabeled(builtin("symmetric", (3,)), [0, 1, 1, 2, 3, 4]),
                "relabeling is not a permutation",
                id="relabeling repeats",
            ),
            pytest.param(
                lambda: relabeled(builtin("symmetric", (3,)), [0, 1, 2]),
                "relabeling is not a permutation",
                id="relabeling too short",
            ),
            pytest.param(
                lambda: quotient(builtin("symmetric", (3,)), center(builtin("dihedral", (4,)))),
                "subgroup does not belong to this group",
                id="quotient by another group's subgroup",
            ),
            pytest.param(
                lambda: AbelianInvariants((4, 2)),
                re.escape("invariant factors (4, 2) not a divisibility chain"),
                id="factors not a chain",
            ),
            pytest.param(lambda: AbelianInvariants((1,)), "invariant factors must all exceed 1", id="factor 1"),
        ],
    )
    def test_rejected_with_its_message(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


class TestIntegerArguments:
    """Each integer argument is an int or a NumPy integer, never a bool, in range."""

    @pytest.mark.parametrize("entry", [1.0, True, -1, 6], ids=["float", "bool", "negative", "past the end"])
    def test_relabelings_and_images_are_element_indices(self, entry):
        # at the parent 1.0 and True relabeled S3, and (0, True, 2, 3, 4, 5) was a homomorphism
        S3 = builtin("symmetric", (3,))
        images = (0, entry, 2, 3, 4, 5)
        with pytest.raises(ValidationError, match=re.escape(f"relabeling entry {entry!r} is not an integer or lies outside [0, 6)")):
            relabeled(S3, images)
        assert not GroupHom(S3, S3, images).is_homomorphism()
        assert GroupHom(S3, S3, tuple(np.arange(6))).is_homomorphism()

    @pytest.mark.parametrize(
        "generators, kwargs, match",
        [
            ([], {"degree": -1}, "degree -1 is not an integer or lies below 0"),
            ([], {"degree": 2.5}, "degree 2.5 is not an integer"),
            ([], {"degree": True}, "degree True is not an integer"),
            ([[1, 0]], {"cap": True}, "cap True is not an integer"),
            ([[1, 0]], {"cap": 2.5}, "cap 2.5 is not an integer"),
            ([[1, 0]], {"cap": -1}, "cap -1 is not an integer or lies below 0"),
            ([[1, 0]], {"cap": None}, "cap None is not an integer"),
        ],
        ids=["degree -1", "degree 2.5", "degree True", "cap True", "cap 2.5", "cap -1", "cap None"],
    )
    def test_build_from_permutations_reads_its_cap_and_degree(self, generators, kwargs, match):
        # at the parent degree -1 gave an order-1 group, 2.5 a bare TypeError, True was read as 1,
        # and so was a cap of True
        with pytest.raises(ValidationError, match=match):
            build_from_permutations(generators, **kwargs)
        with pytest.raises(ClosureExceedsCap):  # a cap of 0 is still a cap
            build_from_permutations([[1, 0]], cap=0)
