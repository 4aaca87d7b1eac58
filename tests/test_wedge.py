"""Pairing presentations, kappa, kernels, and pairing axioms."""

import dataclasses
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from grouplab import isoclinism, wedge
from grouplab.catalog import builtin, load_catalog
from grouplab.errors import (
    CosetLimitExceeded,
    GroupTooLarge,
    InternalCheckFailed,
    NotAPairing,
    PairingAxiomFailed,
    RelatorNotKilled,
    ValidationError,
)
from grouplab.fpgroups import Presentation, preprocess_relators, realize, todd_coxeter
from grouplab.groups import (
    commutator_table,
    derived_subgroup,
    direct_product,
    from_mul_table,
    relabeled,
    subgroup_closure,
    table_arrays,
)
from grouplab.wedge import (
    WedgeVariant,
    bogomolov_kernel,
    build_wedge_presentation,
    check_pairing,
    compute_wedge,
    exterior_to_curly_surjection,
    hom_from_generator_images,
    multiplier_order,
    pairing_to_hom,
)
from grouplab.isoclinism import build_gamma, identity_witness, verify_witness
from grouplab.lattices import orth_complement
from certificate_reference import first_failing_block, rows_die
from word_reference import walked_and_worded, word_fold_hom


def cyclic(n):
    return from_mul_table([[(i + j) % n for j in range(n)] for i in range(n)], label=f"Z{n}")


S3 = builtin("symmetric", (3,))
Z2 = cyclic(2)
Z4 = cyclic(4)
V4 = direct_product(Z2, Z2, label="V4")
D4 = builtin("dihedral", (4,))
Q8 = builtin("quaternion8")


S4 = builtin("symmetric", (4,))
S3xZ2 = builtin("direct_product", (("symmetric", 3), ("cyclic", 2)))
D4xZ2 = builtin("direct_product", (("dihedral", 4), ("cyclic", 2)))
CORPUS = load_catalog(Path(__file__).resolve().parent.parent / "catalog")


def loop_raw_relators(G, variant):
    """The raw pairing relators built pair by pair: the reference for the numpy builder."""
    n = G.order

    def gen(m, k):
        return m * n + k + 1

    rels = []
    for m in range(n):
        for mp in range(n):
            for k in range(n):
                rels.append((-gen(G.mul[m][mp], k), gen(G.conj(m, mp), G.conj(m, k)), gen(m, k)))
    for m in range(n):
        for k in range(n):
            for kp in range(n):
                rels.append((-gen(m, G.mul[k][kp]), gen(m, k), gen(G.conj(k, m), G.conj(k, kp))))
    if variant is WedgeVariant.CURLY:
        rels += [(gen(x, y),) for x in range(n) for y in range(n) if G.comm(x, y) == 0]
    else:
        rels += [(gen(x, x),) for x in range(n)]
    return rels


def loop_check_pairing(G, L, phi):
    """The pairing axioms checked entry by entry: the reference for check_pairing."""
    n = G.order
    lmul = L.mul
    for x in range(n):
        for y in range(n):
            if G.comm(x, y) == 0 and phi[x][y] != 0:
                return False
    for m in range(n):
        conj_m = [G.conj(m, t) for t in range(n)]
        phim = phi[m]
        for mp in range(n):
            lhs_row = phi[G.mul[m][mp]]
            mid_row = phi[conj_m[mp]]
            for nn in range(n):
                if lhs_row[nn] != lmul[mid_row[conj_m[nn]]][phim[nn]]:
                    return False
    for m in range(n):
        phim = phi[m]
        for nn in range(n):
            conj_nn = [G.conj(nn, t) for t in range(n)]
            row = G.mul[nn]
            mid_row = phi[conj_nn[m]]
            for np_ in range(n):
                if phim[row[np_]] != lmul[phim[nn]][mid_row[conj_nn[np_]]]:
                    return False
    return True


class TestPresentation:
    def test_generator_count_is_order_squared(self):
        for G in (Z2, S3):
            wp = build_wedge_presentation(G, WedgeVariant.CURLY)
            assert wp.raw_presentation().num_generators == G.order**2
            assert len(wp.pair_letters) == G.order**2

    def test_z2_curly_collapses_every_generator(self):
        wp = build_wedge_presentation(Z2, WedgeVariant.CURLY)
        assert wp.r3_count == 4  # every pair commutes
        table = compute_wedge(Z2, WedgeVariant.CURLY)
        assert table.order == 1

    def test_s3_raw_relator_counts(self):
        wp = build_wedge_presentation(S3, WedgeVariant.CURLY)
        assert wp.r1_count == 216
        assert wp.r2_count == 216

    def test_raw_presentation_matches_loop_reference(self):
        for G in (S3, D4, Q8):
            for variant in WedgeVariant:
                wp = build_wedge_presentation(G, variant)
                rels = loop_raw_relators(G, variant)
                assert wp.r1_count + wp.r2_count + wp.r3_count == len(rels)
                assert wp.raw_presentation().relators == preprocess_relators(rels)

    def test_curly_relators_contain_exterior(self):
        cur = build_wedge_presentation(S3, WedgeVariant.CURLY)
        ext = build_wedge_presentation(S3, WedgeVariant.EXTERIOR)
        # diagonal pairs commute, so every exterior collapsing relator
        # appears among the curly ones
        cur_set = set(cur.raw_presentation().relators)
        for w in ext.raw_presentation().relators:
            if len(w) == 1:
                assert w in cur_set

    def test_cap_enforced(self):
        with pytest.raises(GroupTooLarge):
            build_wedge_presentation(builtin("cyclic", (17,)), WedgeVariant.EXTERIOR)

    def test_relator_trace_through_commutators(self):
        for G in (S3, D4, Q8, V4):
            for variant in WedgeVariant:
                assert check_pairing(G, G, commutator_table(G), variant)

    def test_relator_trace_rejects_corrupted_commutator(self):
        for variant in WedgeVariant:
            values = [[S3.comm(m, n) for n in range(6)] for m in range(6)]
            assert check_pairing(S3, S3, values, variant)
            values[1][2] = S3.mul[values[1][2]][1]
            assert not check_pairing(S3, S3, values, variant)

    def test_relator_trace_reads_raw_relators(self):
        # the relators of relabeled copies speak of other elements
        for G in (S3, D4):
            perm = [0] + list(range(2, G.order)) + [1]
            for variant in WedgeVariant:
                assert not check_pairing(relabeled(G, perm), G, commutator_table(G), variant)

    def test_reduction_eliminates_pairs(self):
        wp = build_wedge_presentation(S4, WedgeVariant.CURLY)
        assert wp.presentation.num_generators == 7
        assert len(wp.presentation.relators) < 100
        assert wp.r1_count == wp.r2_count == 24**3
        for x in range(24):
            for y in range(24):
                if S4.comm(x, y) == 0:
                    assert wp.pair_letters[x * 24 + y] == 0
        used = {abs(ltr) for ltr in wp.pair_letters}
        assert used == set(range(8))

    def test_identity_pairs_die_in_both_variants(self):
        for G in (S3, D4, Q8):
            for variant in WedgeVariant:
                wp = build_wedge_presentation(G, variant)
                for x in range(G.order):
                    assert wp.pair_letters[x] == 0  # the pair (1, x)
                    assert wp.pair_letters[x * G.order] == 0  # the pair (x, 1)


class TestComputeWedge:
    def test_abelian_curly_trivial(self):
        for G in (Z2, Z4, V4, cyclic(6)):
            wr = compute_wedge(G, WedgeVariant.CURLY)
            assert wr.order == 1
            assert len(wr.kernel) == 1

    def test_s3_curly(self):
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        assert wr.order == 3
        assert len(wr.kernel) == 1
        # kappa is injective here, hence an isomorphism onto the derived subgroup
        assert len(set(wr.kappa.images)) == 3
        assert set(wr.kappa.images) == set(derived_subgroup(S3).members)

    def test_v4_exterior(self):
        wr = compute_wedge(V4, WedgeVariant.EXTERIOR)
        assert wr.order == 2
        assert len(wr.kernel) == 2
        assert set(wr.kappa.images) == {0}

    def test_kappa_and_kernel_are_built_once_and_kept(self, monkeypatch):
        calls = []

        def counting(source, target, table, build=wedge.hom_from_generator_images):
            calls.append(target)
            return build(source, target, table)

        monkeypatch.setattr(wedge, "hom_from_generator_images", counting)
        wr = compute_wedge(D4, WedgeVariant.CURLY)
        for _ in range(3):
            assert wr.kappa is wr.kappa and wr.kernel is wr.kernel
        assert calls == [D4]  # compute_wedge's one read of kappa

    def test_identity_pair_images_trivial(self):
        table = compute_wedge(S3, WedgeVariant.CURLY).pair_table()
        for x in range(S3.order):
            assert table[0, x] == 0
            assert table[x, 0] == 0

    def test_kappa_on_pairs_is_commutator(self):
        wr = compute_wedge(D4, WedgeVariant.CURLY)
        for m in range(D4.order):
            for n in range(D4.order):
                assert wr.kappa.images[wr.pair_table()[m, n]] == D4.comm(m, n)

    def test_exactness(self):
        for G in (S3, D4, Q8):
            for variant in WedgeVariant:
                wr = compute_wedge(G, variant)
                assert wr.order == len(wr.kernel) * len(derived_subgroup(G))

    def test_curly_divides_exterior(self):
        for G in (S3, D4, Q8, V4):
            cur = compute_wedge(G, WedgeVariant.CURLY)
            ext = compute_wedge(G, WedgeVariant.EXTERIOR)
            assert ext.order % cur.order == 0
            hom = exterior_to_curly_surjection(ext, cur)
            assert set(hom.images) == set(range(cur.order))


class TestReductionCertificate:
    """compute_wedge rejects a pair map that the reduction did not derive."""

    @staticmethod
    def _tampered(G, variant, change):
        wp = build_wedge_presentation(G, variant)
        letters = list(wp.pair_letters)
        change(letters)
        return dataclasses.replace(wp, pair_letters=tuple(letters))

    @pytest.mark.parametrize(
        "change",
        [
            lambda ls: ls.__setitem__(ls.index(1), -1),  # one pair image inverted
            lambda ls: ls.__setitem__(ls.index(1), 0),  # one pair wrongly killed
            lambda ls: ls.__setitem__(ls.index(2), 1),  # one pair wrongly merged
        ],
        ids=["inverted", "killed", "merged"],
    )
    def test_tampered_pair_map_rejected(self, monkeypatch, change):
        bad = self._tampered(S4, WedgeVariant.CURLY, change)
        monkeypatch.setattr(wedge, "build_wedge_presentation", lambda *args, **kwargs: bad)
        with pytest.raises(RelatorNotKilled, match="raw curly relator"):
            compute_wedge(S4, WedgeVariant.CURLY)

    def test_untampered_pair_map_accepted(self, monkeypatch):
        good = self._tampered(S4, WedgeVariant.CURLY, lambda ls: None)
        monkeypatch.setattr(wedge, "build_wedge_presentation", lambda *args, **kwargs: good)
        assert compute_wedge(S4, WedgeVariant.CURLY).order == 12


class TestCorpusWide:
    def test_exterior_surjects_onto_curly(self, corpus, curly_wedges, exterior_wedges):
        for G in corpus:
            cur = curly_wedges[G.label]
            ext = exterior_wedges[G.label]
            assert ext.order % cur.order == 0, G.label
            hom = exterior_to_curly_surjection(ext, cur)
            assert set(hom.images) == set(range(cur.order)), G.label

    def test_pair_table_reads_pair_images(self, corpus, curly_wedges, exterior_wedges):
        for G in corpus:
            for wr in (curly_wedges[G.label], exterior_wedges[G.label]):
                assert len(wr.realization.gen_images) == wr.presentation.presentation.num_generators
                table = wr.pair_table()
                assert table.shape == (G.order, G.order)
                assert wr.pair_table() is table and not table.flags.writeable  # kept, and shared read-only
                for m in range(G.order):
                    for n in range(G.order):
                        letter = wr.presentation.pair_letters[m * G.order + n]
                        assert table[m, n] == wr.realization.evaluate((letter,) if letter else ())

    def test_identity_pair_images_trivial_everywhere(self, corpus, curly_wedges):
        for G in corpus:
            table = curly_wedges[G.label].pair_table()
            for x in range(G.order):
                assert table[0, x] == 0
                assert table[x, 0] == 0

    def test_curly_kernel_abelian(self, corpus, curly_wedges):
        for G in corpus:
            assert curly_wedges[G.label].kernel.is_abelian()


class TestKernels:
    def test_bogomolov_trivial_for_small_groups(self):
        for G in (Z4, S3, D4, Q8):
            assert bogomolov_kernel(G).factors == ()

    @pytest.mark.parametrize(
        "name,params,expected",
        [("cyclic", (5,), 1), ("cyclic", (8,), 1), ("quaternion8", (), 1)],
    )
    def test_multiplier_small(self, name, params, expected):
        assert multiplier_order(builtin(name, params)) == expected

    def test_multiplier_v4(self):
        assert multiplier_order(V4) == 2

    def test_multiplier_abelian_matches_exterior_square(self):
        # for a product of cyclic groups Z_d1 x ... the multiplier is
        # the product of gcd(di, dj) over i < j
        from math import gcd

        cases = [((2, 2), 2), ((2, 4), 2), ((4, 4), 4), ((2, 2, 2), 8)]
        for ds, expected in cases:
            G = cyclic(ds[0])
            for d in ds[1:]:
                G = direct_product(G, cyclic(d))
            check = 1
            for i in range(len(ds)):
                for j in range(i + 1, len(ds)):
                    check *= gcd(ds[i], ds[j])
            assert check == expected
            assert multiplier_order(G) == expected

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for G in (S3, D4):
            base = bogomolov_kernel(G).factors
            for _ in range(3):
                perm = [0] + rng.sample(range(1, G.order), G.order - 1)
                assert bogomolov_kernel(relabeled(G, perm)).factors == base


class TestPairings:
    def test_trivial_pairing(self):
        L = cyclic(1)
        phi = [[0] * 6 for _ in range(6)]
        assert check_pairing(S3, L, phi)

    def test_commutator_map_is_pairing(self):
        for G in (S3, D4, Q8):
            assert check_pairing(G, G, commutator_table(G).tolist())

    def test_pair_image_map_is_pairing(self):
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        assert check_pairing(S3, wr.realization.group, wr.pair_table().tolist())

    def test_the_variant_picks_the_collapsing_relators(self):
        # M(D4) = Z/2 while B0(D4) = 0: the exterior pair table sends a commuting pair off 1
        ext, cur = compute_wedge(D4, WedgeVariant.EXTERIOR), compute_wedge(D4, WedgeVariant.CURLY)
        assert check_pairing(D4, ext.realization.group, ext.pair_table(), WedgeVariant.EXTERIOR)
        assert not check_pairing(D4, ext.realization.group, ext.pair_table(), WedgeVariant.CURLY)
        assert not check_pairing(D4, ext.realization.group, ext.pair_table())  # CURLY by default
        for variant in WedgeVariant:
            assert check_pairing(D4, cur.realization.group, cur.pair_table(), variant)

    def test_abelian_multiplication_is_not_pairing(self):
        phi = [[Z4.mul[a][b] for b in range(4)] for a in range(4)]
        assert not check_pairing(Z4, Z4, phi)

    def test_pairing_to_hom_identity(self):
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        hom = pairing_to_hom(S3, wr.realization.group, wr.pair_table().tolist(), wr)
        assert hom.images == tuple(range(wr.order))

    def test_pairing_to_hom_commutator_recovers_kappa(self):
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        hom = pairing_to_hom(S3, S3, commutator_table(S3).tolist(), wr)
        assert hom.images == wr.kappa.images

    def test_pairing_to_hom_trivial(self):
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        L = cyclic(1)
        phi = [[0] * 6 for _ in range(6)]
        hom = pairing_to_hom(S3, L, phi, wr)
        assert set(hom.images) == {0}

    def test_matches_loop_reference(self):
        """check_pairing agrees with the entry-by-entry axioms, on pairings and corruptions."""
        outcomes = set()
        for G in (S3, D4, Q8, S3xZ2, D4xZ2):
            candidates = [(G, commutator_table(G).tolist())]
            # an EXTERIOR pair table breaks only collapsing relators when the multiplier is nontrivial
            for variant in WedgeVariant:
                wr = compute_wedge(G, variant)
                candidates.append((wr.realization.group, wr.pair_table().tolist()))
            for L, table in candidates:
                tables = [table]
                for m in range(G.order):
                    for n in range(G.order):
                        bad = [list(row) for row in table]
                        bad[m][n] = (bad[m][n] + 1) % L.order
                        tables.append(bad)
                for phi in tables:
                    expected = loop_check_pairing(G, L, phi)
                    assert check_pairing(G, L, phi) == expected, G.label
                    outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "phi",
        [
            [[0] * 6 for _ in range(5)],  # five rows
            [[0] * 6 for _ in range(5)] + [[0] * 5],  # ragged
            [[0] * 6 for _ in range(5)] + [[0] * 5 + [3]],  # entry outside L
            [[0] * 6 for _ in range(5)] + [[0] * 5 + [-3]],  # negative entry; indexing would wrap it to 0
            [[0.0] * 6 for _ in range(6)],  # not integers
        ],
        ids=["rows", "ragged", "out-of-range", "negative", "float"],
    )
    def test_malformed_table_is_not_a_pairing(self, phi):
        L = cyclic(3)
        assert not check_pairing(S3, L, phi)
        with pytest.raises(NotAPairing):
            pairing_to_hom(S3, L, phi, compute_wedge(S3, WedgeVariant.CURLY))

    def test_non_pairing_rejected(self):
        wr = compute_wedge(Z4, WedgeVariant.CURLY)
        phi = [[Z4.mul[a][b] for b in range(4)] for a in range(4)]
        with pytest.raises(NotAPairing):
            pairing_to_hom(Z4, Z4, phi, wr)


def first_pair(wp, kind):
    """The first pair (m, n) that carries a positive letter but is not its root pair, a negative letter, or is dead off the identity."""
    n, seen = wp.base.order, set()
    for p, ltr in enumerate(wp.pair_letters):
        if {"positive": ltr > 0 and ltr in seen, "negative": ltr < 0, "dead": ltr == 0 and p // n and p % n}[kind]:
            return divmod(p, n)
        seen.add(ltr)


class TestPairComparison:
    """Every map out of a realization compares its extension with the table at every pair.

    Each table below is wrong at one pair that no letter's image is read
    from, so the walk over the letters passes and only that comparison
    can fail.
    """

    @pytest.mark.parametrize("kind", ["positive", "negative", "dead"])
    @pytest.mark.parametrize("G", [D4, S4], ids=["D4", "S4"])
    def test_a_wrong_entry_off_the_root_pairs_is_caught(self, monkeypatch, G, kind):
        wr = compute_wedge(G, WedgeVariant.CURLY)
        m, n = first_pair(wr.presentation, kind)
        message = rf"differs from the table at the pair \({m}, {n}\)"

        def corrupt(table, order):
            bad = np.array(table)
            bad[m, n] = (bad[m, n] + 1) % order
            return bad

        # kappa, built afresh on a copy from a corrupted commutator table
        monkeypatch.setattr(wedge, "commutator_table", lambda K: corrupt(commutator_table(K), K.order))
        with pytest.raises(RelatorNotKilled, match=message):
            dataclasses.replace(wr).kappa
        monkeypatch.undo()
        with pytest.raises(NotAPairing, match=message):
            pairing_to_hom(G, wr.realization.group, corrupt(wr.pair_table(), wr.order), wr)
        # gamma of the identity witness, whose induced table is the pair table itself
        w = identity_witness(G)
        assert build_gamma(w, wr, wr).gamma.images == tuple(range(wr.order))
        induced = isoclinism._pair_table  # the witness's verdict is kept, so only gamma's table is corrupted
        monkeypatch.setattr(isoclinism, "_pair_table", lambda *args: corrupt(induced(*args), wr.order))
        assert verify_witness(w)
        with pytest.raises(PairingAxiomFailed) as failed:
            build_gamma(w, wr, wr)
        assert isinstance(failed.value.__cause__, RelatorNotKilled)
        assert re.search(message, str(failed.value.__cause__))


def whole_array_eliminate(rows, num_letters):
    """Reference: _eliminate as it was when every round mapped and sorted all raw rows at once."""
    letters = np.arange(num_letters + 1, dtype=np.int64)
    base = 2 * num_letters + 1
    while True:
        rows, length = wedge._reduce_rows(np.sign(rows) * letters[np.abs(rows)])
        key = ((rows[:, 0] + num_letters) * base + rows[:, 1] + num_letters) * base + rows[:, 2]
        _, first = np.unique(key[length > 0], return_index=True)
        rows, length = rows[length > 0][first], length[length > 0][first]
        ident = (length == 2) & (rows[:, 0] != rows[:, 1])
        x = np.concatenate([rows[length == 1, 0], rows[ident, 0]])
        y = np.concatenate([np.zeros(np.count_nonzero(length == 1), dtype=np.int64), -rows[ident, 1]])
        if not len(x):
            return letters, rows
        hi, lo = np.maximum(np.abs(x), np.abs(y)), np.minimum(np.abs(x), np.abs(y))
        s = np.sign(x) * np.where(y < 0, -1, 1)
        order = np.lexsort((lo, hi))
        hi, lo, s = hi[order], lo[order], s[order]
        first = np.flatnonzero(np.diff(hi, prepend=-1))
        root = np.arange(num_letters + 1, dtype=np.int64)
        sign = np.ones(num_letters + 1, dtype=np.int64)
        root[hi[first]], sign[hi[first]] = lo[first], s[first]
        while np.any(root[root] != root):
            sign, root = sign * sign[root], root[root]
        letters = np.sign(letters) * sign[np.abs(letters)] * root[np.abs(letters)]


def whole_array_presentation(G, variant, S=None):
    """Reference: the rows over S (all raw rows without S) eliminated at once by whole_array_eliminate."""
    letters, kept = whole_array_eliminate(wedge._raw_relator_rows(G, variant, range(G.order), S), G.order**2)
    roots = np.flatnonzero(letters == np.arange(len(letters)))[1:]
    renumber = np.zeros(len(letters), dtype=np.int64)
    renumber[roots] = np.arange(1, len(roots) + 1)
    letters = np.sign(letters) * renumber[np.abs(letters)]
    kept = np.sign(kept) * renumber[np.abs(kept)]
    pres = Presentation(
        num_generators=len(roots),
        relators=preprocess_relators([tuple(x for x in w if x) for w in kept.tolist()]),
        label=f"{G.label}-{variant.value}",
    )
    return wedge.WedgePresentation(variant, G, pres, tuple(letters[1:].tolist()), 0, 0, 0)


def realized(wp):
    """The realization of wp, with kappa and its kernel built at first use and not verified."""
    return wedge.WedgeRealization(wp.variant, wp.base, wp, realize(wp.presentation, todd_coxeter(wp.presentation, ())))


# the curly-large benchmark pool up to order 32
POOL_UP_TO_32 = (
    builtin("dihedral", (16,)),
    builtin("direct_product", (("dihedral", 4), ("cyclic", 4))),
    builtin("direct_product", (("quaternion8",), ("cyclic", 4))),
    S4,
    builtin("dicyclic", (6,)),
)
D4xD4 = builtin("direct_product", (("dihedral", 4), ("dihedral", 4)))
A4xZ4 = builtin("direct_product", (("alternating", 4), ("cyclic", 4)))
# the curly-large benchmark pool
CURLY_LARGE_POOL = POOL_UP_TO_32 + (D4xD4, A4xZ4)
# the groups of the oracle-small and families-dense benchmark pools outside it
OTHER_BENCHMARK_GROUPS = tuple(
    builtin(family, params)
    for family, params in (
        ("dihedral", (4,)), ("quaternion8", ()), ("alternating", (4,)), ("dihedral", (6,)),
        ("dicyclic", (3,)), ("dihedral", (8,)), ("dicyclic", (4,)), ("elementary", (2, 4)),
        ("direct_product", (("dihedral", 4), ("cyclic", 2))),
        ("direct_product", (("quaternion8",), ("cyclic", 2))),
        ("direct_product", (("cyclic", 4), ("cyclic", 4))),
        ("dihedral", (9,)), ("dihedral", (10,)), ("dicyclic", (5,)), ("dihedral", (12,)),
        ("direct_product", (("alternating", 4), ("cyclic", 2))),
        ("symmetric", (3,)), ("dihedral", (5,)), ("dihedral", (7,)),
    )
)


def one_m_per_block(monkeypatch, G):
    monkeypatch.setattr(wedge, "_BLOCK_ROWS", 2 * G.order**2)


def counting_blocks(monkeypatch):
    """The list that records the range of elements m of each block ``wedge._axioms_hold`` reads from now on."""
    calls = []
    original = wedge._axioms_hold

    def counting(G, variant, L, P, ms):
        calls.append(ms)
        return original(G, variant, L, P, ms)

    monkeypatch.setattr(wedge, "_axioms_hold", counting)
    return calls


class TestBlockedElimination:
    """The streamed int32 elimination against the whole-array one it replaced."""

    def test_matches_whole_array_elimination(self):
        rng = random.Random(10)
        # two relabelings each up to order 32, and one of D4xD4 and A4xZ4
        cases = [(G, 2) for G in CORPUS + list(POOL_UP_TO_32)] + [(D4xD4, 1), (A4xZ4, 1)]
        for G0, relabelings in cases:
            copies = [G0]
            for _ in range(relabelings):
                sigma = list(range(1, G0.order))
                rng.shuffle(sigma)
                copies.append(relabeled(G0, [0] + sigma, label=G0.label))
            for G in copies:
                for variant in WedgeVariant:
                    wp = build_wedge_presentation(G, variant, group_cap=64)
                    # the elimination reads the CURLY rows over the generating classes only
                    S = wedge._generating_classes(G) if variant is WedgeVariant.CURLY else None
                    ref = whole_array_presentation(G, variant, S)
                    assert wp.presentation.relators == ref.presentation.relators, G.label
                    assert wp.presentation.num_generators == ref.presentation.num_generators
                    # the sign rule is unchanged, so signs agree too, also on
                    # classes identified with their own inverse
                    assert wp.pair_letters == ref.pair_letters, G.label
                    assert realized(wp).realization == realized(ref).realization, G.label

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    def test_single_raw_relators_kill_exactly_the_seeded_letters(self, variant):
        # build_wedge_presentation sends the collapsed pairs and the pairs with
        # the identity to 0 before the elimination, in place of a first pass
        # over the raw rows; that is exact only if this pass would find just them
        for G in CORPUS + list(CURLY_LARGE_POOL + OTHER_BENCHMARK_GROUPS):
            if G.order > variant.default_cap:
                continue
            n = G.order
            seeded = set(wedge._collapsed_letters(G, variant, range(n)).tolist())
            seeded |= set(range(1, n + 1)) | set(range(1, n * n + 1, n))  # the letters of (1, y) and (y, 1)
            # on all raw rows, and on the rows over the generating classes, which hold 1
            for S in (None, wedge._generating_classes(G)):
                rows, length = wedge._reduce_rows(wedge._raw_relator_rows(G, variant, range(n), S))
                killed = set(np.abs(rows[length == 1, 0]).tolist())
                assert killed == seeded, G.label
                # and no raw row identifies two letters or vanishes
                assert set(length.tolist()) <= {1, 3}, G.label

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    def test_order_and_blocking_do_not_matter(self, monkeypatch, variant):
        rng = np.random.default_rng(3)
        for G in (S4, POOL_UP_TO_32[1]):
            rows = wedge._raw_relator_rows(G, variant, range(G.order))
            letters, kept = wedge._eliminate([rows], G.order**2)
            for size in (1000, 7777, len(rows)):
                shuffled = rows[rng.permutation(len(rows))]
                blocks = [shuffled[i:i + size] for i in range(0, len(rows), size)]
                got_letters, got_kept = wedge._eliminate(blocks, G.order**2)
                assert np.array_equal(got_letters, letters)
                assert np.array_equal(got_kept, kept)
            wp = build_wedge_presentation(G, variant, group_cap=32)
            for budget in (2 * G.order**2, 3 * 2 * G.order**2, 10**7):  # 1, 3 and all m per block
                monkeypatch.setattr(wedge, "_BLOCK_ROWS", budget)
                again = build_wedge_presentation(G, variant, group_cap=32)
                assert again.pair_letters == wp.pair_letters
                assert again.presentation == wp.presentation

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    def test_blocks_hold_the_raw_rows(self, monkeypatch, variant):
        for G, budget, count in ((S3, 1, 6), (D4, 3 * 2 * 8**2, 3)):  # D4: 3, 3 and 2 m per block
            rows = wedge._raw_relator_rows(G, variant, range(G.order))
            reference = [w + (0,) * (3 - len(w)) for w in loop_raw_relators(G, variant)]
            assert rows.tolist() == [list(w) for w in reference]
            monkeypatch.setattr(wedge, "_BLOCK_ROWS", budget)
            blocks = list(wedge._relator_blocks(G, variant))
            assert len(blocks) == count
            assert sorted(np.concatenate(blocks).tolist()) == sorted(rows.tolist())
            wp = build_wedge_presentation(G, variant)
            assert len(rows) == wp.r1_count + wp.r2_count + wp.r3_count

    def test_memory_of_the_d4xd4_presentation(self):
        commutator_table(D4xD4)  # kept on the group, outside the measured calls
        tracemalloc.start()
        try:
            wp = build_wedge_presentation(D4xD4, WedgeVariant.CURLY)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert check_pairing(D4xD4, D4xD4, commutator_table(D4xD4))
            certificate_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 3.1 MiB; the elimination over all raw rows peaked at 9.6 MiB, and
        # the whole-array one at 66.6 MiB with its certificate at 37.7 MiB
        assert build_peak <= 4 * 2**20
        assert certificate_peak <= 8 * 2**20
        assert wp.presentation.num_generators == 6
        assert len(wp.presentation.relators) == 34


def two_relabelings_each(groups, seed):
    """Each group with two relabeled copies, one group per multiplication table."""
    rng, seen, out = random.Random(seed), set(), []
    for G0 in groups:
        if G0.mul in seen:
            continue
        seen.add(G0.mul)
        out.append(G0)
        for _ in range(2):
            sigma = list(range(1, G0.order))
            rng.shuffle(sigma)
            out.append(relabeled(G0, [0] + sigma, label=G0.label))
    return out


@pytest.fixture(scope="module")
def corpus_and_pool_copies():
    return two_relabelings_each(CORPUS + list(CURLY_LARGE_POOL + OTHER_BENCHMARK_GROUPS), 26)


class TestGeneratingClasses:
    """The CURLY elimination reads the crossed rows over S; the certificate reads all rows."""

    def test_s_is_a_generating_union_of_classes_with_1(self, corpus_and_pool_copies):
        for G in corpus_and_pool_copies:
            S = wedge._generating_classes(G)
            assert S[0] == 0 and S == sorted(set(S)), G.label
            assert set(table_arrays(G)[2][:, S].ravel().tolist()) == set(S), G.label  # every g s g^-1 is in S
            assert len(subgroup_closure(G, S)) == G.order, G.label

    def test_realization_matches_the_all_rows_elimination(self, corpus_and_pool_copies):
        for G in corpus_and_pool_copies:
            wr = compute_wedge(G, WedgeVariant.CURLY, group_cap=64)
            ref = realized(whole_array_presentation(G, WedgeVariant.CURLY))
            assert ref.order == wr.order, G.label
            assert ref.kernel_invariants() == wr.kernel_invariants(), G.label

    # On every group tried, an S that generates G but is not conjugation-closed
    # still gave G ⋏ G. Both sets below generate proper subgroups: in D16, two
    # reflections whose normal closure has index 2; in S4, 1 and the double
    # transpositions (a normal Klein four-group).
    @pytest.mark.parametrize(
        "G, S, error",
        [
            (POOL_UP_TO_32[0], [0, 17, 21], RelatorNotKilled),
            (S4, [0] + [x for x in derived_subgroup(S4).members if S4.element_order(x) == 2], CosetLimitExceeded),
        ],
        ids=["D16-not-conjugation-closed", "S4-proper-subgroup"],
    )
    def test_a_wrong_s_never_returns(self, monkeypatch, G, S, error):
        closed = set(table_arrays(G)[2][:, S].ravel().tolist()) == set(S)
        assert closed == (error is CosetLimitExceeded)
        assert len(subgroup_closure(G, S)) < G.order
        assert compute_wedge(G, WedgeVariant.CURLY, max_cosets=3000).order < 3000
        monkeypatch.setattr(wedge, "_generating_classes", lambda H: S)
        with pytest.raises(error):
            compute_wedge(G, WedgeVariant.CURLY, max_cosets=3000)


class TestBlockedCertificate:
    """The certificate runs block by block and still fails where it must."""

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    @pytest.mark.parametrize("G", [S3, D4], ids=["S3", "D4"])
    def test_corrupted_pair_image_fails(self, monkeypatch, G, variant):
        one_m_per_block(monkeypatch, G)
        calls = counting_blocks(monkeypatch)
        assert check_pairing(G, G, commutator_table(G), variant)
        assert len(calls) == G.order  # every block is evaluated
        n = G.order
        for m in (0, n // 2, n - 1):  # first, middle and last block
            values = commutator_table(G).copy()
            values[m, 1] = G.mul[values[m, 1]][n - 1]
            calls.clear()
            assert not check_pairing(G, G, values, variant)
            assert len(calls) < G.order
            # stopped at the first failing block: the first in which a raw row survives
            assert len(calls) == first_failing_block(wedge._relator_blocks(G, variant), G, values.ravel()) + 1

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    def test_compute_wedge_rejects_corrupted_realization(self, monkeypatch, variant):
        G = D4xZ2
        one_m_per_block(monkeypatch, G)
        pair_table = wedge.WedgeRealization.pair_table
        n = G.order
        for m in (0, n // 2, n - 1):

            def corrupted(wr, m=m):
                out = pair_table(wr).copy()
                out[m, 1] = wr.realization.group.mul[out[m, 1]][wr.order - 1]
                return out

            monkeypatch.setattr(wedge.WedgeRealization, "pair_table", corrupted)
            with pytest.raises(RelatorNotKilled, match=f"raw {variant.value} relator"):
                compute_wedge(G, variant)

    def test_check_pairing_reads_every_block_and_keeps_nothing(self, monkeypatch):
        G = POOL_UP_TO_32[1]  # D4 x Z4, order 32
        one_m_per_block(monkeypatch, G)
        phi = commutator_table(G).tolist()
        table_arrays(G)  # kept on the group, outside the measured call
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert check_pairing(G, G, phi)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # keeping the raw rows left 0.76 MiB here; numpy's own caches keep about 1.5 KiB
        assert after - before <= 16 * 2**10
        calls = counting_blocks(monkeypatch)
        assert check_pairing(G, G, phi)
        assert len(calls) == G.order  # every block is evaluated
        n = G.order
        bad = [list(row) for row in phi]
        bad[n - 1][1] = G.mul[bad[n - 1][1]][n - 1]  # a pair (m, 1) of the last block
        assert not loop_check_pairing(G, G, bad)
        calls.clear()
        assert not check_pairing(G, G, bad)
        assert len(calls) == first_failing_block(wedge._relator_blocks(G, WedgeVariant.CURLY), G, np.ravel(bad)) + 1


def solutions_mod_2(rows, k):
    """Hermite rows of the tables u in (Z/2)^k on which every relator row, read additively mod 2, vanishes."""
    coefficients = np.zeros((len(rows), k), dtype=np.int64)
    for col in rows.T:
        live = np.flatnonzero(col)
        np.add.at(coefficients, (live, np.abs(col[live]) - 1), 1)
    return orth_complement(coefficients % 2, k, 2)


def span_mod_2(basis):
    """Every vector of the span of the basis rows over Z/2."""
    picks = (np.arange(2 ** len(basis))[:, None] >> np.arange(len(basis))) & 1
    return picks @ basis % 2


class TestTableCertificate:
    """``wedge._axioms_hold`` against the row evaluator it replaced, and each relation family at work."""

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    def test_agrees_with_the_rows(self, monkeypatch, corpus, curly_wedges, exterior_wedges, variant):
        wedges = curly_wedges if variant is WedgeVariant.CURLY else exterior_wedges
        calls = counting_blocks(monkeypatch)
        rejected = 0
        for G in corpus:  # every corpus group has order at most 32
            one_m_per_block(monkeypatch, G)
            wr, n = wedges[G.label], G.order
            blocks = list(wedge._relator_blocks(G, variant))
            # the realization's pair table, the commutator table, and every single-entry corruption of each
            for L, table in ((wr.realization.group, wr.pair_table().ravel()), (G, commutator_table(G).ravel())):
                tables = [table]
                for p in range(n * n if L.order > 1 else 0):
                    tables.append(table.copy())
                    tables[-1][p] = L.mul[table[p]][L.order - 1]
                for values in tables:
                    expected = first_failing_block(blocks, L, values)
                    calls.clear()
                    assert check_pairing(G, L, values.reshape(n, n), variant) == (expected is None), G.label
                    assert len(calls) == (n if expected is None else expected + 1), G.label
                    rejected += expected is not None
        assert rejected > 0

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    @pytest.mark.parametrize("G", [S3, D4], ids=["S3", "D4"])
    def test_one_sided_tables_are_rejected(self, G, variant):
        # the tables into Z/2 that satisfy some of the relation families: the certificate
        # must accept exactly those that satisfy all of them, so each family is load-bearing
        n = G.order
        rows = wedge._raw_relator_rows(G, variant, range(n))
        left, right, collapsing = rows[:n**3], rows[n**3:2 * n**3], rows[2 * n**3:]
        full = {tuple(u) for u in span_mod_2(solutions_mod_2(rows, n * n))}
        for families in ((left, collapsing), (right, collapsing), (left, right)):
            basis = solutions_mod_2(np.concatenate(families), n * n)
            assert 2 ** len(basis) > len(full)
            if G is S3 and variant is WedgeVariant.CURLY and families[1] is collapsing:
                assert len(basis) == 3 and full == {(0,) * n * n}
            for u in span_mod_2(basis):
                holds = tuple(u) in full
                assert rows_die(rows, Z2, u) == holds
                assert check_pairing(G, Z2, u.reshape(n, n), variant) == holds

    @pytest.mark.parametrize("variant", list(WedgeVariant))
    def test_a_negative_image_is_no_element(self, variant):
        # the row evaluator read -4 as element 2 of S3 by wrapping, and so accepted this table
        values = commutator_table(S3).astype(np.int64)
        assert check_pairing(S3, S3, values, variant)
        values[values == 2] -= S3.order
        assert rows_die(wedge._raw_relator_rows(S3, variant, range(S3.order)), S3, values.ravel())
        assert not check_pairing(S3, S3, values, variant)


class TestWalksMatchWords:
    """Realizations, kappa and the exterior-to-curly map against the word-based references."""

    @staticmethod
    def check(monkeypatch, wr):
        real, words = walked_and_worded(monkeypatch, wr.presentation)
        assert real == wr.realization
        assert len(real.gen_images) == wr.presentation.presentation.num_generators  # one image per letter
        assert wr.kappa.images == word_fold_hom(words, wr, wr.base, commutator_table(wr.base).tolist())
        return words

    def test_corpus(self, monkeypatch, corpus, curly_wedges, exterior_wedges):
        for G in corpus:
            cur, ext = curly_wedges[G.label], exterior_wedges[G.label]
            self.check(monkeypatch, cur)
            words = self.check(monkeypatch, ext)
            expected = word_fold_hom(words, ext, cur.realization.group, cur.pair_table().tolist())
            assert exterior_to_curly_surjection(ext, cur).images == expected, G.label

    def test_curly_large_pool(self, monkeypatch):
        for G in CURLY_LARGE_POOL:
            self.check(monkeypatch, compute_wedge(G, WedgeVariant.CURLY))

    @pytest.mark.parametrize("G", [S3, D4, S4], ids=["S3", "D4", "S4"])
    def test_non_homomorphism_raises(self, monkeypatch, G):
        wr = compute_wedge(G, WedgeVariant.CURLY)
        _, words = walked_and_worded(monkeypatch, wr.presentation)
        n = G.order
        for m in (1, n // 2, n - 1):
            kappa = commutator_table(G).tolist()
            kappa[m][1] = G.mul[kappa[m][1]][n - 1]
            # at a root pair the walk fails at an edge, elsewhere the pair comparison fails
            message = r"do not extend to a homomorphism \(element \d+, generator \d+\)|differs from the table at the pair"
            with pytest.raises(RelatorNotKilled, match=message):
                hom_from_generator_images(wr, G, kappa)
            with pytest.raises(RelatorNotKilled):
                word_fold_hom(words, wr, G, kappa)

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda k: k + [[0] * 6], r"shape \(6, 6\), not \(7, 6\)"),  # surplus row
            (lambda k: k[:-1], r"shape \(6, 6\), not \(5, 6\)"),
            (lambda k: [[-1] + k[0][1:]] + k[1:], "outside"),  # negative: indexing would wrap it
            (lambda k: k[:-1] + [k[-1][:-1] + [3]], "outside"),
            (lambda k: k[:-1] + [k[-1][:-1] + [1.0]], "not an integer"),
            (lambda k: k[:-1] + [k[-1][:-1] + ["1"]], "not an integer"),
            (lambda k: k[:-1] + [k[-1][:-1] + [True]], "not an integer"),  # bool: NumPy reads it as 1
            (lambda k: k[:-1] + [k[-1][:-1]], r"not \(6,\)"),  # ragged: a short last row
            (lambda k: [x for row in k for x in row], r"not \(36,\)"),  # one image per pair, flat
            (lambda k: [row[:-1] for row in k], r"shape \(6, 6\), not \(6, 5\)"),  # six rows of five
        ],
        ids=["surplus", "missing", "negative", "out-of-range", "float", "str", "bool", "ragged", "shape", "columns"],
    )
    def test_malformed_images_are_rejected(self, change, match):
        """A malformed pair table is no pairing, and pairing_to_hom names why."""
        wr = compute_wedge(S3, WedgeVariant.CURLY)
        L = cyclic(3)
        phi = change([[0] * 6 for _ in range(6)])
        assert not check_pairing(S3, L, phi)
        with pytest.raises(NotAPairing, match=match):
            pairing_to_hom(S3, L, phi, wr)


@pytest.fixture(scope="module")
def wedge_input_cases():
    S3, D4 = builtin("symmetric", (3,)), builtin("dihedral", (4,))
    cur, ext = compute_wedge(S3, WedgeVariant.CURLY), compute_wedge(S3, WedgeVariant.EXTERIOR)
    ext_d4 = compute_wedge(D4, WedgeVariant.EXTERIOR)
    high = np.zeros((6, 6), dtype=np.int64)
    high[1, 2] = 6  # an element index one past S3
    zero = np.zeros((6, 6), dtype=np.int64)
    return {
        "entry past the target": (lambda: hom_from_generator_images(cur, S3, high), ValidationError,
                                  "a pair image is not an integer or lies outside [0, 6)"),
        "pairing entry past the target": (lambda: pairing_to_hom(S3, S3, high, cur), NotAPairing,
                                          "table is not a pairing of S3: a pair image is not an integer or lies outside [0, 6)"),
        "pairing on EXTERIOR": (lambda: pairing_to_hom(S3, S3, zero, ext), NotAPairing,
                                "pairing extension is defined on the CURLY realization"),
        "pairing on another group's realization": (lambda: pairing_to_hom(D4, D4, np.zeros((8, 8), dtype=np.int64), cur),
                                                   NotAPairing, "wedge realization does not belong to this group"),
        "surjection with swapped variants": (lambda: exterior_to_curly_surjection(cur, ext), InternalCheckFailed,
                                             "surjection runs from EXTERIOR onto CURLY"),
        "surjection across base groups": (lambda: exterior_to_curly_surjection(ext_d4, cur), InternalCheckFailed,
                                          "realizations built from different base groups"),
    }


@pytest.mark.parametrize(
    "case",
    [
        "entry past the target",
        "pairing entry past the target",
        "pairing on EXTERIOR",
        "pairing on another group's realization",
        "surjection with swapped variants",
        "surjection across base groups",
    ],
)
def test_wedge_input_checks(wedge_input_cases, case):
    build, error, message = wedge_input_cases[case]
    with pytest.raises(error, match=re.escape(message)):
        build()


@pytest.mark.parametrize("group_cap", [True, 2.5, -1, "64"])
def test_the_resolved_group_cap_is_an_integer(group_cap):
    # at the parent True was read as cap 1, and "64" raised a bare TypeError
    with pytest.raises(ValidationError, match=f"group cap {group_cap!r} is not an integer"):
        compute_wedge(S3, WedgeVariant.CURLY, group_cap=group_cap)
    with pytest.raises(GroupTooLarge):  # a cap of 0 is still a cap
        compute_wedge(S3, WedgeVariant.CURLY, group_cap=0)


@pytest.mark.parametrize("entry", [7, None, 1 - 6, True, 1.0], ids=["7", "short", "negative", "True", "1.0"])
def test_raw_relators_die_reads_its_table_as_check_pairing_does(entry):
    # a commutator table with one entry that is no element index of G is no pairing: 7 and 1.0 are
    # outside or not integers, a short last row makes the table ragged, NumPy would wrap 1 - 6 to
    # element 1 and read True as 1
    G = relabeled(S3, (0, 2, 1, 3, 4, 5))  # a commutator lands at element 1
    table = commutator_table(G).tolist()
    assert check_pairing(G, G, table)
    if entry is None:
        table[-1] = table[-1][:-1]
    else:
        i = next(i for i, row in enumerate(table) if 1 in row)
        table[i][table[i].index(1)] = entry
    assert not check_pairing(G, G, table)
