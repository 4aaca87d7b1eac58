"""Cocycle spaces, restriction maps, and the kernel-intersection bound."""

import gc
import hashlib
import itertools
import random
import re
import weakref
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest

from grouplab import cohomology
from grouplab.catalog import PipelineConfig, builtin, compute_report, dump_json, load_catalog
from grouplab.cohomology import (
    b0_lower_bound,
    cocycle_dump,
    cocycle_space,
    h2_order,
    multiplier_order_oracle,
    restrict,
)
from grouplab.errors import (
    GroupTooLargeForOracle,
    InconsistentOrders,
    InternalCheckFailed,
    ModulusMismatch,
    ValidationError,
)
from grouplab.groups import (
    AbelianInvariants,
    Subgroup,
    abelian_subgroups,
    direct_product,
    from_mul_table,
    minimal_generating_sequence,
    relabeled,
    subgroup_closure,
)
from grouplab.lattices import _reduce, hnf_from_rows, lattice_index, orth_complement
import subgroup_reference
from b0_reference import b0_by_restriction_matrices
from test_lattices import ORACLE_SMALL
from test_nontrivial_b0 import b0_group


def cyclic(n):
    return from_mul_table([[(i + j) % n for j in range(n)] for i in range(n)], label=f"Z{n}")


Z2 = cyclic(2)
V4 = direct_product(Z2, Z2, label="V4")
S3 = builtin("symmetric", (3,))
D4 = builtin("dihedral", (4,))
Q8 = builtin("quaternion8")
D6 = builtin("dihedral", (6,))
A4 = builtin("alternating", (4,))


def brute_h2(G, m):
    """Count cocycle tables and coboundaries by literal enumeration."""
    n = G.order
    k = (n - 1) ** 2
    num_z = 0
    for vec in itertools.product(range(m), repeat=k):
        table = [[0] * n for _ in range(n)]
        for x in range(1, n):
            for y in range(1, n):
                table[x][y] = vec[(x - 1) * (n - 1) + (y - 1)]
        ok = True
        for x in range(n):
            for y in range(n):
                xy = G.mul[x][y]
                for z in range(n):
                    if (table[x][y] + table[xy][z] - table[y][z] - table[x][G.mul[y][z]]) % m:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            num_z += 1
    cob = set()
    for gv in itertools.product(range(m), repeat=n - 1):
        g = [0] + list(gv)
        cob.add(
            tuple(
                (g[x] + g[y] - g[G.mul[x][y]]) % m
                for x in range(1, n)
                for y in range(1, n)
            )
        )
    return num_z // len(cob)


def triple_rows(G, m, zs):
    """Rows of the cocycle identity for every (x, y, z) with z in zs.

    The all-triples builder that the generator rows replaced, one dense row
    per triple; with zs = range(1, |G|) it writes every row.
    """
    n = G.order
    k = (n - 1) * (n - 1)
    mul = G.mul

    def var(a, b):
        return (a - 1) * (n - 1) + (b - 1)

    rows = []
    for x in range(1, n):
        for y in range(1, n):
            for z in zs:
                row = np.zeros(k, dtype=np.int64)
                row[var(x, y)] += 1
                if mul[x][y]:
                    row[var(mul[x][y], z)] += 1
                row[var(y, z)] -= 1
                if mul[y][z]:
                    row[var(x, mul[y][z])] -= 1
                rows.append(row % m)
    return np.array(rows, dtype=np.int64).reshape(-1, k)


def h2_order_from_rows(G, rows, m):
    """|Z| / |B| for the cocycles cut out by rows and the true coboundaries."""
    n = G.order
    k = (n - 1) * (n - 1)
    Hz = orth_complement(hnf_from_rows(rows, k, m), k, m)
    cob = np.zeros((n - 1, k), dtype=np.int64)
    for g in range(1, n):
        for x in range(1, n):
            for y in range(1, n):
                c = (x == g) + (y == g) - (G.mul[x][y] == g)
                cob[g - 1, (x - 1) * (n - 1) + (y - 1)] = c % m
    return lattice_index(hnf_from_rows(cob, k, m), m) // lattice_index(Hz, m)


def _row_groups():
    small = [G for G in load_catalog(Path(__file__).resolve().parent.parent / "catalog") if 1 < G.order <= 16]
    big = [
        builtin("symmetric", (4,)),
        builtin("dihedral", (12,)),
        direct_product(builtin("alternating", (4,)), cyclic(2), label="A4xZ2"),
    ]
    out = []
    for G in small + big:
        sigma = list(range(1, G.order))
        random.Random(G.label).shuffle(sigma)
        out.append(G)
        out.append(relabeled(G, [0] + sigma, label=G.label + "~"))
    return out


class TestGeneratorRows:
    @pytest.mark.parametrize("G", _row_groups(), ids=lambda G: G.label)
    @pytest.mark.parametrize("which_m", ["order", "two"])
    def test_generator_rows_span_every_row(self, G, which_m):
        """The cocycle lattice solved on edge unknowns is the complement of every triple row."""
        m = G.order if which_m == "order" else 2
        n = G.order
        k = (n - 1) * (n - 1)
        ref = triple_rows(G, m, range(1, n))
        if n <= 16:
            expected = orth_complement(ref, k, m)
        else:
            # complementing all 12,167 rows at order 24 takes seconds; instead:
            # the rows with z a generator are among them, and every row lies in
            # their lattice, so both row sets have the same complement
            rows = triple_rows(G, m, minimal_generating_sequence(G))
            H = hnf_from_rows(rows, k, m)
            _reduce(H, ref, m)
            assert not ref.any()
            expected = orth_complement(H, k, m)
        assert np.array_equal(cohomology._cocycle_lattice(G, m), expected)

    @pytest.mark.parametrize("m", [8, 2])
    def test_rows_over_a_non_generating_subgroup_cut_out_more(self, m):
        n = D4.order
        k = (n - 1) * (n - 1)
        x = next(x for x in range(n) if D4.element_order(x) == 4)
        c4 = [z for z in subgroup_closure(D4, [x]).members if z]
        assert len(c4) == 3
        partial = triple_rows(D4, m, c4)
        full = triple_rows(D4, m, range(1, n))
        assert not np.array_equal(hnf_from_rows(partial, k, m), hnf_from_rows(full, k, m))
        assert h2_order_from_rows(D4, full, m) == h2_order(D4, m)[0]
        assert h2_order_from_rows(D4, partial, m) != h2_order(D4, m)[0]


class TestCheckCocycle:
    @pytest.mark.parametrize("G,m", [(S3, 6), (D4, 4), (V4, 2)])
    def test_any_single_corrupted_entry_fails(self, G, m):
        space = cocycle_space(G, m)
        assert space.rank
        for basis_table in space.basis:
            assert cohomology._check_cocycle(G, m, basis_table)
            for x in range(G.order):
                for y in range(G.order):
                    table = [list(row) for row in basis_table]
                    table[x][y] = (table[x][y] + 1) % m
                    assert not cohomology._check_cocycle(G, m, table), (x, y)

    def test_a_stack_fails_when_one_table_fails(self):
        space = cocycle_space(V4, 2)
        assert cohomology._check_cocycle(V4, 2, space.basis)
        bad = space.basis[-1].copy()
        bad[1, 2] ^= 1
        stack = np.concatenate([space.basis[:-1], bad[None]])
        assert stack.shape == space.basis.shape
        assert not cohomology._check_cocycle(V4, 2, stack)

    def test_unnormalized_table_fails(self):
        # a constant table satisfies every cocycle identity but is not normalized
        for c in (1, 3):
            table = [[c] * S3.order for _ in range(S3.order)]
            assert not cohomology._check_cocycle(S3, 6, table)
        zero = [[0] * S3.order for _ in range(S3.order)]
        assert cohomology._check_cocycle(S3, 6, zero)


def _zero_lattice(rows, k, m):
    """m * Z^k, whatever the rows: a complement with no nonzero member, so no basis row."""
    return np.zeros((0, k), dtype=np.int64)


class TestCertificatesFire:
    """Each internal check of the oracle raises when what it checks is wrong."""

    def test_edge_solution_that_builds_no_cocycle(self, monkeypatch):
        # every vector of edge values passes for a solution
        monkeypatch.setattr(cohomology, "orth_complement", lambda rows, k, m: np.eye(k, dtype=np.int64))
        with pytest.raises(InternalCheckFailed, match="edge solution"):
            cocycle_space(from_mul_table(S3.mul), 6)

    def test_coboundary_outside_the_cocycles(self, monkeypatch):
        # the edge solutions shrink to zero, so no coboundary but 0 is a cocycle
        monkeypatch.setattr(cohomology, "orth_complement", _zero_lattice)
        with pytest.raises(InternalCheckFailed, match="coboundary failed"):
            h2_order(from_mul_table(S3.mul), 6)

    def test_table_coboundary_outside_the_table_cocycles(self, monkeypatch):
        # G's coboundaries on its table entries read as the table with one entry
        # f(1, 1) = 1, which is no cocycle; the edge solve, run first, has its own
        G = from_mul_table(S3.mul)
        h2_order(G, 6)
        monkeypatch.setattr(cohomology, "_coboundary_rows", lambda mul, members, m: np.eye(1, 25, dtype=np.int64))
        with pytest.raises(InternalCheckFailed, match="coboundary failed"):
            cocycle_space(G, 6).basis  # the table basis is built at its first read

    @staticmethod
    def corrupt_generators(monkeypatch, columns):
        """Add 1 to the first entry of the first generator of every quotient on this many columns."""
        original = cohomology.quotient_structure

        def corrupted(sub_H, sup_H, m):
            orders, gens = original(sub_H, sup_H, m)
            if sup_H.shape[1] == columns:
                gens = gens.copy()
                gens[0, 0] = (gens[0, 0] + 1) % m
            return orders, gens

        monkeypatch.setattr(cohomology, "quotient_structure", corrupted)

    def test_generator_table_that_is_no_cocycle(self, monkeypatch):
        # the edge solve's quotient, on the 3 * 2 edge unknowns of V4
        self.corrupt_generators(monkeypatch, 6)
        with pytest.raises(InternalCheckFailed, match="generator table"):
            h2_order(from_mul_table(V4.mul), 2)

    def test_basis_table_that_is_no_cocycle(self, monkeypatch):
        # the table basis's quotient, on the 3 * 3 table entries of V4
        self.corrupt_generators(monkeypatch, 9)
        with pytest.raises(InternalCheckFailed, match="basis table"):
            cocycle_space(from_mul_table(V4.mul), 2).basis

    def test_table_basis_that_disagrees_with_the_edge_solve(self, monkeypatch):
        # without G's coboundaries the table basis reads every cocycle of S3 as a class,
        # 6^5 of them; its own checks still pass, since 0 is a cocycle and the index
        # ratio is that order too
        G = from_mul_table(S3.mul)
        assert h2_order(G, 6) == (2, AbelianInvariants((2,)))
        monkeypatch.setattr(cohomology, "_coboundary_rows", lambda mul, members, m: np.zeros((1, 25), dtype=np.int64))
        with pytest.raises(InconsistentOrders, match=r"table basis 7776 \(6, 6, 6, 6, 6\) disagrees with edge solve 2 \(2,\)"):
            cocycle_space(G, 6).basis_orders

    def test_coboundary_relations_outside_the_kernel(self, monkeypatch):
        G = from_mul_table(V4.mul)
        space = cocycle_space(G, 4)
        assert any(d < 4 for d in space.basis_orders)
        # the kernel stack shrinks to zero, which an order-2 basis class leaves:
        # the Hermite form on the subgroup blocks and the class columns loses every row
        original = cohomology.hnf_from_rows
        monkeypatch.setattr(
            cohomology,
            "hnf_from_rows",
            lambda rows, k, m: _zero_lattice(rows, k, m) if k > space.rank else original(rows, k, m),
        )
        with pytest.raises(InternalCheckFailed, match="escaped the kernel"):
            b0_lower_bound(G, 4)


class TestH2Order:
    @pytest.mark.parametrize(
        "G,m",
        [(Z2, 2), (Z2, 3), (Z2, 4), (cyclic(3), 3), (cyclic(3), 2), (cyclic(4), 2)],
    )
    def test_against_brute_force(self, G, m):
        assert h2_order(G, m)[0] == brute_h2(G, m)

    def test_spec_values(self):
        assert h2_order(Z2, 2)[0] == 2
        assert h2_order(Z2, 3)[0] == 1
        assert h2_order(V4, 4)[0] == 8
        assert h2_order(S3, 6)[0] == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8])
    def test_cyclic_gcd_law(self, n, m):
        assert h2_order(cyclic(n), m)[0] == gcd(n, m)

    def test_basis_cocycles_verified(self):
        space = cocycle_space(V4, 4)
        n = V4.order
        for table in space.basis:
            for t in range(n):
                assert table[0][t] == 0 and table[t][0] == 0
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        lhs = table[x][y] + table[V4.mul[x][y]][z]
                        rhs = table[y][z] + table[x][V4.mul[y][z]]
                        assert (lhs - rhs) % 4 == 0

    def test_cap(self):
        with pytest.raises(GroupTooLargeForOracle):
            h2_order(builtin("cyclic", (25,)), 2)

    @pytest.mark.parametrize("m", [2.5, 4.0, True, "4"])
    def test_non_integer_modulus_is_rejected(self, m):
        G = from_mul_table(D4.mul)
        with pytest.raises(ValidationError, match="integer"):
            cocycle_space(G, m)
        with pytest.raises(ValidationError, match="integer"):
            h2_order(G, m)

    @pytest.mark.parametrize("G", [V4, S3, D4], ids=["V4", "S3", "D4"])
    @pytest.mark.parametrize("m", [12_884_901_888, 2**63 - 1])
    def test_modulus_too_large_for_int64_is_rejected(self, G, m):
        # these moduli once overflowed int64 and tripped an internal certificate
        with pytest.raises(ValidationError, match="too large"):
            cocycle_space(from_mul_table(G.mul), m)

    def test_largest_power_of_two_modulus_is_exact(self):
        # m^2 * (|V4| - 1)^2 = 9 * 2^58 < 2^63, and H^2(V4, Z/m) = (Z/2)^3 for even m
        assert h2_order(from_mul_table(V4.mul), 2**29)[0] == 8

    def test_numpy_integer_modulus_is_an_int(self):
        G = from_mul_table(D4.mul)
        space = cocycle_space(G, np.int64(4))
        assert type(space.modulus) is int and cocycle_space(G, 4) is space


class TestMultiplierOracle:
    @pytest.mark.parametrize(
        "family,params,expected",
        [
            ("cyclic", (2,), 1),
            ("cyclic", (6,), 1),
            ("symmetric", (3,), 1),
            ("quaternion8", (), 1),
            ("dihedral", (4,), 2),
            ("alternating", (4,), 2),
        ],
    )
    def test_known_multipliers(self, family, params, expected):
        assert multiplier_order_oracle(builtin(family, params)) == expected

    def test_v4(self):
        assert multiplier_order_oracle(V4) == 2


def counting_table_bases(monkeypatch):
    """The group tables that a table basis is built on from now on, one per space built.

    Every space reads its cocycle lattice on table entries once, through
    cohomology._cocycle_lattice, and nothing else does.
    """
    tables = []
    original = cohomology._cocycle_lattice

    def counting(H, m):
        tables.append(H.mul)
        return original(H, m)

    monkeypatch.setattr(cohomology, "_cocycle_lattice", counting)
    return tables


def counting_solvers(monkeypatch):
    """The modulus of every LatticeSolver built from now on."""
    moduli = []
    original = cohomology.LatticeSolver

    def counting(gens, k, m):
        moduli.append(m)
        return original(gens, k, m)

    monkeypatch.setattr(cohomology, "LatticeSolver", counting)
    return moduli


class TestRestriction:
    def test_restrict_to_trivial_is_zero(self):
        space = cocycle_space(V4, 4)
        c = space.class_from_coords(tuple(1 for _ in range(space.rank)))
        assert restrict(c, Subgroup(V4, (0,))).is_zero()

    def test_restrict_along_whole_group_is_identity(self):
        space = cocycle_space(V4, 4)
        full = Subgroup(V4, tuple(range(4)))
        for coords in itertools.product(*[range(d) for d in space.basis_orders]):
            c = space.class_from_coords(coords)
            assert restrict(c, full).coords == c.coords

    def test_additivity(self, monkeypatch):
        spaces_built = counting_table_bases(monkeypatch)
        # a new group object, so no earlier test's spaces are kept on it
        G = from_mul_table(D4.mul, label="D4")
        space = cocycle_space(G, 4)
        subs = abelian_subgroups(G)
        cs = [
            space.class_from_coords(tuple(1 if j == i else 0 for j in range(space.rank)))
            for i in range(space.rank)
        ]
        for A in subs:
            for c1 in cs:
                for c2 in cs:
                    left = restrict(c1 + c2, A)
                    right = restrict(c1, A) + restrict(c2, A)
                    assert left.coords == right.coords
        # D4 at m = 4, and one space for each of its three maximal abelian
        # subgroups, Z4 and two Klein four-groups, each built on first use
        assert len(subs) == 3 and len(spaces_built) == 1 + 3

    @staticmethod
    def check_against_table_slicing(G, m):
        """Restriction through the matrix agrees with slicing each class's table by hand."""
        space = cocycle_space(G, m)
        assert space.rank
        # every nontrivial abelian subgroup, not only the maximal ones the library lists
        subgroups = [Subgroup(G, t) for t in subgroup_reference.all_abelian_subgroups(G) if len(t) > 1]
        for coords in itertools.product(*[range(d) for d in space.basis_orders]):
            cls = space.class_from_coords(coords)
            big = cls.table()
            for A in subgroups:
                sub, members = A.as_group()
                space_A = space if sub.mul == G.mul else cocycle_space(sub, m)
                via_map = restrict(cls, A)
                assert via_map.space is space_A
                small = [[big[a][b] for b in members] for a in members]
                via_table = space_A.class_from_table(small)
                assert via_map.coords == via_table.coords

    def test_coordinates_match_direct_table_restriction(self):
        assert cocycle_space(V4, 2).h2_order == 8
        self.check_against_table_slicing(V4, 2)

    @pytest.mark.parametrize("G", [S3, D4, Q8, A4], ids=lambda G: G.label)
    @pytest.mark.parametrize("which_m", ["order", "two"])
    def test_coordinates_match_table_slicing_on_nonabelian_groups(self, G, which_m):
        self.check_against_table_slicing(G, G.order if which_m == "order" else 2)

    def test_basis_is_a_read_only_array(self):
        for G, m, rank in ((D4, 8, 3), (S3, 1, 0), (cyclic(1), 4, 0)):
            space = cocycle_space(G, m)
            assert space.basis.dtype == np.int64 and space.rank == rank
            assert space.basis.shape == (rank, G.order, G.order)
            with pytest.raises(ValueError):
                space.basis[..., 0] = 1

    def test_subgroup_of_another_group_is_rejected(self):
        with pytest.raises(ValidationError, match="does not belong"):
            restrict(cocycle_space(D4, 4).zero(), Subgroup(Q8, (0,)))

    def test_subgroup_is_admitted_with_its_group(self):
        # D4xZ8 passes a cap of 64, and restricting to its abelian subgroup
        # of order 32 raised GroupTooLargeForOracle against the default cap
        G = builtin("direct_product", [["dihedral", 4], ["cyclic", 8]])
        space = cocycle_space(G, 2, cap=64)
        A = max(abelian_subgroups(G), key=len)
        assert len(A) == 32 > cohomology.DEFAULT_ORACLE_CAP
        members = A.as_group()[1]
        for i in range(space.rank):
            cls = space.class_from_coords(tuple(int(j == i) for j in range(space.rank)))
            small = [[cls.table()[a][b] for b in members] for a in members]
            via_map = restrict(cls, A)
            assert via_map.coords == via_map.space.class_from_table(small).coords

    @pytest.mark.parametrize("table", [[[0]], [[0] * 5] * 4, [[[0] * 4] * 4] * 2, [[0, 1], [0]]])
    def test_wrongly_shaped_table_is_rejected(self, table):
        space = cocycle_space(V4, 2)
        with pytest.raises(ValidationError):
            space.class_from_table(table)

    @pytest.mark.parametrize("G, m, rank", [(cyclic(3), 2, 0), (V4, 2, 3)])
    def test_non_cocycle_table_is_rejected(self, G, m, rank):
        space = cocycle_space(G, m)
        assert space.rank == rank and space._solver is not None
        table = [[0] * G.order for _ in range(G.order)]
        table[1][1] = 1
        assert not cohomology._check_cocycle(G, m, table)
        with pytest.raises(ValidationError, match="not a cocycle"):
            space.class_from_table(table)

    @pytest.mark.parametrize("first", [1.7, "1", True, None, 1.5])
    def test_non_integer_coordinates_are_rejected(self, first):
        # these all became (1, 0, 0) through int(); representative_table truncated 1.5 to 1
        space = cocycle_space(D4, 8)
        with pytest.raises(ValidationError, match="coordinate .* is not an integer"):
            space.class_from_coords((first, 0, 0))
        with pytest.raises(ValidationError, match="coordinate .* is not an integer"):
            space.representative_table((first, 0, 0))

    @pytest.mark.parametrize(
        "make",
        [lambda t: t + 0.4, lambda t: t.astype(str), lambda t: t.astype(bool), lambda t: np.full(t.shape, 0.5)],
        ids=["plus-0.4", "str", "bool", "all-0.5"],
    )
    def test_non_integer_table_entries_are_rejected(self, make):
        # int64 conversion read the first three as the basis class and the last as zero
        space = cocycle_space(D4, 8)
        table = make(space.basis[0])
        for given in (table, table.tolist()):
            with pytest.raises(ValidationError, match="table entry .* is not an integer"):
                space.class_from_table(given)
        with pytest.raises(ValidationError, match="not integer arrays"):
            space._coords(table[None])

    def test_integer_tables_of_any_width_are_read_exactly(self):
        space = cocycle_space(D4, 8)
        table = space.basis[0]
        huge = [[x + 8 * 2**70 if x else 0 for x in row] for row in table.tolist()]
        for given in (table, table.astype(np.uint8), table.astype(np.int8) - 8, huge):
            assert space.class_from_table(given).coords == (1, 0, 0)
        assert space._coords(table.astype(np.uint8)[None]).tolist() == [[1, 0, 0]]

    @pytest.mark.parametrize("coords", [(1, 0), (1, 0, 0, 0)])
    def test_wrong_coordinate_count_is_rejected(self, coords):
        # representative_table raised a bare numpy ValueError
        space = cocycle_space(D6, 12)
        with pytest.raises(ValidationError, match="length"):
            space.representative_table(coords)

    def test_representative_table_reduces_its_coordinates(self):
        # 2**62 + 1 overflowed the int64 sum and gave another table than 1
        space = cocycle_space(D6, 12)
        assert space.basis_orders == (2, 2, 2)
        for coords in ((2**62 + 1, 0, 0), (3, -1, 4), (np.int64(5), 0, 1)):
            reduced = tuple(int(c) % 2 for c in coords)
            assert space.representative_table(coords) == space.representative_table(reduced)
            assert space.representative_table(coords) == space.class_from_coords(coords).table()

    def test_numpy_integer_coordinates_are_accepted(self):
        space = cocycle_space(D4, 8)
        c = space.class_from_coords(np.array([3, 0, 1]))
        assert c.coords == (1, 0, 1) and all(type(x) is int for x in c.coords)

    def test_addition_across_separately_computed_spaces(self):
        first = cocycle_space(from_mul_table(V4.mul), 2)
        second = cocycle_space(from_mul_table(V4.mul), 2)
        assert first is not second
        total = first.class_from_coords((1, 0, 0)) + second.class_from_coords((0, 1, 0))
        assert total.coords == (1, 1, 0)
        other_modulus = cocycle_space(from_mul_table(V4.mul), 4)
        with pytest.raises(ModulusMismatch):
            first.zero() + other_modulus.zero()


class TestSpaceLifetime:
    def test_space_is_freed_with_its_group(self):
        G = cyclic(4)
        space = weakref.ref(cocycle_space(G, 4))
        assert cocycle_space(G, 4) is space()
        del G
        gc.collect()
        assert space() is None

    @pytest.mark.parametrize("family, params", [("symmetric", (4,)), ("dihedral", (12,))])
    def test_report_builds_no_table_basis_and_a_dump_builds_it_once(self, monkeypatch, family, params):
        G = builtin(family, params)
        tables, solvers = counting_table_bases(monkeypatch), counting_solvers(monkeypatch)
        report = compute_report(G, PipelineConfig(oracle=True))
        # the report reads H^2, the multiplier and the bound off the edge solve
        assert report.oracle["h2_order"] == (4 if family == "symmetric" else 8)
        assert tables == [] and solvers == []
        # G's space is the report's, and hands out H^2 without a table basis
        space = cocycle_space(G, G.order)
        assert (space.h2_order, space.h2_invariants) == h2_order(G, G.order)
        assert tables == [] and solvers == []
        subs = abelian_subgroups(G)
        for _ in range(2):
            cocycle_dump(G, G.order)
        # G's basis once; each dump solves each maximal abelian subgroup's space,
        # with its solver, on its own Subgroup objects
        assert tables.count(G.mul) == 1
        assert len(tables) == 1 + 2 * len(subs) and len(solvers) == 2 * len(subs)


TWIN_CASES = [(builtin(family, params), None) for family, params in ORACLE_SMALL] + [
    (G, 2) for G in (builtin("symmetric", (4,)), D4, Q8)
]


class TestTwinSpaces:
    """Subgroups with equal tables, twins, each solve a space of their own, equal to a fresh one."""

    @pytest.mark.parametrize("G, m", TWIN_CASES, ids=lambda case: getattr(case, "label", f"m={case}"))
    def test_shared_space_equals_a_fresh_one(self, G, m):
        m = m or G.order
        space = cocycle_space(from_mul_table(G.mul, label=G.label), m)
        for A in abelian_subgroups(space.group):
            space_A, mat = cohomology.restriction_matrix(space, A)
            sub, members = A.as_group()
            if sub.mul == G.mul:  # an abelian G is its one maximal abelian subgroup
                assert space_A is space
            else:
                assert space_A.group is sub and cocycle_space(sub, m) is space_A
            assert restrict(space.zero(), A).space is space_A
            fresh = cocycle_space(Subgroup(space.group, A.members).as_group()[0], m)
            assert space_A.basis.tobytes() == fresh.basis.tobytes()
            assert space_A.basis.shape == fresh.basis.shape
            assert space_A.basis_orders == fresh.basis_orders
            assert space_A.h2_invariants == fresh.h2_invariants
            idx = np.array(members)
            assert np.array_equal(mat, fresh._coords(space.basis[:, idx[:, None], idx]))

    def test_s4_builds_one_space_per_subgroup_object(self, monkeypatch):
        S4 = builtin("symmetric", (4,))
        tables = counting_table_bases(monkeypatch)
        space = cocycle_space(S4, 24)
        subs = abelian_subgroups(S4)
        spaces = [cohomology.restriction_matrix(space, A)[0] for A in subs]
        # 11 maximal abelian subgroups, each solved once though only 4 tables are distinct
        assert len(subs) == 11 and len(tables) == 1 + 11
        assert len({id(s) for s in spaces}) == len({id(s._solver) for s in spaces}) == 11
        # the same Subgroup objects build none again
        assert [cohomology.restriction_matrix(space, A)[0] for A in subs] == spaces
        assert len(tables) == 1 + 11
        # new Subgroup objects of the same parent build their own
        again = [cohomology.restriction_matrix(space, Subgroup(S4, A.members))[0] for A in subs]
        assert len(tables) == 1 + 2 * 11 and not {id(s) for s in again} & {id(s) for s in spaces}


CATALOG_UP_TO_27 = [G for G in load_catalog(Path(__file__).resolve().parent.parent / "catalog") if G.order <= 27]


class TestEdgeSolveAgainstTableBasis:
    """Reports read H^2 off the edge solve; a dump's table basis must read the same group.

    The edge solve's generator tables, in the table basis's coordinates,
    must also generate H^2, each with an order dividing its summand's.
    """

    @staticmethod
    def check(G, m, cap):
        h2 = h2_order(G, m, cap)
        orders, tables = cohomology._edge_solve(G, m, cap)[2:]
        space = cocycle_space(G, m, cap)
        assert (space.h2_order, space.h2_invariants) == h2 and prod(orders) == h2[0]
        if not orders:
            return
        coords = space._coords(tables)
        table_orders = np.array(space.basis_orders, dtype=np.int64)
        assert not (np.array(orders)[:, None] * coords % table_orders).any()
        assert lattice_index(hnf_from_rows(np.vstack([coords, np.diag(table_orders)]), space.rank, m), m) == 1

    @pytest.mark.parametrize("G", CATALOG_UP_TO_27, ids=lambda G: G.label)
    def test_catalog(self, G):
        for m in sorted({2, 3, 4, G.order}):
            self.check(from_mul_table(G.mul, label=G.label), m, 27)

    @pytest.mark.parametrize("m", [2, 64])
    def test_b64(self, m):
        self.check(b0_group("B64"), m, 64)


class TestLowerBound:
    def test_abelian_is_trivial(self):
        for G in (Z2, V4, cyclic(8)):
            order, inv = b0_lower_bound(G, G.order)
            assert order == 1 and inv.factors == ()

    def test_s3(self):
        assert b0_lower_bound(S3, 6)[0] == 1

    def test_d4(self):
        assert b0_lower_bound(D4, 8)[0] == 1

    def test_one_block_per_conjugacy_class_of_maximal_abelian_subgroups(self, monkeypatch):
        blocks, original = [], cohomology._coboundary_rows
        monkeypatch.setattr(
            cohomology, "_coboundary_rows", lambda mul, members, m: blocks.append(members) or original(mul, members, m)
        )
        subgroups = classes = 0
        for family, params in ORACLE_SMALL:
            G = builtin(family, params)
            start = len(blocks)
            b0_lower_bound(G, G.order)
            subs = abelian_subgroups(G)
            conjugates = [
                frozenset(frozenset(G.mul[G.mul[g][a]][G.inv[g]] for a in A.members) for g in range(G.order))
                for A in subs
            ]
            # one block per class, its first subgroup in (size, members) order
            firsts = [A.members for A, c in zip(subs, conjugates) if conjugates.index(c) == subs.index(A)]
            assert [tuple(b.tolist()) for b in blocks[start:]] == firsts
            subgroups, classes = subgroups + len(subs), classes + len(set(conjugates))
        assert (subgroups, classes, len(blocks)) == (82, 41, 41)
        assert sum((len(b) - 1) ** 2 for b in blocks) == 1502


class TestLowerBoundAgainstRestrictionMatrices:
    """b0_lower_bound gives the (order, invariants) of the route through every subgroup's space."""

    @staticmethod
    def check(G, moduli, cap):
        for m in moduli:
            assert b0_lower_bound(G, m, cap) == b0_by_restriction_matrices(G, m, cap), (G.label, m)

    @pytest.mark.parametrize("G", CATALOG_UP_TO_27, ids=lambda G: G.label)
    def test_catalog(self, G):
        self.check(from_mul_table(G.mul, label=G.label), sorted({2, 3, 4, G.order}), 27)

    @pytest.mark.parametrize("G", [builtin(family, params) for family, params in ORACLE_SMALL], ids=lambda G: G.label)
    def test_oracle_pool_and_two_relabelings(self, G):
        rng = random.Random(G.order)
        relabelings = [relabeled(G, [0] + rng.sample(range(1, G.order), G.order - 1)) for _ in range(2)]
        for H in [from_mul_table(G.mul, label=G.label), *relabelings]:
            self.check(H, (H.order,), H.order)

    @pytest.mark.parametrize("m", [2, 64])
    def test_b64_whose_bound_is_not_trivial(self, m):
        G = b0_group("B64")
        assert b0_lower_bound(G, m, 64) == b0_by_restriction_matrices(G, m, 64) == (2, AbelianInvariants((2,)))


def test_cocycle_dump_shape():
    doc = cocycle_dump(V4, 4)
    assert doc["h2_order"] == 8
    assert len(doc["basis_tables"]) == len(doc["basis_orders"])
    assert doc["restrictions"]
    for entry in doc["restrictions"]:
        assert len(entry["matrix"]) == len(doc["basis_orders"])


# sha256 of dump_json(cocycle_dump(G, m)), recorded before the complement and
# quotient were read off triangular bases instead of Smith forms
DUMP_SHA256 = {
    ("S4", 24): "0cc8f91352d295b9d83553ff594efa7f2e4719648ece59c9022faec069011553",
    ("S4", 2): "62031f49b37ffb6df048429a4eb614ca60fba533855e29309686a52f0312d42f",
    ("D4", 8): "95416293a4fff9a0f808a106d5aa19c36c0baebd8b5bc4baf7b87ce8b5c70720",
    ("D4", 2): "8bc449088799d206fff4e58d184bfab9ff668629840c95ca4803462c7986ea93",
    ("A4", 12): "2e1327b9910cd25e97ca0a6f9dd85512f460baf51c9ee7a85cd25911c3e69c84",
    ("A4", 2): "556d582ce9650b379be4d6bdf7f59209dd08ea2d19e270d3b5830dff7f04a00f",
    ("Q8", 8): "5b7dc5df4bad9cf61a4e78c9c015208533307a75cb4cc5ae2fcb87ae394dba61",
    ("Q8", 2): "414a0489d8e7338ee70bc74922488bed59ea12c3b7dc6096c30b13e27022a651",
    ("V4", 4): "17bee009a826f5c6a619c84ecfa42bb9f49df6cca45607b4af4f903ae4052aae",
}
DUMP_GROUPS = {
    "S4": lambda: builtin("symmetric", (4,)),
    "D4": lambda: D4,
    "A4": lambda: builtin("alternating", (4,)),
    "Q8": lambda: builtin("quaternion8"),
    "V4": lambda: V4,
}


@pytest.mark.parametrize("name, m", sorted(DUMP_SHA256))
def test_cocycle_dump_bytes_are_pinned(name, m):
    """Pins byte stability of the dump, not a reference value.

    The hashes are grouplab's own earlier output, so they show that basis
    tables, orders and restriction matrices did not change, not that they
    are right; the brute-force and known-multiplier tests check that.
    """
    text = dump_json(cocycle_dump(DUMP_GROUPS[name](), m))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[name, m]


@pytest.mark.parametrize("entry", [(0, 1), (2, 0), (0, 0)])
def test_cohomology_input_checks(entry):
    space = cocycle_space(builtin("symmetric", (3,)), 6)
    table = np.zeros((6, 6), dtype=np.int64)
    table[entry] = 1
    with pytest.raises(ValidationError, match=re.escape("table is not normalized (identity row/column nonzero)")):
        space.class_from_table(table)


@pytest.mark.parametrize("cap", [None, 3.5, True, "24"])
def test_oracle_cap_is_an_integer(cap):
    # at the parent None and "24" raised a bare TypeError, and 3.5 and True were read as caps
    with pytest.raises(ValidationError, match=f"oracle cap {cap!r} is not an integer or lies below 0"):
        cocycle_space(from_mul_table(V4.mul), 2, cap)
    with pytest.raises(GroupTooLargeForOracle):  # a cap of 0 is still a cap
        cocycle_space(from_mul_table(V4.mul), 2, 0)
