"""Second cohomology with finite coefficients, by explicit 2-cocycles.

Normalized 2-cocycles f : G x G -> Z/m (f(1, y) = f(x, 1) = 0) are the
solutions of

    df(x, y, z) = f(x, y) + f(xy, z) - f(y, z) - f(x, yz) = 0  (mod m),

and coboundaries are spanned by df_g(x, y) = [x=g] + [y=g] - [xy=g].

The system is solved on edge unknowns (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 7): the values f(x, g) for x != 1 and g in
a generating sequence g_1..g_d, (|G|-1)*d of them. That loses nothing:

  * Tree identities. A breadth-first spanning tree of the right Cayley
    graph reaches every z from 1 by edges y -> yg, and df(x, y, g) = 0
    reads f(x, yg) = f(x, y) + f(xy, g) - f(y, g). Along the tree this
    writes every f(x, z) in the edge unknowns, so a cocycle is fixed by
    its edge values, and the tables built this way are normalized.
  * Non-tree rows. Each edge y -> yg outside the tree gives, for each x,
    the same identity as a linear row in the edge unknowns. Together with
    the tree identities they say df(x, y, g) = 0 for every x, y and every
    generator g; every cocycle satisfies them.
  * Induction on z. d(df) = 0 gives

        df(x, y, zg) = df(y, z, g) - df(xy, z, g) + df(x, yz, g) + df(x, y, z),

    and df(x, y, 1) = 0, so by induction on the word length of z the
    identities with z a generator imply every other one.

So the edge solutions map one to one onto the normalized cocycles. Each
table built from a basis row of the edge solutions is checked to be a
normalized cocycle over every triple.

The quotient is computed through the mod-m lattice calculus: both sides
become lattices between m*Z^k and Z^k on k = (|G|-1)^2 table entries. The
canonical basis of the cocycle lattice comes from the full tables of the
edge solutions, and the quotient's invariants and basis tables come from
one diagonalisation of its relations. The basis is kept as one array of
tables, and restriction to a subgroup is one gather of every basis table's
entries on the subgroup and one block solve against the subgroup's space.

Since the rationals-mod-integers coefficients of the classical restriction
intersection are not finitely representable, this oracle fixes coefficients
Z/m, and the reports take m = |G|. The intersection of restriction kernels
over maximal abelian subgroups is a lower bound for the Bogomolov kernel
order only when the exponent of G divides m, as it does at m = |G|; there
equality is observed and reported per group rather than assumed. At other
m the intersection can be larger than B0(G) (on Q8 at m = 2 it has order
4, and B0(Q8) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from typing import Sequence

import numpy as np

from .errors import (
    GroupTooLargeForOracle,
    InconsistentOrders,
    InternalCheckFailed,
    ModulusMismatch,
    ValidationError,
)
from .groups import (
    AbelianInvariants,
    FiniteGroup,
    Subgroup,
    _cached,
    _check_integers,
    abelian_subgroups,
    derived_subgroup,
    invariant_factors_from_orders,
    minimal_generating_sequence,
    table_arrays,
)
from .lattices import (
    LatticeSolver,
    hnf_from_rows,
    lattice_index,
    member_residual,
    orth_complement,
    quotient_structure,
)

DEFAULT_ORACLE_CAP = 24


@dataclass(frozen=True, eq=False)
class CocycleSpace:
    """Basis data for H^2(G, Z/m) on normalized cocycle tables.

    ``basis`` is a read-only int64 array of shape (rank, n, n); basis[i] is
    the table of the i-th generator, of order basis_orders[i].
    """

    group: FiniteGroup
    modulus: int
    basis: np.ndarray
    basis_orders: tuple[int, ...]
    h2_order: int
    h2_invariants: AbelianInvariants
    _solver: LatticeSolver | None = field(repr=False, default=None)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def zero(self) -> "H2Class":
        return H2Class(self, (0,) * self.rank)

    def class_from_coords(self, coords: Sequence[int]) -> "H2Class":
        if len(coords) != self.rank:
            raise ValidationError("coordinate length does not match basis rank")
        _check_integers(coords, "coordinate", lo=None)
        normal = tuple(int(c) % d for c, d in zip(coords, self.basis_orders))
        return H2Class(self, normal)

    def class_from_table(self, table: Sequence[Sequence[int]]) -> "H2Class":
        """Class of an arbitrary normalized cocycle table."""
        return self.class_from_coords(self._coords([table])[0])

    def _coords(self, tables: np.ndarray | Sequence) -> np.ndarray:
        """Class coordinates of a stack of tables, one row per table, by one block solve.

        Raises ValidationError unless every table is an n x n normalized
        cocycle modulo m.
        """
        n, m = self.group.order, self.modulus
        try:
            t = np.asarray(tables, dtype=np.int64) % m
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"tables are not integer arrays: {exc}") from exc
        if t.ndim != 3 or t.shape[1:] != (n, n):
            raise ValidationError(f"a table of {self.group.label} is {n} x {n}, got shape {t.shape[1:]}")
        if t[:, 0].any() or t[:, :, 0].any():
            raise ValidationError("table is not normalized (identity row/column nonzero)")
        if self._solver is None:  # n = 1 or m = 1: every normalized table is zero
            return np.zeros((len(t), 0), dtype=np.int64)
        sol = self._solver.solve(t[:, 1:, 1:].reshape(len(t), (n - 1) ** 2))
        if sol is None:
            raise ValidationError("table is not a cocycle modulo m")
        return sol[:, : self.rank] % np.array(self.basis_orders, dtype=np.int64)

    def representative_table(self, coords: Sequence[int]) -> list[list[int]]:
        """The table of the class with these coordinates, checked and reduced by ``class_from_coords``."""
        coords = self.class_from_coords(coords).coords
        return (np.tensordot(np.asarray(coords, dtype=np.int64), self.basis, 1) % self.modulus).tolist()


@dataclass(frozen=True)
class H2Class:
    """A cohomology class in coordinates relative to a computed basis."""

    space: CocycleSpace
    coords: tuple[int, ...]

    def __add__(self, other: "H2Class") -> "H2Class":
        mine, theirs = self.space, other.space
        if mine.modulus != theirs.modulus or mine.group.mul != theirs.group.mul:
            raise ModulusMismatch("classes from different cocycle spaces")
        return self.space.class_from_coords(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def table(self) -> list[list[int]]:
        return self.space.representative_table(self.coords)


def _edge_system(G: FiniteGroup, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint rows on the edge unknowns, and the tables they build.

    Unknown (x - 1) * d + i is f(x, g_i), for x != 1 and g_i the i-th entry
    of the generating sequence. Returns (rows, E): rows are the nonzero
    non-tree rows, and E[x, z] is the coefficient vector of f(x, z) over
    the unknowns, built along a breadth-first spanning tree.
    """
    n = G.order
    mul = table_arrays(G)[0]
    gens = minimal_generating_sequence(G)
    d = len(gens)
    N = (n - 1) * d
    # U[w, i] is the coefficient vector of the unknown f(w, g_i); f(1, g_i) = 0
    U = np.zeros((n, d, N), dtype=np.int64)
    U[1:] = np.eye(N, dtype=np.int64).reshape(n - 1, d, N)
    E = np.zeros((n, n, N), dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    tree_order, nontree = [0], []
    for y in tree_order:  # grows while it is walked: breadth-first order
        for i, g in enumerate(gens):
            z = int(mul[y, g])
            if seen[z]:
                nontree.append((y, i, z))
                continue
            seen[z] = True
            tree_order.append(z)
            # f(x, yg) = f(x, y) + f(xy, g) - f(y, g), for every x at once
            E[:, z] = (E[:, y] + U[mul[:, y], i] - U[y, i]) % m
    y, i, z = (np.array(c, dtype=np.int64) for c in zip(*nontree))
    rows = (E[1:, y] + U[mul[1:, y], i] - U[y, i] - E[1:, z]).reshape(-1, N) % m
    return rows[rows.any(axis=1)], E


def _check_cocycle(G: FiniteGroup, m: int, tables: np.ndarray | Sequence) -> bool:
    """Whether every table, one n x n table or a stack of them, is a normalized cocycle."""
    n = G.order
    t = np.asarray(tables, dtype=np.int64).reshape(-1, n, n)
    mul = table_arrays(G)[0]
    if (t[:, 0] % m).any() or (t[:, :, 0] % m).any():
        return False
    # f(x, y) + f(xy, z) - f(y, z) - f(x, yz), one z at a time to bound memory
    for z in range(n):
        defect = t + t[:, mul, z] - t[:, :, z][:, None, :] - t[:, :, mul[:, z]]
        if (defect % m).any():
            return False
    return True


def _cocycle_lattice(G: FiniteGroup, m: int) -> np.ndarray:
    """Canonical basis of the normalized cocycles, on the (n-1)^2 table entries.

    Each basis row of the edge solutions is mapped to the table it builds.
    """
    n = G.order
    k = (n - 1) * (n - 1)
    rows, E = _edge_system(G, m)
    Hs = orth_complement(rows, E.shape[2], m)
    tables = (Hs @ E.reshape(n * n, -1).T % m).reshape(-1, n, n)
    if not _check_cocycle(G, m, tables):
        raise InternalCheckFailed("an edge solution does not build a normalized cocycle")
    return hnf_from_rows(tables[:, 1:, 1:].reshape(-1, k), k, m)


def cocycle_space(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> CocycleSpace:
    """Compute the H^2(G, Z/m) basis data, kept on ``G`` and keyed by ``m``.

    Later calls with the same group object reuse the space, which is freed
    together with the group. Equality, hashing and repr of ``G`` ignore it.
    A new group object starts with none, except that ``restriction_matrix``
    gives a subgroup's group a copy of the space of an earlier subgroup of
    the same parent whose table is equal.
    Each lattice on the k = (|G| - 1)^2 table entries is kept as the rows of
    its Hermite form with pivot below m (see lattices): on B64, of order
    64, 60 to 66 rows of k = 3,969.

    The arithmetic is exact in int64 while m^2 * max(2, k) < 2^63, with
    k = (|G| - 1)^2, and a larger m is rejected. Entries stay below m, so a
    product of two is below m^2. _reduce and hnf_canonical add one such
    product to an entry, _combine and snf_mod's W update add two, and the
    matrix products Hs @ E, gens @ sup_H and representative_table sum at
    most k of them.
    """
    _check_integers((m,), "modulus", lo=1)
    _check_integers((cap,), "oracle cap")
    m = int(m)
    if G.order > cap:
        raise GroupTooLargeForOracle(
            f"|{G.label}| = {G.order} exceeds the oracle cap {cap}"
        )
    if m * m * max(2, (G.order - 1) ** 2) >= 2**63:
        raise ValidationError(f"modulus {m} is too large for exact int64 arithmetic on {G.label}")
    spaces = _cached(G, "_cocycle_spaces", dict)
    if m in spaces:
        return spaces[m]
    n = G.order
    if n == 1 or m == 1:  # every normalized table is zero
        basis = np.zeros((0, n, n), dtype=np.int64)
        basis.flags.writeable = False
        space = CocycleSpace(G, m, basis, (), 1, AbelianInvariants(()))
        spaces[m] = space
        return space
    k = (n - 1) * (n - 1)
    Hz = _cocycle_lattice(G, m)

    # row g - 1 is the coboundary of the indicator of g: [x=g] + [y=g] - [xy=g]
    e = np.eye(n, dtype=np.int64)
    full = e[:, :, None] + e[:, None, :] - e[:, table_arrays(G)[0]]
    cob_rows = full[1:, 1:, 1:].reshape(n - 1, k) % m
    Hb = hnf_from_rows(cob_rows, k, m)
    if member_residual(Hz, cob_rows, m).any():
        raise InternalCheckFailed("a coboundary failed the cocycle conditions")

    diag, gens = quotient_structure(Hb, Hz, m)
    order = prod(diag)
    index_ratio = lattice_index(Hb, m) // lattice_index(Hz, m)
    if order != index_ratio:
        raise InconsistentOrders(
            f"quotient order {order} disagrees with index ratio {index_ratio}"
        )
    basis = np.zeros((len(diag), n, n), dtype=np.int64)
    basis[:, 1:, 1:] = gens.reshape(-1, n - 1, n - 1)
    if not _check_cocycle(G, m, basis):
        raise InternalCheckFailed("computed basis table is not a normalized cocycle")
    basis.flags.writeable = False
    space = CocycleSpace(
        group=G,
        modulus=m,
        basis=basis,
        basis_orders=tuple(diag),
        h2_order=order,
        h2_invariants=AbelianInvariants(invariant_factors_from_orders(diag)),
        _solver=LatticeSolver(np.vstack([gens, Hb]), k, m),
    )
    spaces[m] = space
    return space


def h2_order(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, AbelianInvariants]:
    """Order and invariants of H^2(G, Z/m)."""
    space = cocycle_space(G, m, cap)
    return space.h2_order, space.h2_invariants


def multiplier_order_oracle(G: FiniteGroup, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Schur multiplier order via |H^2(G, Z/|G|)| / |G^ab|.

    With m = |G| the count of H^2 splits as the abelianisation order times
    the multiplier order, so the division must be exact.
    """
    space = cocycle_space(G, G.order, cap)
    ab_order = G.order // len(derived_subgroup(G))
    q, r = divmod(space.h2_order, ab_order)
    if r:
        raise InconsistentOrders(
            f"|H^2({G.label}, Z/{G.order})| = {space.h2_order} is not divisible "
            f"by |G^ab| = {ab_order}"
        )
    return q


def restriction_matrix(space: CocycleSpace, A: Subgroup) -> tuple[CocycleSpace, np.ndarray]:
    """Matrix of the restriction map on basis classes, rows indexed by basis.

    The basis tables' entries on A x A are gathered at once and solved as
    one block against A's space, which is kept on the group that
    ``A.as_group()`` keeps on ``A``. It is computed once per distinct table
    and modulus of the space's group: a later subgroup with an equal table,
    a twin, gets a copy of the first space with its own group, sharing the
    read-only basis and solver. A is no larger than the space's group, which
    has already passed the oracle cap, so A's space is admitted under that
    group's order.
    """
    if A.parent.mul != space.group.mul:
        raise ValidationError("subgroup does not belong to the space's group")
    sub, members = A.as_group()
    m = space.modulus
    space_A = space  # A = G: reuse G's space
    if sub.mul != space.group.mul:
        # keyed on the full table, so a twin's basis is the one its own run would give
        firsts = _cached(space.group, "_subgroup_spaces", dict)
        own = _cached(sub, "_cocycle_spaces", dict)
        if m not in own and (sub.mul, m) in firsts:
            own[m] = replace(firsts[sub.mul, m], group=sub)
        space_A = cocycle_space(sub, m, space.group.order)
        firsts.setdefault((sub.mul, m), space_A)
    idx = np.array(members)
    return space_A, space_A._coords(space.basis[:, idx[:, None], idx])


def restrict(c: H2Class, A: Subgroup) -> H2Class:
    """Restriction of a class along an inclusion of a subgroup."""
    space_A, mat = restriction_matrix(c.space, A)
    return space_A.class_from_coords(np.asarray(c.coords, dtype=np.int64) @ mat)


def b0_lower_bound(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, AbelianInvariants]:
    """Order and invariants of the intersection of restriction kernels in H^2(G, Z/m).

    The intersection runs over the maximal abelian subgroups (restriction
    factors through inclusions, so smaller abelian subgroups add nothing).
    It is a lower bound for B0(G) only when the exponent of G divides m, as
    at the m = |G| of the reports, where it has held on every group tried.
    At other m it can exceed B0(G): b0_lower_bound(Q8, 2) is (4, (2, 2)),
    but B0(Q8) = 0.
    """
    space = cocycle_space(G, m, cap)
    s = space.rank
    if s == 0:
        return 1, AbelianInvariants(())
    # column j of A's matrix, times m / (order of A's generator j), is one row
    constraint_rows: list[np.ndarray] = []
    for A in abelian_subgroups(G):
        space_A, mat = restriction_matrix(space, A)
        constraint_rows.extend((mat * (m // np.array(space_A.basis_orders, dtype=np.int64))).T)
    kernel_H = orth_complement(np.array(constraint_rows, dtype=np.int64), s, m)
    sub_rows = np.diag(np.array(space.basis_orders, dtype=np.int64))
    sub_H = hnf_from_rows(sub_rows, s, m)
    if member_residual(kernel_H, sub_H, m).any():
        raise InternalCheckFailed("coboundary relations escaped the kernel stack")
    diag, _ = quotient_structure(sub_H, kernel_H, m)
    return prod(diag), AbelianInvariants(invariant_factors_from_orders(diag))


def cocycle_dump(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> dict:
    """Audit document: basis coordinates, orders, and restriction matrices."""
    space = cocycle_space(G, m, cap)
    doc = {
        "schema_version": 1,
        "group": G.label,
        "order": G.order,
        "modulus": m,
        "h2_order": space.h2_order,
        "h2_invariants": list(space.h2_invariants.factors),
        "basis_orders": list(space.basis_orders),
        "basis_tables": space.basis.tolist(),
        "restrictions": [],
    }
    for A in abelian_subgroups(G):
        space_A, mat = restriction_matrix(space, A)
        doc["restrictions"].append(
            {
                "subgroup_members": list(A.members),
                "subgroup_order": len(A),
                "target_h2_order": space_A.h2_order,
                "target_basis_orders": list(space_A.basis_orders),
                "matrix": mat.tolist(),
            }
        )
    return doc
