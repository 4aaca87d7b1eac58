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

The quotient is computed through the mod-m lattice calculus on N columns:
the edge solutions over the coboundaries of the [. = h], h != 1, which read
[x=h] + [g_i=h] - [x*g_i=h] at the edge (x, g_i). Its invariants and its
generators' tables, which b0_lower_bound gathers on the maximal abelian
subgroups, are all that reports read: cocycle_space hands out the order
and invariants at once, and builds its basis on the k = (|G|-1)^2 table
entries, one array of tables that must give the same invariants, only at
the basis's first read. Restriction to a subgroup gathers every basis
table's entries on it and solves them against the subgroup's space.

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

from dataclasses import dataclass, field
from functools import cache
from math import prod
from typing import Callable, Sequence

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
    """H^2(G, Z/m) and its basis data on normalized cocycle tables.

    h2_order and h2_invariants are read off G's edge solve. The table basis
    is built at the first read of ``basis`` or ``basis_orders``, which no
    report makes: ``basis`` is a read-only int64 array of shape (rank, n, n);
    basis[i] is the table of the i-th generator, of order basis_orders[i].
    """

    group: FiniteGroup
    modulus: int
    h2_order: int
    h2_invariants: AbelianInvariants
    # built once: (basis, basis_orders, the solver's factory, None for n = 1 or m = 1)
    _table_basis: Callable[[], tuple[np.ndarray, tuple[int, ...], Callable[[], LatticeSolver] | None]] = field(repr=False)

    @property
    def basis(self) -> np.ndarray:
        return self._table_basis()[0]

    @property
    def basis_orders(self) -> tuple[int, ...]:
        return self._table_basis()[1]

    @property
    def _solver(self) -> Callable[[], LatticeSolver] | None:
        return self._table_basis()[2]

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
        cocycle modulo m. An array must have an integer dtype; anything else
        is read entry by entry, so that a bool, float or str entry is refused.
        """
        n, m = self.group.order, self.modulus
        try:
            t = tables if isinstance(tables, np.ndarray) else np.array(tables, dtype=object)
        except ValueError as exc:
            raise ValidationError(f"tables are not integer arrays: {exc}") from exc
        if t.ndim != 3 or t.shape[1:] != (n, n):
            raise ValidationError(f"a table of {self.group.label} is {n} x {n}, got shape {t.shape[1:]}")
        if t.dtype == object:
            _check_integers(t.ravel().tolist(), "table entry", lo=None)
        elif t.dtype.kind in "iu":  # widened, so that t % m is exact
            t = t.astype(np.uint64 if t.dtype.kind == "u" else np.int64)
        else:
            raise ValidationError(f"tables of dtype {t.dtype} are not integer arrays")
        t = np.asarray(t % m, dtype=np.int64)
        if t[:, 0].any() or t[:, :, 0].any():
            raise ValidationError("table is not normalized (identity row/column nonzero)")
        if self._solver is None:  # n = 1 or m = 1: every normalized table is zero
            return np.zeros((len(t), 0), dtype=np.int64)
        sol = self._solver().solve(t[:, 1:, 1:].reshape(len(t), (n - 1) ** 2))
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
    non-tree rows, and column x * |G| + z of E is the coefficient vector of
    f(x, z) over the unknowns, built along a breadth-first spanning tree; so
    the rows of (H @ E) % m are the flattened tables of the edge vectors H.
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
    return rows[rows.any(axis=1)], E.reshape(n * n, N).T


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


def _coboundary_rows(mul: np.ndarray, members: np.ndarray, m: int) -> np.ndarray:
    """Normalized coboundaries [x=g] + [y=g] - [xy=g] of a subgroup, g in members[1:], on (x, y) in members[1:]^2."""
    g = members[1:]
    e = (g[:, None] == g).astype(np.int64)
    full = e[:, :, None] + e[:, None, :] - (g[:, None, None] == mul[g[:, None], g])
    return full.reshape(len(g), -1) % m


def _edge_solve(G: FiniteGroup, m: int, cap: int) -> tuple[int, np.ndarray, tuple[int, ...], np.ndarray]:
    """H^2(G, Z/m) on the N = (|G| - 1) * d edge unknowns, kept on ``G`` per modulus.

    Returns m as an int, the canonical basis of the edge solutions, the
    orders of the cyclic summands and the (s, n, n) tables of their generators.
    """
    _check_integers((m,), "modulus", lo=1)
    _check_integers((cap,), "oracle cap")
    m = int(m)
    if G.order > cap:
        raise GroupTooLargeForOracle(f"|{G.label}| = {G.order} exceeds the oracle cap {cap}")
    if m * m * max(2, (G.order - 1) ** 2) >= 2**63:
        raise ValidationError(f"modulus {m} is too large for exact int64 arithmetic on {G.label}")

    def build() -> tuple[int, np.ndarray, tuple[int, ...], np.ndarray]:
        n = G.order
        if n == 1 or m == 1:  # every normalized table is zero
            return m, np.zeros((0, 0), dtype=np.int64), (), np.zeros((0, n, n), dtype=np.int64)
        rows, E = _edge_system(G, m)
        N = E.shape[0]
        Hs = orth_complement(rows, N, m)
        if not _check_cocycle(G, m, Hs @ E % m):
            raise InternalCheckFailed("an edge solution does not build a normalized cocycle")
        mul, g = table_arrays(G)[0], np.array(minimal_generating_sequence(G))
        x, h = np.arange(1, n)[:, None], np.arange(1, n)[:, None, None]
        cob = ((x == h) * 1 + (g == h) - (mul[x, g] == h)).reshape(n - 1, N) % m
        if member_residual(Hs, cob, m).any():
            raise InternalCheckFailed("a coboundary failed the cocycle conditions")
        Hb = hnf_from_rows(cob, N, m)
        orders, gens = quotient_structure(Hb, Hs, m)
        index_ratio = lattice_index(Hb, m) // lattice_index(Hs, m)
        if prod(orders) != index_ratio:
            raise InconsistentOrders(f"quotient order {prod(orders)} disagrees with index ratio {index_ratio}")
        tables = (gens @ E % m).reshape(-1, n, n)
        if not _check_cocycle(G, m, tables):
            raise InternalCheckFailed("a generator table is not a normalized cocycle")
        return m, Hs, tuple(orders), tables

    return _cached(G, f"_edge_solve_{m}", build)


def _cocycle_lattice(G: FiniteGroup, m: int) -> np.ndarray:
    """Canonical basis of the normalized cocycles on the (n-1)^2 table entries, from G's edge solutions' tables."""
    n = G.order
    k = (n - 1) * (n - 1)
    tables = (_edge_solve(G, m, n)[1] @ _edge_system(G, m)[1] % m).reshape(-1, n, n)
    return hnf_from_rows(tables[:, 1:, 1:].reshape(-1, k), k, m)


def _table_basis(G: FiniteGroup, m: int, edge: tuple[int, AbelianInvariants]) -> tuple:
    """CocycleSpace._table_basis: the basis on the k = (|G| - 1)^2 table entries, from G's edge solve.

    Its quotient must read the edge solve's order and invariants ``edge``,
    or InconsistentOrders is raised.
    """
    n = G.order
    if n == 1 or m == 1:  # every normalized table is zero; the edge solve's tables are an empty read-only stack
        return _edge_solve(G, m, n)[3], (), None
    k = (n - 1) * (n - 1)
    Hz = _cocycle_lattice(G, m)

    cob_rows = _coboundary_rows(table_arrays(G)[0], np.arange(n), m)
    Hb = hnf_from_rows(cob_rows, k, m)
    if member_residual(Hz, cob_rows, m).any():
        raise InternalCheckFailed("a coboundary failed the cocycle conditions")

    diag, gens = quotient_structure(Hb, Hz, m)
    order, invariants = prod(diag), AbelianInvariants(invariant_factors_from_orders(diag))
    if (order, invariants) != edge:
        raise InconsistentOrders(f"table basis {order} {invariants.factors} disagrees with edge solve {edge[0]} {edge[1].factors}")
    basis = np.zeros((len(diag), n, n), dtype=np.int64)
    basis[:, 1:, 1:] = gens.reshape(-1, n - 1, n - 1)
    if not _check_cocycle(G, m, basis):
        raise InternalCheckFailed("computed basis table is not a normalized cocycle")
    basis.flags.writeable = False
    # built at the first class lookup
    return basis, tuple(diag), cache(lambda: LatticeSolver(np.vstack([gens, Hb]), k, m))


def cocycle_space(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> CocycleSpace:
    """H^2(G, Z/m) with its basis data, kept on ``G`` and keyed by ``m``.

    Later calls with the same group object reuse the space, which is freed
    together with the group. Equality, hashing and repr of ``G`` ignore it.
    A new group object starts with none.
    The order and invariants are read off G's edge solve, and are all that
    reports read. The table basis is built at its first read, by a quotient
    on the k = (|G| - 1)^2 table entries, which must read the edge solve's
    order and invariants, or InconsistentOrders is raised.

    The arithmetic is exact in int64 while m^2 * max(2, k) < 2^63, with
    k = (|G| - 1)^2, and a larger m is rejected. Entries stay below m, so a
    product of two is below m^2. _reduce and hnf_canonical add one such
    product to an entry, _combine and snf_mod's W update add two, and the
    matrix products Hs @ E, gens @ sup_H and representative_table sum at
    most k of them.
    """
    m, _, orders, _ = _edge_solve(G, m, cap)
    spaces = _cached(G, "_cocycle_spaces", dict)
    if m not in spaces:
        edge = prod(orders), AbelianInvariants(invariant_factors_from_orders(orders))
        spaces[m] = CocycleSpace(G, m, *edge, cache(lambda: _table_basis(G, m, edge)))
    return spaces[m]


def h2_order(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, AbelianInvariants]:
    """Order and invariants of H^2(G, Z/m), read off the edge solve; no table basis is built."""
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
    ``A.as_group()`` keeps on ``A``. A is no larger than the space's group,
    which has already passed the oracle cap, so A's space is admitted under
    that group's order.
    """
    if A.parent.mul != space.group.mul:
        raise ValidationError("subgroup does not belong to the space's group")
    sub, members = A.as_group()
    # A = G: reuse G's space
    space_A = space if sub.mul == space.group.mul else cocycle_space(sub, space.modulus, space.group.order)
    idx = np.array(members)
    return space_A, space_A._coords(space.basis[:, idx[:, None], idx])


def restrict(c: H2Class, A: Subgroup) -> H2Class:
    """Restriction of a class along an inclusion of a subgroup."""
    space_A, mat = restriction_matrix(c.space, A)
    return space_A.class_from_coords(np.asarray(c.coords, dtype=np.int64) @ mat)


def b0_lower_bound(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, AbelianInvariants]:
    """Order and invariants of the intersection of restriction kernels in H^2(G, Z/m).

    The intersection runs over the maximal abelian subgroups (restriction
    factors through inclusions, so smaller abelian subgroups add nothing),
    one per conjugacy class, as conjugation acts trivially on H^2(G, Z/m):
    on the benchmark's 17 oracle groups, 41 blocks instead of 82.
    It is a lower bound for B0(G) only when the exponent of G divides m, as
    at the m = |G| of the reports, where it has held on every group tried.
    At other m it can exceed B0(G): b0_lower_bound(Q8, 2) is (4, (2, 2)),
    but B0(Q8) = 0.

    No subgroup space and no table basis is built: the class u restricts to
    zero on A exactly when sum_i u_i * T_i on A x A is a normalized
    coboundary of A plus m*Z, with T_i the edge solve's generator tables.
    So the Hermite form on W + s columns (W the sum of (|A| - 1)^2, s the
    rank) of the rows [T_i on each A x A | e_i] and A's coboundaries in A's
    block has the kernel's basis in its rows with pivot >= W, cut to their
    last s columns: by triangularity they span its members (0, u).
    """
    m, _, orders, tables = _edge_solve(G, m, cap)
    s = len(orders)
    if s == 0:
        return 1, AbelianInvariants(())
    mul, _, conj = table_arrays(G)
    classes: dict[frozenset, np.ndarray] = {}  # the first subgroup of each conjugacy class
    for A in abelian_subgroups(G):
        classes.setdefault(frozenset(map(tuple, np.sort(conj[:, A.members], axis=1).tolist())), np.array(A.members))
    subs = list(classes.values())
    cobs = [_coboundary_rows(mul, a, m) for a in subs]
    ends = np.cumsum([c.shape[1] for c in cobs]).tolist()
    W = ends[-1]
    rows = [np.hstack([tables[:, a[1:, None], a[1:]].reshape(s, -1) for a in subs] + [np.eye(s, dtype=np.int64)])]
    rows += [np.pad(c, ((0, 0), (end - c.shape[1], W + s - end))) for c, end in zip(cobs, ends)]
    H = hnf_from_rows(np.vstack(rows), W + s, m)
    kernel_H = H[~H[:, :W].any(axis=1), W:]
    sub_H = hnf_from_rows(np.diag(np.array(orders, dtype=np.int64)), s, m)
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
