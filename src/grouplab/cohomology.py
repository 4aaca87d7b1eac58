"""Second cohomology with finite coefficients, by explicit 2-cocycles.

Normalized 2-cocycles f : G x G -> Z/m (f(1, y) = f(x, 1) = 0) form the
kernel of the linear system

    f(x, y) + f(xy, z) - f(y, z) - f(x, yz) = 0  (mod m),

and coboundaries are spanned by df_g(x, y) = [x=g] + [y=g] - [xy=g]. The
quotient is computed through the mod-m lattice calculus: both sides become
lattices between m*Z^k and Z^k on k = (|G|-1)^2 coordinates, and the
quotient structure comes from one diagonalisation.

Since the rationals-mod-integers coefficients of the classical restriction
intersection are not finitely representable, this oracle fixes coefficients
Z/m with default m = |G|, which every element order divides. The
intersection of restriction kernels over maximal abelian subgroups is then
a lower bound for the Bogomolov kernel order, with equality observed and
reported per group rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    abelian_subgroups,
    derived_subgroup,
    invariant_factors_from_orders,
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

_SPACE_CACHE: dict[tuple, "CocycleSpace"] = {}


@dataclass(frozen=True)
class CocycleSpace:
    """Basis data for H^2(G, Z/m) on normalized cocycle tables."""

    group: FiniteGroup
    modulus: int
    basis: tuple[tuple[tuple[int, ...], ...], ...]
    basis_orders: tuple[int, ...]
    coboundary_basis: tuple[tuple[tuple[int, ...], ...], ...]
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
        normal = tuple(int(c) % d for c, d in zip(coords, self.basis_orders))
        return H2Class(self, normal)

    def class_from_table(self, table: Sequence[Sequence[int]]) -> "H2Class":
        """Class of an arbitrary normalized cocycle table."""
        n = self.group.order
        if self.rank == 0:
            vec = _table_to_vector(table, n, self.modulus)
            if self._solver is not None and self._solver.solve(vec) is None:
                raise ValidationError("table is not a cocycle for this space")
            return self.zero()
        vec = _table_to_vector(table, n, self.modulus)
        sol = self._solver.solve(vec)
        if sol is None:
            raise ValidationError("table is not a cocycle modulo m")
        return self.class_from_coords(tuple(int(x) for x in sol[: self.rank]))

    def representative_table(self, coords: Sequence[int]) -> list[list[int]]:
        n = self.group.order
        m = self.modulus
        table = [[0] * n for _ in range(n)]
        for c, basis_table in zip(coords, self.basis):
            if c == 0:
                continue
            for x in range(n):
                row = basis_table[x]
                trow = table[x]
                for y in range(n):
                    trow[y] = (trow[y] + c * row[y]) % m
        return table


@dataclass(frozen=True)
class H2Class:
    """A cohomology class in coordinates relative to a computed basis."""

    space: CocycleSpace
    coords: tuple[int, ...]

    def __add__(self, other: "H2Class") -> "H2Class":
        if other.space is not self.space:
            raise ModulusMismatch("classes from different cocycle spaces")
        return self.space.class_from_coords(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def table(self) -> list[list[int]]:
        return self.space.representative_table(self.coords)


def _varindex(x: int, y: int, n: int) -> int:
    return (x - 1) * (n - 1) + (y - 1)


def _table_to_vector(table: Sequence[Sequence[int]], n: int, m: int) -> np.ndarray:
    for t in range(n):
        if table[0][t] % m or table[t][0] % m:
            raise ValidationError("table is not normalized (identity row/column nonzero)")
    vec = np.zeros((n - 1) * (n - 1), dtype=np.int64)
    for x in range(1, n):
        row = table[x]
        base = (x - 1) * (n - 1)
        for y in range(1, n):
            vec[base + y - 1] = row[y] % m
    return vec


def _vector_to_table(vec: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    table = [[0] * n for _ in range(n)]
    for x in range(1, n):
        base = (x - 1) * (n - 1)
        for y in range(1, n):
            table[x][y] = int(vec[base + y - 1])
    return tuple(tuple(row) for row in table)


def _cocycle_constraint_rows(G: FiniteGroup, m: int) -> list[np.ndarray]:
    """Deduplicated sparse rows of the cocycle identity, one per triple."""
    n = G.order
    k = (n - 1) * (n - 1)
    mul = G.mul
    seen: set[tuple] = set()
    rows: list[np.ndarray] = []
    for x in range(1, n):
        mul_x = mul[x]
        for y in range(1, n):
            xy = mul_x[y]
            mul_y = mul[y]
            v_xy = _varindex(x, y, n)
            for z in range(1, n):
                coeffs: dict[int, int] = {}

                def bump(idx: int, c: int) -> None:
                    coeffs[idx] = coeffs.get(idx, 0) + c

                bump(v_xy, 1)
                if xy != 0:
                    bump(_varindex(xy, z, n), 1)
                bump(_varindex(y, z, n), -1)
                yz = mul_y[z]
                if yz != 0:
                    bump(_varindex(x, yz, n), -1)
                items = tuple(sorted((i, c % m) for i, c in coeffs.items() if c % m))
                if not items:
                    continue
                neg = tuple(sorted((i, (-c) % m) for i, c in items))
                key = min(items, neg)
                if key in seen:
                    continue
                seen.add(key)
                row = np.zeros(k, dtype=np.int64)
                for i, c in items:
                    row[i] = c
                rows.append(row)
    return rows


def _check_cocycle(G: FiniteGroup, m: int, table: Sequence[Sequence[int]]) -> bool:
    n = G.order
    mul = G.mul
    for t in range(n):
        if table[0][t] % m or table[t][0] % m:
            return False
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            for z in range(n):
                if (table[x][y] + table[xy][z] - table[y][z] - table[x][mul[y][z]]) % m:
                    return False
    return True


def cocycle_space(G: FiniteGroup, m: int, cap: int = DEFAULT_ORACLE_CAP) -> CocycleSpace:
    """Compute (and cache) the H^2(G, Z/m) basis data."""
    if m < 1:
        raise ValidationError("modulus must be at least 1")
    if G.order > cap:
        raise GroupTooLargeForOracle(
            f"|{G.label}| = {G.order} exceeds the oracle cap {cap}"
        )
    key = (G.mul, m)
    hit = _SPACE_CACHE.get(key)
    if hit is not None:
        return hit
    n = G.order
    if n == 1 or m == 1:
        space = CocycleSpace(
            group=G,
            modulus=m,
            basis=(),
            basis_orders=(),
            coboundary_basis=(),
            h2_order=1,
            h2_invariants=AbelianInvariants(()),
            _solver=None,
        )
        _SPACE_CACHE[key] = space
        return space
    k = (n - 1) * (n - 1)
    constraints = _cocycle_constraint_rows(G, m)
    constraint_H = hnf_from_rows(constraints, k, m)
    Hz = orth_complement(constraint_H, k, m)

    cob_rows = []
    for g in range(1, n):
        row = np.zeros(k, dtype=np.int64)
        for x in range(1, n):
            for y in range(1, n):
                c = (1 if x == g else 0) + (1 if y == g else 0) - (1 if G.mul[x][y] == g else 0)
                if c % m:
                    row[_varindex(x, y, n)] = c % m
        cob_rows.append(row)
    Hb = hnf_from_rows(cob_rows, k, m)
    for row in cob_rows:
        if member_residual(Hz, row, m).any():
            raise InternalCheckFailed("a coboundary failed the cocycle conditions")

    diag, gens = quotient_structure(Hb, Hz, m, want_generators=True)
    order = 1
    for d in diag:
        order *= d
    index_ratio = lattice_index(Hb) // lattice_index(Hz)
    if order != index_ratio:
        raise InconsistentOrders(
            f"quotient order {order} disagrees with index ratio {index_ratio}"
        )
    basis_vecs = [gens[i] for i in range(len(diag)) if diag[i] > 1]
    basis_orders = tuple(d for d in diag if d > 1)
    basis_tables = tuple(_vector_to_table(v, n) for v in basis_vecs)
    for tbl in basis_tables:
        if not _check_cocycle(G, m, tbl):
            raise InternalCheckFailed("computed basis table is not a normalized cocycle")
    cob_tables = tuple(_vector_to_table(r, n) for r in cob_rows)
    if basis_vecs:
        solver_gens = np.vstack([np.array(basis_vecs, dtype=np.int64), Hb])
    else:
        solver_gens = Hb
    solver = LatticeSolver(solver_gens, k, m)
    space = CocycleSpace(
        group=G,
        modulus=m,
        basis=basis_tables,
        basis_orders=basis_orders,
        coboundary_basis=cob_tables,
        h2_order=order,
        h2_invariants=AbelianInvariants(invariant_factors_from_orders(diag)),
        _solver=solver,
    )
    _SPACE_CACHE[key] = space
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


def restrict(
    c: H2Class,
    A: Subgroup,
    cap: int = DEFAULT_ORACLE_CAP,
    target_space: CocycleSpace | None = None,
) -> H2Class:
    """Restriction of a class along an inclusion of a subgroup."""
    G = c.space.group
    if A.parent.mul != G.mul:
        raise ValidationError("subgroup does not belong to the class's group")
    sub, members = A.as_group()
    if target_space is not None:
        if target_space.modulus != c.space.modulus:
            raise ModulusMismatch(
                f"target space modulus {target_space.modulus} != {c.space.modulus}"
            )
        if target_space.group.mul != sub.mul:
            raise ValidationError("target space does not match the subgroup")
        space_A = target_space
    else:
        space_A = cocycle_space(sub, c.space.modulus, cap)
    big = c.table()
    small = [[big[a][b] for b in members] for a in members]
    return space_A.class_from_table(small)


def restriction_matrix(
    space: CocycleSpace, A: Subgroup, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[CocycleSpace, np.ndarray]:
    """Matrix of the restriction map on basis classes, rows indexed by basis."""
    sub, members = A.as_group()
    space_A = cocycle_space(sub, space.modulus, cap)
    rows = []
    for i in range(space.rank):
        cls = space.class_from_coords(
            tuple(1 if j == i else 0 for j in range(space.rank))
        )
        res = restrict(cls, A, cap=cap, target_space=space_A)
        rows.append(res.coords)
    mat = np.array(rows, dtype=np.int64).reshape(space.rank, space_A.rank)
    return space_A, mat


def b0_lower_bound(
    G: FiniteGroup,
    m: int,
    cap: int = DEFAULT_ORACLE_CAP,
    subgroups: Sequence[Subgroup] | None = None,
) -> tuple[int, AbelianInvariants]:
    """Order and invariants of the intersection of restriction kernels.

    The intersection runs over the maximal abelian subgroups (restriction
    factors through inclusions, so smaller abelian subgroups add nothing);
    a different stack can be supplied for experiments.
    """
    space = cocycle_space(G, m, cap)
    s = space.rank
    if s == 0:
        return 1, AbelianInvariants(())
    if subgroups is None:
        subgroups = abelian_subgroups(G, maximal_only=True)
    constraint_rows: list[np.ndarray] = []
    for A in subgroups:
        space_A, mat = restriction_matrix(space, A, cap=cap)
        for j in range(space_A.rank):
            e = space_A.basis_orders[j]
            constraint_rows.append((m // e) * mat[:, j])
    if constraint_rows:
        kernel_H = orth_complement(np.array(constraint_rows, dtype=np.int64), s, m)
    else:
        kernel_H = hnf_from_rows(np.eye(s, dtype=np.int64), s, m)
    sub_rows = np.diag(np.array(space.basis_orders, dtype=np.int64))
    sub_H = hnf_from_rows(sub_rows, s, m)
    for row in sub_H:
        if member_residual(kernel_H, row, m).any():
            raise InternalCheckFailed("coboundary relations escaped the kernel stack")
    diag, _ = quotient_structure(sub_H, kernel_H, m)
    order = 1
    for d in diag:
        order *= d
    return order, AbelianInvariants(invariant_factors_from_orders(diag))


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
        "basis_tables": [[list(row) for row in tbl] for tbl in space.basis],
        "restrictions": [],
    }
    for A in abelian_subgroups(G, maximal_only=True):
        space_A, mat = restriction_matrix(space, A, cap=cap)
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
