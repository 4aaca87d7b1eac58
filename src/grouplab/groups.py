"""Finite groups as dense multiplication tables, with structural subroutines.

Conventions, fixed globally:
  * elements are dense integers 0..order-1 and index 0 is the identity;
  * permutations compose right-to-left (the rightmost factor acts first);
  * the commutator is [x, y] = x y x^-1 y^-1 and conjugation is
    x ^ y = x y x^-1.

Every homomorphism and subgroup closure comes from the one walk ``_extend_hom``
and every group built from elements and a product rule from ``_tabulate``;
element orders, commutation and conjugation are read off arrays kept on the
group. ``from_mul_table`` is for tables from outside and checks every axiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import (
    ClosureExceedsCap,
    EmptyGeneratorList,
    InternalCheckFailed,
    NotAbelian,
    NotNormal,
    RelatorNotKilled,
    ValidationError,
)

DEFAULT_ORDER_CAP = 512

_T = TypeVar("_T")


def _cached(obj: object, key: str, build: Callable[[], _T]) -> _T:
    """The value kept under ``key`` on obj, built by ``build()`` at first use.

    Groups and subgroups are frozen dataclasses, so what is derived from them
    is kept in ``vars(obj)``, outside the fields that equality and hashing
    read, and lives exactly as long as the object. Every later caller shares
    the value, so a NumPy array, or each array of a kept tuple, is made
    read-only before it is kept.
    """
    store = vars(obj)
    if key not in store:
        value = build()
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        store[key] = value
    return store[key]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``mul[x][y]`` is the product xy; ``inv[x]`` the inverse of x. The
    identity is always element 0.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    label: str = "G"
    element_names: tuple[str, ...] | None = None

    def conj(self, x: int, y: int) -> int:
        """x ^ y = x y x^-1."""
        m = self.mul
        return m[m[x][y]][self.inv[x]]

    def comm(self, x: int, y: int) -> int:
        """[x, y] = x y x^-1 y^-1."""
        m = self.mul
        return m[m[m[x][y]][self.inv[x]]][self.inv[y]]

    def element_order(self, x: int) -> int:
        _check_integers((x,), "element", 0, self.order)
        return int(_element_orders(self)[x])

    def order_multiset(self) -> tuple[int, ...]:
        return _cached(self, "_order_multiset", lambda: tuple(np.sort(_element_orders(self)).tolist()))

    def is_abelian(self) -> bool:
        return not commutator_table(self).any()

    def name_of(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its member indices inside a parent group."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(self.members))

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def __len__(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        members = list(self.as_group()[1])  # as_group validates them; NumPy would wrap a member of -1
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[members] = True
        return bool(inside[table_arrays(self.parent)[2][:, members]].all())

    def is_abelian(self) -> bool:
        return self.as_group()[0].is_abelian()

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Return the subgroup as a standalone group plus its member list.

        Members are sorted ascending, so the identity (element 0 of the
        parent) lands at index 0 and the global convention is preserved.
        The result is kept on this Subgroup, so repeated calls return the
        same group object and share its cocycle spaces. Raises
        ValidationError when the members are not integers in range, miss the
        identity, repeat a member or are not closed under multiplication.
        """
        return _cached(self, "_standalone", self._standalone_group)

    def _standalone_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        _check_integers(self.members, "subgroup member", 0, self.parent.order)
        if 0 not in self._member_set:
            raise ValidationError("subgroup members must contain the identity 0")
        members = tuple(sorted(self.members))
        for x, y in zip(members, members[1:]):
            if x == y:
                raise ValidationError(f"subgroup member {x} is repeated")
        G, pm = self.parent, self.parent.mul
        names = [G.name_of(x) for x in members]
        try:
            grp = _tabulate(members, lambda x, y: pm[x][y], f"{G.label}-sub{len(members)}", names)
        except KeyError:  # a product outside the members
            raise ValidationError("subgroup members are not closed under multiplication") from None
        return grp, members


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism recorded as the full element-to-element image table."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_homomorphism(self) -> bool:
        """Whether images lists one target element per source element and respects products.

        It does exactly when the walk from the images of the source's kept
        generating sequence, which checks every edge, reproduces images.
        """
        img, gens = self.images, minimal_generating_sequence(self.source)
        try:
            _check_integers(img, "image", 0, self.target.order)
            return len(img) == self.source.order and _extend_hom(self.source, self.target, gens, [img[g] for g in gens]) == list(img)
        except (ValidationError, RelatorNotKilled):
            return False

    def is_bijective(self) -> bool:
        """Whether images lists each target element exactly once, one per source element."""
        n = self.target.order
        return self.source.order == n and sorted(self.images) == list(range(n))

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, tuple(x for x in range(self.source.order) if self.images[x] == 0))

    def inverse(self) -> "GroupHom":
        if not self.is_bijective():
            raise ValidationError("cannot invert a non-bijective homomorphism")
        back = [0] * self.target.order
        for x, y in enumerate(self.images):
            back[y] = x
        return GroupHom(self.target, self.source, tuple(back))

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner, applied right-to-left."""
        return GroupHom(inner.source, self.target, tuple(self.images[y] for y in inner.images))


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant-factor form d1 | d2 | ... of a finite abelian group.

    The empty sequence denotes the trivial group.
    """

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValidationError(f"invariant factors {self.factors} not a divisibility chain")
        if any(d <= 1 for d in self.factors):
            raise ValidationError("invariant factors must all exceed 1")

    @property
    def group_order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    def __iter__(self):
        return iter(self.factors)


# --- constructors ------------------------------------------------------------


def validate_table(mul: Sequence[Sequence[int]], inv: Sequence[int]) -> None:
    """Check the full group axioms; raise ValidationError naming the first violation.

    Past the row checks the table is an index array; associativity compares
    (xy)z with x(yz) for all y and z one x at a time.
    """
    n = len(mul)
    if n == 0:
        raise ValidationError("empty multiplication table")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        if sorted(row) != list(range(n)):
            raise ValidationError(f"row {i} is not a permutation (Latin square violated)")
    M, ids = np.array(mul, dtype=np.intp), np.arange(n)
    bad = np.flatnonzero((np.sort(M, axis=0) != ids[:, None]).any(axis=0))
    if bad.size:
        raise ValidationError(f"column {bad[0]} is not a permutation (Latin square violated)")
    if (M[0] != ids).any() or (M[:, 0] != ids).any():
        raise ValidationError("element 0 is not a two-sided identity")
    if len(inv) != n:
        raise ValidationError("inverse table length mismatch")
    _check_integers(inv, "inverse entry", 0, n)
    inv_arr = np.array(inv, dtype=np.intp)
    bad = np.flatnonzero((M[ids, inv_arr] != 0) | (M[inv_arr, ids] != 0))
    if bad.size:
        raise ValidationError(f"inv[{bad[0]}] is not a two-sided inverse")
    for x in range(n):
        differ = M[M[x]] != M[x][M]
        if differ.any():
            y, z = divmod(int(differ.argmax()), n)
            raise ValidationError(f"associativity fails at ({x}, {y}, {z})")


def _int_entries(row: Sequence[int], what: str) -> tuple[int, ...]:
    try:
        _check_integers(row, "entry", lo=None)
    except (TypeError, ValidationError):  # TypeError: row is not a sequence
        raise ValidationError(f"{what} has a non-integer entry: {row!r}") from None
    return tuple(map(int, row))


def from_mul_table(
    mul: Sequence[Sequence[int]],
    label: str = "G",
    element_names: Sequence[str] | None = None,
) -> FiniteGroup:
    """The group of a multiplication table from outside the library, after checking every axiom.

    Raises ValidationError naming the first violation.
    """
    n = len(mul)
    table = tuple(_int_entries(row, "table row") for row in mul)
    inv = [row.index(0) if 0 in row else 0 for row in table]
    validate_table(table, inv)
    names = tuple(element_names) if element_names is not None else None
    if names is not None and len(names) != n:
        raise ValidationError("element_names length mismatch")
    return FiniteGroup(order=n, mul=table, inv=tuple(inv), label=label, element_names=names)


def _tabulate(
    elems: Sequence[_T], mul: Callable[[_T, _T], _T], label: str, element_names: Sequence[str] | None = None
) -> FiniteGroup:
    """The group on elems under the product rule mul, each element numbered by its position.

    elems[0] is the identity. The library calls it only on elements and a
    rule that already form a group, so nothing is checked; a product outside
    elems raises KeyError.
    """
    idx = {e: k for k, e in enumerate(elems)}
    table = tuple(tuple(idx[mul(a, b)] for b in elems) for a in elems)
    names = tuple(element_names) if element_names is not None else None
    return FiniteGroup(len(elems), table, tuple(row.index(0) for row in table), label, names)


def _compose_perm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # right-to-left: (a o b)(i) = a(b(i))
    return tuple(a[b[i]] for i in range(len(a)))


def build_from_permutations(
    generators: Sequence[Sequence[int]],
    cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
    label: str = "G",
) -> FiniteGroup:
    """Close a set of permutations under composition into a group table.

    Permutations are 0-based image arrays on a common point set. Element 0
    of the result is the identity; the closure is breadth-first in
    generator order, which fixes the element numbering deterministically.
    """
    gens = [_int_entries(g, "permutation") for g in generators]
    _check_integers((cap,), "cap")
    _check_integers(() if degree is None else (degree,), "degree")
    if not gens and degree is None:
        raise EmptyGeneratorList("no generators given and no point count to act on")
    deg = degree if degree is not None else len(gens[0])
    for g in gens:
        if len(g) != deg or sorted(g) != list(range(deg)):
            raise ValidationError(f"not a permutation of {deg} points: {g}")
    ident = tuple(range(deg))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    for cur in elems:
        for g in gens:
            new = _compose_perm(cur, g)
            if new not in index:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                index[new] = len(elems)
                elems.append(new)
    return _tabulate(elems, _compose_perm, label, [_cycle_notation(p) for p in elems])


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


def direct_product(g1: FiniteGroup, g2: FiniteGroup, label: str | None = None) -> FiniteGroup:
    """G1 x G2, with (a, b) numbered a |G2| + b."""
    m1, m2 = g1.mul, g2.mul
    elems = [(a, b) for a in range(g1.order) for b in range(g2.order)]
    return _tabulate(elems, lambda x, y: (m1[x[0]][y[0]], m2[x[1]][y[1]]), label or f"{g1.label}x{g2.label}")


def relabeled(G: FiniteGroup, sigma: Sequence[int], label: str | None = None) -> FiniteGroup:
    """Rename elements by the permutation sigma; sigma must keep 0 at 0."""
    n = G.order
    _check_integers(sigma, "relabeling entry", 0, n)
    if sorted(sigma) != list(range(n)):
        raise ValidationError("relabeling is not a permutation")
    if sigma[0] != 0:
        raise ValidationError("relabeling must fix the identity label 0")
    old = sorted(range(n), key=lambda x: sigma[x])  # the old elements in new-label order
    m = G.mul
    return _tabulate(old, lambda x, y: m[x][y], label or f"{G.label}~")


# --- structural subroutines ---------------------------------------------------


def _check_integers(xs: Iterable[int], what: str, lo: int | None = 0, hi: int | None = None) -> None:
    """Raise ValidationError unless every x is an int or a NumPy integer, never a bool, with lo <= x < hi; None is no bound.

    Every integer the library is given, an index, letter, count, modulus or cap, is read by this one rule.
    """
    for x in xs:
        # type(x) is int turns bool away and costs a fifth of isinstance(x, (int, np.integer))
        if not (type(x) is int or isinstance(x, np.integer)) or (lo is not None and x < lo) or (hi is not None and x >= hi):
            bound = "" if lo is None else f" or lies below {lo}" if hi is None else f" or lies outside [{lo}, {hi})"
            raise ValidationError(f"{what} {x!r} is not an integer{bound}")


def subgroup_closure(G: FiniteGroup, seed: Sequence[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements.

    In a finite group the products of seed elements already form it (an
    inverse is a positive power): what the ``_extend_hom`` walk reaches.
    """
    _check_integers(seed, "seed element", 0, G.order)
    return Subgroup(G, tuple(x for x, y in enumerate(_extend_hom(G, G, seed, seed)) if y >= 0))


def center(G: FiniteGroup) -> Subgroup:
    """The center Z(G), computed once and kept on G."""

    def build() -> Subgroup:
        _, central = _commuting_block(G, range(G.order))
        return Subgroup(G, tuple(np.flatnonzero(central).tolist()))

    return _cached(G, "_center", build)


def table_arrays(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int32 arrays mul[x, y] = xy, inv[x] = x^-1 and conj[x, y] = x ^ y of G, kept on G."""

    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mul = np.array(G.mul, dtype=np.int32)
        inv = np.array(G.inv, dtype=np.int32)
        return mul, inv, mul[mul, inv[:, None]]

    return _cached(G, "_table_arrays", build)


def _element_orders(G: FiniteGroup) -> np.ndarray:
    """Read-only int64 array of the order of every element of G, kept on G; an element stops counting at 1."""

    def build() -> np.ndarray:
        mul, orders = table_arrays(G)[0], np.ones(G.order, dtype=np.int64)
        todo = power = np.arange(1, G.order)
        while todo.size:
            orders[todo] += 1
            power = mul[power, todo]
            todo, power = todo[power != 0], power[power != 0]
        return orders

    return _cached(G, "_element_orders", build)


def commutator_table(G: FiniteGroup) -> np.ndarray:
    """Read-only int32 array whose (x, y) entry is [x, y], kept on G."""

    def build() -> np.ndarray:
        mul, inv, conj = table_arrays(G)
        return mul[conj, inv[None, :]]

    return _cached(G, "_commutator_table", build)


def _commuting_block(G: FiniteGroup, H: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Whether x and y commute, for x and y in H, and the mask of the x that commute with all of H."""
    idx = np.asarray(H)
    block = commutator_table(G)[idx[:, None], idx] == 0
    return block, block.all(axis=1)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """The derived subgroup G', computed once and kept on G."""
    return _cached(
        G, "_derived_subgroup", lambda: subgroup_closure(G, np.flatnonzero(np.bincount(commutator_table(G).ravel())).tolist())
    )


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the projection map.

    Cosets are labelled by their minimal member, sorted ascending, so the
    identity coset is index 0.
    """
    if N.parent is not G and N.parent.mul != G.mul:
        raise ValidationError("subgroup does not belong to this group")
    if not N.is_normal():
        raise NotNormal(f"{len(N)}-element subgroup is not normal in {G.label}")
    n = G.order
    m = G.mul
    coset_rep = [-1] * n
    reps = []  # x runs upward, so each coset is first met at its minimum
    for x in range(n):
        if coset_rep[x] < 0:
            for h in N.members:
                coset_rep[m[x][h]] = x
            reps.append(x)
    quot = _tabulate(reps, lambda r, s: coset_rep[m[r][s]], f"{G.label}/{len(N)}")
    rep_index = {r: i for i, r in enumerate(reps)}
    proj = GroupHom(G, quot, tuple(rep_index[coset_rep[x]] for x in range(n)))
    return quot, proj


def abelian_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """The maximal abelian subgroups of G, sorted by (size, members).

    A descent through centralizers. In a nonabelian H every maximal abelian
    subgroup contains some x outside Z(H) and is maximal abelian in C_H(x);
    conversely a maximal abelian subgroup of C_H(x) contains x, so it is
    maximal abelian in H. Stepping from G into C_H(x) for every noncentral
    x, each H visited once, therefore ends exactly at the maximal abelian
    subgroups of G. Each C_H(x) is a row of H's block of the commuting matrix.
    """
    whole = tuple(range(G.order))
    seen, todo, maximal = {whole}, [whole], []
    while todo:
        H = todo.pop()
        block, central = _commuting_block(G, H)
        if central.all():
            maximal.append(H)
        for row in block[~central]:
            C = tuple(np.compress(row, H).tolist())
            if C not in seen:
                seen.add(C)
                todo.append(C)
    return [Subgroup(G, H) for H in sorted(maximal, key=lambda t: (len(t), t))]


def _factorise(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of n >= 1, primes ascending."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_orders(orders: Sequence[int]) -> tuple[int, ...]:
    """Canonical divisibility chain of a direct sum of cyclic groups; orders below 2 are dropped.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b). Applied to each entry against
    every later one, it leaves each entry dividing all later ones; the 1s
    lead and are dropped.
    """
    d = [v for v in orders if v > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(v for v in d if v > 1)


def abelian_invariants(H: Subgroup | FiniteGroup) -> AbelianInvariants:
    """Invariant factors of a finite abelian group, by element-order census.

    For each prime p with p^e exactly dividing |H|, the counts of solutions of
    x^(p^k) = 1 for k = 0..e, read off the kept element orders, determine the
    p-primary type; invariant_factors_from_orders merges the primes into one chain.
    """
    if isinstance(H, Subgroup):
        grp, _ = H.as_group()
    else:
        grp = H
    if not grp.is_abelian():
        raise NotAbelian(f"{grp.label} is not abelian")
    n = grp.order
    orders = _element_orders(grp)
    prime_powers: list[int] = []
    for p, e in _factorise(n).items():
        # s_k = log_p #{x : x^(p^k) = 1}; r_k = s_k - s_(k-1) counts cyclic
        # factors of exponent >= k, so the type is the conjugate partition.
        counts = np.array([np.count_nonzero(p**k % orders == 0) for k in range(e + 1)])
        s = np.rint(np.log(counts) / np.log(p)).astype(np.int64)
        if (p**s != counts).any():
            raise InternalCheckFailed("census count is not a prime power")
        r = np.append(np.diff(s), 0)
        for k in range(1, e + 1):
            prime_powers.extend([p**k] * int(r[k - 1] - r[k]))
    factors = invariant_factors_from_orders(prime_powers)
    result = AbelianInvariants(factors)
    if result.group_order != n:
        raise InternalCheckFailed(f"invariant factors {factors} do not multiply to {n}")
    return result


# --- isomorphism search -------------------------------------------------------


def minimal_generating_sequence(G: FiniteGroup) -> list[int]:
    """Greedy short generating sequence: repeatedly add the element whose
    adjunction grows the generated subgroup the most (smallest index wins ties).

    The sequence is computed once and kept on G; each call returns a new list.
    """

    def build() -> tuple[int, ...]:
        gens: list[int] = []
        current = {0}
        while len(current) < G.order:
            best_x, best_size, best_members = -1, -1, None
            covered = set(current)  # an x in an earlier <gens, y> cannot beat that y
            for x in range(1, G.order):
                if x in covered:
                    continue
                ext = subgroup_closure(G, gens + [x])
                covered.update(ext.members)
                if len(ext) > best_size:
                    best_x, best_size, best_members = x, len(ext), set(ext.members)
            gens.append(best_x)
            current = best_members
        return tuple(gens)

    return list(_cached(G, "_minimal_generating_sequence", build))


def _extend_hom(
    source: FiniteGroup, target: FiniteGroup, gens: Sequence[int], images: Sequence[int]
) -> list[int]:
    """Extend the images of gens to the subgroup they generate, checking every edge.

    One walk from 1 follows each (element, generator) edge once: an edge to
    a new element sets its image, and every other edge is checked against
    the image already set, which certifies a homomorphism on the subgroup.
    Returns the image of every source element, -1 outside the subgroup.
    Raises RelatorNotKilled naming the first edge that disagrees.
    """
    out, order = [0] + [-1] * (source.order - 1), [0]
    for el in order:
        row, img_row = source.mul[el], target.mul[out[el]]
        for g, x in enumerate(gens):
            b, fb = row[x], img_row[images[g]]
            if out[b] != fb:
                if out[b] >= 0:
                    raise RelatorNotKilled(
                        f"generator images do not extend to a homomorphism (element {el}, generator {g})"
                    )
                out[b] = fb
                order.append(b)
    return out


def isomorphisms_iter(G1: FiniteGroup, G2: FiniteGroup) -> Iterator[GroupHom]:
    """Yield isomorphisms G1 -> G2 in deterministic search order.

    Backtracks over images of a greedy generating sequence, of matching
    element orders. A node runs the walk of ``_extend_hom`` on the images
    chosen so far and is pruned unless every edge checks and the images of
    the subgroup reached are distinct; at a leaf that subgroup is G1.
    """
    if G1.order != G2.order or G1.order_multiset() != G2.order_multiset():
        return
    gens = minimal_generating_sequence(G1)
    orders1, orders2 = _element_orders(G1), _element_orders(G2)
    candidates = [np.flatnonzero(orders2 == orders1[g]).tolist() for g in gens]

    def rec(chosen: list[int]) -> Iterator[GroupHom]:
        try:
            images = _extend_hom(G1, G2, gens[: len(chosen)], chosen)
        except RelatorNotKilled:
            return
        reached = [v for v in images if v >= 0]
        if len(set(reached)) != len(reached):
            return
        if len(chosen) == len(gens):
            yield GroupHom(G1, G2, tuple(images))
            return
        for y in candidates[len(chosen)]:
            yield from rec(chosen + [y])

    yield from rec([])


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> GroupHom | None:
    """First isomorphism in search order, or None."""
    for hom in isomorphisms_iter(G1, G2):
        return hom
    return None
