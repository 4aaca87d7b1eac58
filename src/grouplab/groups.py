"""Finite groups as dense multiplication tables, with structural subroutines.

Conventions, fixed globally:
  * elements are dense integers 0..order-1 and index 0 is the identity;
  * permutations compose right-to-left (the rightmost factor acts first);
  * the commutator is [x, y] = x y x^-1 y^-1 and conjugation is
    x ^ y = x y x^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    ClosureExceedsCap,
    EmptyGeneratorList,
    InternalCheckFailed,
    NotAbelian,
    NotNormal,
    ValidationError,
)

DEFAULT_ORDER_CAP = 512


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
    identity: int = 0

    def op(self, x: int, y: int) -> int:
        return self.mul[x][y]

    def inverse(self, x: int) -> int:
        return self.inv[x]

    def conj(self, x: int, y: int) -> int:
        """x ^ y = x y x^-1."""
        m = self.mul
        return m[m[x][y]][self.inv[x]]

    def comm(self, x: int, y: int) -> int:
        """[x, y] = x y x^-1 y^-1."""
        m = self.mul
        return m[m[m[x][y]][self.inv[x]]][self.inv[y]]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[x], -k)
        acc = 0
        for _ in range(k):
            acc = self.mul[acc][x]
        return acc

    def element_order(self, x: int) -> int:
        n = 1
        acc = x
        while acc != 0:
            acc = self.mul[acc][x]
            n += 1
        return n

    def order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(x) for x in range(self.order)))

    def is_abelian(self) -> bool:
        m = self.mul
        return all(m[x][y] == m[y][x] for x in range(self.order) for y in range(x))

    def elements(self) -> range:
        return range(self.order)

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
        G = self.parent
        for g in range(G.order):
            for x in self.members:
                if G.conj(g, x) not in self._member_set:
                    return False
        return True

    def is_abelian(self) -> bool:
        m = self.parent.mul
        return all(m[x][y] == m[y][x] for x in self.members for y in self.members)

    def as_group(self, label: str | None = None) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Return the subgroup as a standalone group plus its member list.

        Members are sorted ascending, so the identity (element 0 of the
        parent) lands at index 0 and the global convention is preserved.
        """
        members = tuple(sorted(self.members))
        pos = {x: i for i, x in enumerate(members)}
        pm = self.parent.mul
        mul = tuple(tuple(pos[pm[x][y]] for y in members) for x in members)
        inv = tuple(pos[self.parent.inv[x]] for x in members)
        grp = FiniteGroup(
            order=len(members),
            mul=mul,
            inv=inv,
            label=label or f"{self.parent.label}-sub{len(members)}",
            element_names=tuple(self.parent.name_of(x) for x in members),
        )
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
        src, tgt, img = self.source, self.target, self.images
        if img[0] != 0:
            return False
        for x in range(src.order):
            for y in range(src.order):
                if img[src.mul[x][y]] != tgt.mul[img[x]][img[y]]:
                    return False
        return True

    def is_bijective(self) -> bool:
        return (
            self.source.order == self.target.order
            and len(set(self.images)) == self.source.order
        )

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, tuple(x for x in range(self.source.order) if self.images[x] == 0))

    def image(self) -> Subgroup:
        return Subgroup(self.target, tuple(sorted(set(self.images))))

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


def validate_table(mul: Sequence[Sequence[int]], inv: Sequence[int], identity: int = 0) -> None:
    """Check the full group axioms; raise ValidationError naming the violation."""
    n = len(mul)
    if n == 0:
        raise ValidationError("empty multiplication table")
    if identity != 0:
        raise ValidationError("identity must be element 0")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        if sorted(row) != list(range(n)):
            raise ValidationError(f"row {i} is not a permutation (Latin square violated)")
    for j in range(n):
        col = [mul[i][j] for i in range(n)]
        if sorted(col) != list(range(n)):
            raise ValidationError(f"column {j} is not a permutation (Latin square violated)")
    for x in range(n):
        if mul[0][x] != x or mul[x][0] != x:
            raise ValidationError("element 0 is not a two-sided identity")
    if len(inv) != n:
        raise ValidationError("inverse table length mismatch")
    for x in range(n):
        if mul[x][inv[x]] != 0 or mul[inv[x]][x] != 0:
            raise ValidationError(f"inv[{x}] is not a two-sided inverse")
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            for z in range(n):
                if mul[xy][z] != mul[x][mul[y][z]]:
                    raise ValidationError(f"associativity fails at ({x}, {y}, {z})")


def from_mul_table(
    mul: Sequence[Sequence[int]],
    label: str = "G",
    element_names: Sequence[str] | None = None,
    validate: bool = True,
) -> FiniteGroup:
    n = len(mul)
    table = tuple(tuple(int(v) for v in row) for row in mul)
    inv = [0] * n
    for x in range(n):
        for y in range(n):
            if table[x][y] == 0:
                inv[x] = y
                break
    if validate:
        validate_table(table, inv)
    names = tuple(element_names) if element_names is not None else None
    if names is not None and len(names) != n:
        raise ValidationError("element_names length mismatch")
    return FiniteGroup(order=n, mul=table, inv=tuple(inv), label=label, element_names=names)


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
    gens = [tuple(int(v) for v in g) for g in generators]
    if not gens and degree is None:
        raise EmptyGeneratorList("no generators given and no point count to act on")
    deg = degree if degree is not None else len(gens[0])
    for g in gens:
        if len(g) != deg or sorted(g) != list(range(deg)):
            raise ValidationError(f"not a permutation of {deg} points: {g}")
    ident = tuple(range(deg))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            new = _compose_perm(cur, g)
            if new not in index:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                index[new] = len(elems)
                elems.append(new)
                queue.append(new)
    n = len(elems)
    mul = [[0] * n for _ in range(n)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i][j] = index[_compose_perm(a, b)]
    names = tuple(_cycle_notation(p) for p in elems)
    return from_mul_table(mul, label=label, element_names=names, validate=False)


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
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    mul = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for b1 in range(n2):
            i = a1 * n2 + b1
            for a2 in range(n1):
                row1 = g1.mul[a1]
                for b2 in range(n2):
                    mul[i][a2 * n2 + b2] = row1[a2] * n2 + g2.mul[b1][b2]
    return from_mul_table(mul, label=label or f"{g1.label}x{g2.label}", validate=False)


def relabeled(G: FiniteGroup, sigma: Sequence[int], label: str | None = None) -> FiniteGroup:
    """Rename elements by the permutation sigma; sigma must keep 0 at 0."""
    n = G.order
    if sorted(sigma) != list(range(n)):
        raise ValidationError("relabeling is not a permutation")
    if sigma[0] != 0:
        raise ValidationError("relabeling must fix the identity label 0")
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mul[sigma[x]][sigma[y]] = sigma[G.mul[x][y]]
    return from_mul_table(mul, label=label or f"{G.label}~", validate=False)


# --- element helpers ----------------------------------------------------------


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    return G.comm(x, y)


def conjugate(G: FiniteGroup, x: int, y: int) -> int:
    return G.conj(x, y)


# --- structural subroutines ---------------------------------------------------


def subgroup_closure(G: FiniteGroup, seed: Sequence[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements."""
    have = {0}
    queue = [0]
    gens = sorted(set(seed))
    for g in gens:
        if g not in have:
            have.add(g)
            queue.append(g)
    while queue:
        x = queue.pop(0)
        for g in gens:
            for y in (G.mul[x][g], G.mul[g][x]):
                if y not in have:
                    have.add(y)
                    queue.append(y)
        xi = G.inv[x]
        if xi not in have:
            have.add(xi)
            queue.append(xi)
    return Subgroup(G, tuple(sorted(have)))


def center(G: FiniteGroup) -> Subgroup:
    m = G.mul
    n = G.order
    members = tuple(z for z in range(n) if all(m[z][g] == m[g][z] for g in range(n)))
    return Subgroup(G, members)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    comms = {G.comm(x, y) for x in range(G.order) for y in range(G.order)}
    return subgroup_closure(G, sorted(comms))


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
    coset_rep = [-1] * n
    reps = []
    for x in range(n):
        if coset_rep[x] >= 0:
            continue
        members = sorted(G.mul[x][h] for h in N.members)
        rep = members[0]
        for y in members:
            coset_rep[y] = rep
        reps.append(rep)
    reps.sort()
    rep_index = {r: i for i, r in enumerate(reps)}
    q = len(reps)
    mul = [[0] * q for _ in range(q)]
    for i, r in enumerate(reps):
        for j, s in enumerate(reps):
            mul[i][j] = rep_index[coset_rep[G.mul[r][s]]]
    quot = from_mul_table(mul, label=f"{G.label}/{len(N)}", validate=False)
    proj = GroupHom(G, quot, tuple(rep_index[coset_rep[x]] for x in range(n)))
    return quot, proj


def abelian_subgroups(G: FiniteGroup, maximal_only: bool = False) -> list[Subgroup]:
    """All abelian subgroups, or only the maximal ones under inclusion.

    Breadth-first closure over commuting extensions; order is deterministic
    by (size, sorted members).
    """
    n = G.order
    found: dict[frozenset[int], tuple[int, ...]] = {}
    trivial = (0,)
    found[frozenset(trivial)] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for members in frontier:
            mset = set(members)
            for x in range(1, n):
                if x in mset:
                    continue
                if any(G.mul[x][h] != G.mul[h][x] for h in members):
                    continue
                # members is a subgroup and x centralises it, so the closure
                # stays abelian.
                ext = subgroup_closure(G, members + (x,))
                key = frozenset(ext.members)
                if key not in found:
                    found[key] = ext.members
                    nxt.append(ext.members)
        frontier = nxt
    all_subs = sorted(found.values(), key=lambda t: (len(t), t))
    if not maximal_only:
        return [Subgroup(G, t) for t in all_subs]
    sets = [frozenset(t) for t in all_subs]
    keep = []
    for i, s in enumerate(sets):
        if not any(i != j and s < sets[j] for j in range(len(sets))):
            keep.append(all_subs[i])
    return [Subgroup(G, t) for t in keep]


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
    """Canonical divisibility chain of a direct sum of cyclic groups."""
    per_prime: dict[int, list[int]] = {}
    for v in orders:
        if v <= 1:
            continue
        for p, e in _factorise(v).items():
            per_prime.setdefault(p, []).append(e)
    if not per_prime:
        return ()
    for exps in per_prime.values():
        exps.sort(reverse=True)
    width = max(len(v) for v in per_prime.values())
    desc = []
    for i in range(width):
        d = 1
        for p, exps in per_prime.items():
            if i < len(exps):
                d *= p ** exps[i]
        desc.append(d)
    return tuple(reversed(desc))


def abelian_invariants(H: Subgroup | FiniteGroup, assert_abelian: bool = True) -> AbelianInvariants:
    """Invariant factors of a finite abelian group, by element-order census.

    For each prime p, counting solutions of x^(p^k) = 1 determines the
    p-primary type; invariant_factors_from_orders interleaves the primes.
    """
    if isinstance(H, Subgroup):
        grp, _ = H.as_group()
    else:
        grp = H
    if assert_abelian and not grp.is_abelian():
        raise NotAbelian(f"{grp.label} is not abelian")
    n = grp.order
    if n == 1:
        return AbelianInvariants(())
    orders = [grp.element_order(x) for x in range(n)]
    prime_powers: list[int] = []
    for p in _factorise(n):
        # s_k = log_p #{x : x^(p^k) = 1}; r_k = s_k - s_(k-1) counts cyclic
        # factors of exponent >= k, so the type is the conjugate partition.
        s = [0]
        k = 1
        while True:
            count = sum(1 for o in orders if pow(p, k) % o == 0)
            sk = 0
            c = count
            while c > 1:
                c //= p
                sk += 1
            if p**sk != count:
                raise InternalCheckFailed("census count is not a prime power")
            if sk == s[-1]:
                break
            s.append(sk)
            k += 1
        r = [s[i] - s[i - 1] for i in range(1, len(s))]
        for k0 in range(1, len(r) + 1):
            mult = r[k0 - 1] - (r[k0] if k0 < len(r) else 0)
            prime_powers.extend([p**k0] * mult)
    factors = invariant_factors_from_orders(prime_powers)
    result = AbelianInvariants(factors)
    if result.group_order != n:
        raise InternalCheckFailed(f"invariant factors {factors} do not multiply to {n}")
    return result


# --- isomorphism search -------------------------------------------------------


def minimal_generating_sequence(G: FiniteGroup) -> list[int]:
    """Greedy short generating sequence: repeatedly add the element whose
    adjunction grows the generated subgroup the most (smallest index wins ties)."""
    gens: list[int] = []
    current = {0}
    while len(current) < G.order:
        best_x, best_size, best_members = -1, -1, None
        for x in range(1, G.order):
            if x in current:
                continue
            ext = subgroup_closure(G, gens + [x])
            if len(ext) > best_size:
                best_x, best_size, best_members = x, len(ext), set(ext.members)
        gens.append(best_x)
        current = best_members
    return gens


def _extend_partial(
    G1: FiniteGroup,
    G2: FiniteGroup,
    known: dict[int, int],
    gens: list[int],
) -> dict[int, int] | None:
    """Close a partial map under right multiplication by the mapped generators.

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


def isomorphisms_iter(G1: FiniteGroup, G2: FiniteGroup) -> Iterator[GroupHom]:
    """Yield isomorphisms G1 -> G2 in deterministic search order.

    Backtracks over images of a greedy generating sequence, pruning by
    element order and partial-map consistency.
    """
    if G1.order != G2.order:
        return
    if G1.order_multiset() != G2.order_multiset():
        return
    if G1.order == 1:
        yield GroupHom(G1, G2, (0,))
        return
    gens = minimal_generating_sequence(G1)
    orders1 = [G1.element_order(g) for g in gens]
    candidates = [
        [y for y in range(G2.order) if G2.element_order(y) == o] for o in orders1
    ]

    def rec(i: int, known: dict[int, int]) -> Iterator[GroupHom]:
        if i == len(gens):
            if len(known) == G1.order:
                images = tuple(known[x] for x in range(G1.order))
                hom = GroupHom(G1, G2, images)
                if hom.is_homomorphism() and hom.is_bijective():
                    yield hom
            return
        for y in candidates[i]:
            trial = dict(known)
            trial[gens[i]] = y
            ext = _extend_partial(G1, G2, trial, gens[: i + 1])
            if ext is None:
                continue
            yield from rec(i + 1, ext)

    yield from rec(0, {0: 0})


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> GroupHom | None:
    """First isomorphism in search order, or None."""
    for hom in isomorphisms_iter(G1, G2):
        return hom
    return None
