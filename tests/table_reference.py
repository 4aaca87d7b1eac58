"""Loop references for the groups the tabulator builds and for what is read off a group's kept tables.

The constructors are as they were before ``groups._tabulate``: each numbers
the elements and fills the n x n table in its own loop. The table axioms,
element orders, abelian and normal tests, subgroup closure and invariant
census are as they were before the library read them off the arrays kept on
a group: each walks the product table in Python. The invariant-factor chain
is the per-prime one the library used before its gcd and lcm rule, and the
greedy generating sequence computes every closure of a step. The tests
compare the library against them; nothing here is library code.
"""

from grouplab.errors import ClosureExceedsCap, InternalCheckFailed, NotAbelian, ValidationError
from grouplab.groups import (
    DEFAULT_ORDER_CAP,
    AbelianInvariants,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _compose_perm,
    _cycle_notation,
    _factorise,
    subgroup_closure,
)


def unchecked(mul, label, element_names=None):
    """The group of a table known to be one, with inverses read off each row."""
    table = tuple(tuple(row) for row in mul)
    inv = tuple(row.index(0) if 0 in row else 0 for row in table)
    names = tuple(element_names) if element_names is not None else None
    return FiniteGroup(order=len(table), mul=table, inv=inv, label=label, element_names=names)


def loop_permutations(generators, cap=DEFAULT_ORDER_CAP, label="G"):
    gens = [tuple(g) for g in generators]
    ident = tuple(range(len(gens[0])))
    elems = [ident]
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
    return unchecked(mul, label, tuple(_cycle_notation(p) for p in elems))


def loop_direct_product(g1, g2, label=None):
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
    return unchecked(mul, label or f"{g1.label}x{g2.label}")


def loop_relabeled(G, sigma, label=None):
    n = G.order
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mul[sigma[x]][sigma[y]] = sigma[G.mul[x][y]]
    return unchecked(mul, label or f"{G.label}~")


def loop_quotient(G, N):
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
    quot = unchecked(mul, f"{G.label}/{len(N)}")
    return quot, GroupHom(G, quot, tuple(rep_index[coset_rep[x]] for x in range(n)))


def loop_as_group(S):
    members = tuple(sorted(S.members))
    pos = {x: i for i, x in enumerate(members)}
    pm = S.parent.mul
    try:
        mul = tuple(tuple(pos[pm[x][y]] for y in members) for x in members)
    except KeyError:
        raise ValidationError("subgroup members are not closed under multiplication") from None
    inv = tuple(pos[S.parent.inv[x]] for x in members)
    grp = FiniteGroup(
        order=len(members),
        mul=mul,
        inv=inv,
        label=f"{S.parent.label}-sub{len(members)}",
        element_names=tuple(S.parent.name_of(x) for x in members),
    )
    return grp, members


def loop_validate_table(mul, inv):
    """Check the full group axioms; raise ValidationError naming the violation."""
    n = len(mul)
    if n == 0:
        raise ValidationError("empty multiplication table")
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


def loop_element_order(G, x):
    n = 1
    acc = x
    while acc != 0:
        acc = G.mul[acc][x]
        n += 1
    return n


def loop_is_abelian(G):
    m = G.mul
    return all(m[x][y] == m[y][x] for x in range(G.order) for y in range(x))


def loop_subgroup_is_abelian(S):
    m = S.parent.mul
    return all(m[x][y] == m[y][x] for x in S.members for y in S.members)


def loop_is_normal(S):
    G = S.parent
    for g in range(G.order):
        for x in S.members:
            if G.conj(g, x) not in S:
                return False
    return True


def bfs_closure(G, seed):
    """The subgroup reached from 1 by right multiplication by the seed, breadth first."""
    gens = sorted(set(seed))
    have = {0}
    queue = [0]
    for x in queue:
        row = G.mul[x]
        for g in gens:
            y = row[g]
            if y not in have:
                have.add(y)
                queue.append(y)
    return Subgroup(G, tuple(sorted(have)))


def census_invariants(H):
    """Invariant factors of a finite abelian group, counting x^(p^k) = 1 for k = 1, 2, ... until the count stops growing."""
    grp = H.as_group()[0] if isinstance(H, Subgroup) else H
    if not loop_is_abelian(grp):
        raise NotAbelian(f"{grp.label} is not abelian")
    n = grp.order
    if n == 1:
        return AbelianInvariants(())
    orders = [loop_element_order(grp, x) for x in range(n)]
    prime_powers = []
    for p in _factorise(n):
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
    factors = factorised_chain(prime_powers)
    result = AbelianInvariants(factors)
    if result.group_order != n:
        raise InternalCheckFailed(f"invariant factors {factors} do not multiply to {n}")
    return result


def factorised_chain(orders):
    """The divisibility chain of a direct sum of cyclic groups, by interleaving the prime-power exponents."""
    per_prime = {}
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


def loop_minimal_generating_sequence(G):
    """The greedy generating sequence, with the closure of every candidate outside the current subgroup computed."""
    gens = []
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
