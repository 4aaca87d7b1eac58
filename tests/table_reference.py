"""Hand-filled references for the groups the tabulator builds.

These are the constructors as they were before ``groups._tabulate``, kept
as they were: each numbers the elements and fills the n x n table in its
own loop. The tests compare the tabulated groups against them; nothing
here is library code.
"""

from grouplab.errors import ClosureExceedsCap, ValidationError
from grouplab.groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupHom, _compose_perm, _cycle_notation


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
