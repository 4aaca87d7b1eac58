"""Loop references for the abelian subgroups and the center of a group.

These are the routines as they were before ``groups.abelian_subgroups``
descended through centralizers and ``groups.center`` read the commutator
table, kept as they were: a breadth-first closure over commuting extensions
that finds every abelian subgroup, and a loop over all pairs. The tests
compare the library against them; nothing here is library code.
"""

from grouplab.groups import subgroup_closure


def all_abelian_subgroups(G):
    """Every abelian subgroup of G as a sorted member tuple, sorted by (size, members)."""
    n = G.order
    found = {frozenset((0,)): (0,)}
    frontier = [(0,)]
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
    return sorted(found.values(), key=lambda t: (len(t), t))


def maximal_abelian_subgroups(G):
    """The members of the abelian subgroups of G that no other one contains, in the order above."""
    subs = all_abelian_subgroups(G)
    sets = [frozenset(t) for t in subs]
    return [t for t, s in zip(subs, sets) if not any(s < other for other in sets)]


def loop_center(G):
    """The members of Z(G), ascending, by comparing xg with gx for every pair."""
    m, n = G.mul, G.order
    return tuple(z for z in range(n) if all(m[z][g] == m[g][z] for g in range(n)))
