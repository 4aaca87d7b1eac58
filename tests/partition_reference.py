"""The union-find partition into isoclinism families, as the library computed it before it compared each group with one member per family.

Every pair i < j with equal signatures and different roots is tested with
``isoclinism.are_isoclinic``, looked up at call time so a test can count the
calls; a witness merges the two roots into the smaller. The tests compare
the library against it; nothing here is library code.
"""

from grouplab import isoclinism


def union_find_partition(catalog):
    n = len(catalog)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sigs = [isoclinism._signature(G) for G in catalog]
    for i in range(n):
        for j in range(i + 1, n):
            if sigs[i] != sigs[j]:
                continue
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if isoclinism.are_isoclinic(catalog[i], catalog[j]) is not None:
                parent[max(ri, rj)] = min(ri, rj)
    families = {}
    for i in range(n):
        families.setdefault(find(i), []).append(i)
    return [sorted(members) for _, members in sorted(families.items())]
