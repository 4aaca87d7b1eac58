"""Word-based references for the breadth-first walks of fpgroups and wedge.

These are the routines the walks replaced: a coset table finished in two
passes (compress, then standardize), a realization that spells a defining
word for every element and traces each word from every coset, and the map
of a pair table that folds each word over the letter images at the root
pairs, then checks every edge and every pair one by one. The tests compare
the walks against them; nothing here is library code.
"""

import copy

from grouplab.errors import RelatorNotKilled
from grouplab.fpgroups import CosetTable, letter_column, realize, todd_coxeter, word_columns


def unfinished_table(monkeypatch, pres, subgroup_words=()):
    """The closed table todd_coxeter enumerates, before it is finished."""
    with monkeypatch.context() as mp:
        mp.setattr(CosetTable, "standardize", lambda self: None)
        return todd_coxeter(pres, subgroup_words)


def two_pass_finish(tbl):
    """The finished rows of a closed table: compress the live cosets, then standardize."""
    tbl = copy.deepcopy(tbl)
    live = [a for a in range(len(tbl.p)) if tbl.p[a] == a]
    remap = {old: new for new, old in enumerate(live)}
    table = [[remap[tbl.rep(v)] if v >= 0 else -1 for v in tbl.table[old]] for old in live]
    n = len(table)
    order, seen, qi = [0], {0}, 0
    while qi < len(order):
        a = order[qi]
        qi += 1
        for c in range(tbl.width):
            b = table[a][c]
            if b >= 0 and b not in seen:
                seen.add(b)
                order.append(b)
    relabel = {old: new for new, old in enumerate(order)}
    out = [[-1] * tbl.width for _ in range(n)]
    for old in range(n):
        for c in range(tbl.width):
            if table[old][c] >= 0:
                out[relabel[old]][c] = relabel[table[old][c]]
    return out


def word_realize(pres, table):
    """(multiplication table, generator images, defining words) of a finished table over the trivial subgroup."""
    rows = table.table
    n = len(rows)
    words = [None] * n
    words[0] = ()
    order, qi = [0], 0
    while qi < len(order):
        a = order[qi]
        qi += 1
        for c in range(table.width):
            b = rows[a][c]
            if b >= 0 and words[b] is None:
                ltr = c // 2 + 1
                words[b] = words[a] + ((-ltr if c % 2 else ltr),)
                order.append(b)
    assert all(w is not None for w in words), "coset action is not transitive"
    cols = [word_columns(w) for w in words]
    mul = tuple(tuple(table.trace(i, cols[j]) for j in range(n)) for i in range(n))
    gen_images = tuple(rows[0][letter_column(g + 1)] for g in range(pres.num_generators))
    return mul, gen_images, tuple(words)


def word_fold_hom(words, wr, target, table):
    """Images of the map on wr's realization sending each pair (m, n) to table[m][n].

    Each letter takes the entry at the first pair that carries it with a
    positive sign. Each defining word is folded over these images, then
    every (element, letter) edge is checked, and then every pair: the
    element its letter spells in the realization must go to its entry.
    """
    realization, flat = wr.realization, [x for row in table for x in row]
    roots = {}
    for p, ltr in enumerate(wr.presentation.pair_letters):
        if ltr > 0:
            roots.setdefault(ltr, p)
    gen_images = [flat[roots[ltr]] for ltr in range(1, len(realization.gen_images) + 1)]
    images = []
    for w in words:
        el = 0
        for ltr in w:
            x = gen_images[abs(ltr) - 1]
            if ltr < 0:
                x = target.inv[x]
            el = target.mul[el][x]
        images.append(el)
    for el, (row, img_el) in enumerate(zip(realization.group.mul, images)):
        for g, rg in enumerate(realization.gen_images):
            if images[row[rg]] != target.mul[img_el][gen_images[g]]:
                raise RelatorNotKilled(f"(element {el}, generator {g})")
    for p, ltr in enumerate(wr.presentation.pair_letters):
        if images[realization.evaluate((ltr,) if ltr else ())] != flat[p]:
            raise RelatorNotKilled(f"pair {p}")
    return tuple(images)


def walked_and_worded(monkeypatch, wp):
    """Realize a wedge presentation by the walks and by words; return the realization and its defining words.

    Asserts that both finish the enumerated table alike and realize the
    same group with the same generator images.
    """
    pres = wp.presentation
    raw = unfinished_table(monkeypatch, pres)
    table = copy.deepcopy(raw)
    table.standardize()
    assert table.table == two_pass_finish(raw)
    mul, gen_images, words = word_realize(pres, table)
    real = realize(pres, table)
    assert real.group.mul == mul and real.gen_images == gen_images
    return real, words
