"""Word-based references for the breadth-first walks of fpgroups and wedge.

These are the routines the walks replaced, kept as they were: a coset table
finished in two passes (compress, then standardize), a realization that
spells a defining word for every element and traces each word from every
coset, the lift of those words to pair letters, and the extension of
generator images that folds each word and then checks every edge. The
tests compare the walks against them; nothing here is library code.
"""

import copy

import numpy as np

from grouplab import wedge
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


def pair_words(wp, words):
    """Defining words spelled with one representative pair letter per reduced letter."""
    letters = np.array(wp.pair_letters, dtype=np.int64)
    values, first = np.unique(letters, return_index=True)
    rep = dict(zip(values.tolist(), (first + 1).tolist()))
    return tuple(tuple(rep[x] if x > 0 else -rep[-x] for x in w) for w in words)


def word_fold_hom(words, realization, target, gen_images):
    """Images of a homomorphism: each defining word folded, then every (element, generator) edge checked."""
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
    return tuple(images)


def walked_and_worded(monkeypatch, wp):
    """Realize a wedge presentation by the walks and by words; return the lifted realization and its pair words.

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
    return wedge._lift_to_pairs(wp, real), pair_words(wp, words)
