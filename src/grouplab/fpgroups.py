"""Finitely presented groups and coset enumeration.

Words are tuples of nonzero signed integers: +g is generator g (1-based),
-g its inverse. Enumeration follows the relator-scanning (HLT) strategy
with immediate coincidence processing. It scans the relators as given, so
callers normalize them once, with ``preprocess_relators``, when they build
a presentation. Identical inputs always produce identical standardized
tables. Rows are allocated only when a coset is defined and are released
as soon as it dies.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

from .errors import CosetLimitExceeded, TableNotClosed, ValidationError
from .groups import FiniteGroup, from_mul_table

DEFAULT_MAX_COSETS = 1_000_000

Word = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator count and relator words."""

    num_generators: int
    relators: tuple[Word, ...]
    label: str = "P"

    def __post_init__(self):
        if isinstance(self.num_generators, bool) or not isinstance(self.num_generators, numbers.Integral):
            raise ValidationError(f"generator count must be an integer, got {self.num_generators!r}")
        if self.num_generators < 0:
            raise ValidationError(f"negative generator count {self.num_generators}")
        for w in self.relators:
            for ltr in w:
                if isinstance(ltr, bool) or not isinstance(ltr, numbers.Integral):
                    raise ValidationError(f"letter {ltr!r} in relator {w} is not an integer")
                if ltr == 0 or abs(ltr) > self.num_generators:
                    raise ValidationError(f"letter {ltr} out of range in relator {w}")


def free_reduce(word: Sequence[int]) -> Word:
    out: list[int] = []
    for ltr in word:
        if out and out[-1] == -ltr:
            out.pop()
        else:
            out.append(ltr)
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-ltr for ltr in reversed(word))


def relator_key(word: Word) -> Word:
    """Canonical form of a relator up to rotation and inversion."""
    if not word:
        return word
    cands = []
    for w in (word, invert_word(word)):
        cands.extend(w[i:] + w[:i] for i in range(len(w)))
    return min(cands)


def preprocess_relators(relators: Sequence[Sequence[int]]) -> tuple[Word, ...]:
    """Cyclically reduce, drop empties, dedupe up to rotation and inversion."""
    seen: set[Word] = set()
    out: list[Word] = []
    for raw in relators:
        w = cyclic_reduce(raw)
        if not w:
            continue
        key = relator_key(w)
        if key in seen:
            continue
        seen.add(key)
        out.append(w)
    return tuple(out)


def presentation_to_json(pres: Presentation) -> dict:
    return {
        "schema_version": 1,
        "label": pres.label,
        "num_generators": pres.num_generators,
        "relators": [list(w) for w in pres.relators],
    }


def presentation_from_json(doc: dict) -> Presentation:
    try:
        return Presentation(
            num_generators=doc["num_generators"],
            relators=tuple(tuple(w) for w in doc["relators"]),
            label=str(doc.get("label", "P")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed presentation document: {exc}") from exc


class CosetTable:
    """Working state and final result of a coset enumeration.

    Column 2*g is the action of generator g+1, column 2*g+1 of its inverse.
    A closed, compressed, standardized table defines a permutation action
    on live cosets 0..n-1 with coset 0 the subgroup itself.
    """

    def __init__(self, num_generators: int, max_cosets: int, subgroup_words: tuple[Word, ...]):
        self.num_generators = num_generators
        self.width = 2 * num_generators
        self.max_cosets = max_cosets
        self.subgroup_words = subgroup_words
        self.table: list[list[int] | None] = []
        self.p: list[int] = []
        self._new_coset()

    # -- bookkeeping ----------------------------------------------------

    def _new_coset(self) -> int:
        if len(self.table) >= self.max_cosets:
            raise CosetLimitExceeded(
                f"enumeration defined {self.max_cosets} cosets without closing"
            )
        idx = len(self.table)
        self.table.append([-1] * self.width)
        self.p.append(idx)
        return idx

    def live_cosets(self) -> list[int]:
        return [a for a in range(len(self.p)) if self.p[a] == a]

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    # -- core moves -----------------------------------------------------

    def define(self, a: int, c: int) -> int:
        b = self._new_coset()
        self.table[a][c] = b
        self.table[b][c ^ 1] = a
        return b

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        processed: list[int] = []
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.table[dead]
            for c in range(self.width):
                target = row[c]
                if target < 0:
                    continue
                trow = self.table[target]
                if trow is not None:
                    trow[c ^ 1] = -1
                mu = self.rep(dead)
                nu = self.rep(target)
                if self.table[mu][c] >= 0:
                    self._merge(nu, self.table[mu][c], queue)
                elif self.table[nu][c ^ 1] >= 0:
                    self._merge(mu, self.table[nu][c ^ 1], queue)
                else:
                    self.table[mu][c] = nu
                    self.table[nu][c ^ 1] = mu
            processed.append(dead)
        for dead in processed:
            self.table[dead] = None  # free the row; dead cosets are never read

    def scan_and_fill(self, a: int, word_cols: tuple[int, ...]) -> None:
        """Scan a relator from coset a, defining cosets until it completes."""
        while True:
            table = self.table
            f = a
            i = 0
            r = len(word_cols)
            b = a
            j = r - 1
            while i <= j:
                nxt = table[f][word_cols[i]]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prv = table[b][word_cols[j] ^ 1]
                if prv < 0:
                    break
                b = prv
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word_cols[i]] = b
                table[b][word_cols[i] ^ 1] = f
                return
            self.define(f, word_cols[i])
            if self.p[a] != a:
                return  # a died during a cascade; caller re-checks liveness

    # -- finishing ------------------------------------------------------

    def is_closed(self) -> bool:
        return all(
            all(v >= 0 for v in self.table[a]) for a in range(len(self.p)) if self.p[a] == a
        )

    def compress(self) -> None:
        live = self.live_cosets()
        remap = {old: new for new, old in enumerate(live)}
        newtable = []
        for old in live:
            row = self.table[old]
            newtable.append([remap[self.rep(v)] if v >= 0 else -1 for v in row])
        self.table = newtable
        self.p = list(range(len(live)))

    def standardize(self) -> None:
        """Renumber cosets so first appearances occur in scan order."""
        n = len(self.table)
        order: list[int] = [0]
        seen = {0}
        qi = 0
        while qi < len(order):
            a = order[qi]
            qi += 1
            for c in range(self.width):
                b = self.table[a][c]
                if b >= 0 and b not in seen:
                    seen.add(b)
                    order.append(b)
        relabel = {old: new for new, old in enumerate(order)}
        newtable = [[-1] * self.width for _ in range(n)]
        for old in range(n):
            for c in range(self.width):
                v = self.table[old][c]
                if v >= 0:
                    newtable[relabel[old]][c] = relabel[v]
        self.table = newtable

    def trace(self, a: int, word_cols: tuple[int, ...]) -> int:
        for c in word_cols:
            a = self.table[a][c]
            if a < 0:
                raise TableNotClosed("trace hit an undefined entry")
        return a


def letter_column(ltr: int) -> int:
    g = abs(ltr) - 1
    return 2 * g + (1 if ltr < 0 else 0)


def word_columns(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(letter_column(ltr) for ltr in word)


def todd_coxeter(
    pres: Presentation,
    subgroup_words: Sequence[Sequence[int]] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by subgroup_words.

    Returns a closed, compressed, standardized table. With no subgroup
    words the number of live cosets is the order of the presented group.
    """
    if max_cosets <= 0:
        raise ValidationError("max_cosets must be positive")
    relator_cols = sorted((word_columns(w) for w in pres.relators), key=lambda t: (len(t), t))
    sub_words = tuple(free_reduce(w) for w in subgroup_words)
    tbl = CosetTable(pres.num_generators, max_cosets, sub_words)
    for w in sub_words:
        tbl.scan_and_fill(0, word_columns(w))
    alpha = 0
    while alpha < len(tbl.table):
        if tbl.p[alpha] != alpha:
            alpha += 1
            continue
        for w in relator_cols:
            tbl.scan_and_fill(alpha, w)
            if tbl.p[alpha] != alpha:
                break
        if tbl.p[alpha] == alpha:
            row = tbl.table[alpha]
            for c in range(tbl.width):
                if row[c] < 0:
                    tbl.define(alpha, c)
        alpha += 1
    if not tbl.is_closed():
        raise TableNotClosed("enumeration finished with an open table")
    tbl.compress()
    tbl.standardize()
    return tbl


@dataclass(frozen=True)
class Realization:
    """A presented group realized concretely through its coset action.

    The action on cosets of the trivial subgroup is regular, so cosets
    double as group elements; ``words`` holds one defining word per element.
    """

    group: FiniteGroup
    gen_images: tuple[int, ...]
    words: tuple[Word, ...]

    def evaluate(self, word: Sequence[int]) -> int:
        el = 0
        grp = self.group
        for ltr in word:
            x = self.gen_images[abs(ltr) - 1]
            if ltr < 0:
                x = grp.inv[x]
            el = grp.mul[el][x]
        return el


def realize(pres: Presentation, table: CosetTable) -> Realization:
    """Turn a closed table over the trivial subgroup into a finite group."""
    if table.subgroup_words:
        raise ValidationError("realization requires enumeration over the trivial subgroup")
    if not table.is_closed():
        raise TableNotClosed("cannot realize an open table")
    n = len(table.table)
    words: list[Word | None] = [None] * n
    words[0] = ()
    order = [0]
    qi = 0
    while qi < len(order):
        a = order[qi]
        qi += 1
        for c in range(table.width):
            b = table.table[a][c]
            if b >= 0 and words[b] is None:
                ltr = c // 2 + 1
                if c % 2:
                    ltr = -ltr
                words[b] = words[a] + (ltr,)
                order.append(b)
    if any(w is None for w in words):
        raise TableNotClosed("coset action is not transitive")
    word_cols = [word_columns(w) for w in words]
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mul[i][j] = table.trace(i, word_cols[j])
    grp = from_mul_table(mul, label=f"{pres.label}!", validate=False)
    gen_images = tuple(
        table.table[0][letter_column(g + 1)] for g in range(pres.num_generators)
    )
    return Realization(group=grp, gen_images=gen_images, words=tuple(words))


def evaluate_word(realization: Realization, word: Sequence[int]) -> int:
    """Product of generator images along a word."""
    return realization.evaluate(word)
