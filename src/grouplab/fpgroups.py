"""Finitely presented groups and coset enumeration.

Words are tuples of nonzero signed integers: +g is generator g (1-based),
-g its inverse. Enumeration follows the relator-scanning (HLT) strategy
with immediate coincidence processing. It scans the relators as given, so
callers normalize them once, with ``preprocess_relators``, when they build
a presentation. Rows are allocated only when a coset is defined and are
released as soon as it dies.

A closed table is finished by one walk from coset 0 that drops the dead
cosets and numbers the live ones by first appearance, so identical inputs
give identical tables. ``realize`` reads each element's column of the
multiplication table off the element a second walk reached it from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CosetLimitExceeded, TableNotClosed, ValidationError
from .groups import FiniteGroup, _check_integers

DEFAULT_MAX_COSETS = 1_000_000

Word = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator count and relator words."""

    num_generators: int
    relators: tuple[Word, ...]
    label: str = "P"

    def __post_init__(self):
        _check_integers((self.num_generators,), "generator count")
        _check_letters(self.relators, self.num_generators, "relator")


def _check_letters(words: Sequence[Sequence[int]], num_generators: int, kind: str) -> None:
    """Raise ValidationError unless every letter is an integer g or -g, 1 <= g <= num_generators."""
    for w in words:
        try:
            _check_integers(w, "letter", -num_generators, num_generators + 1)
            if 0 in w:
                raise ValidationError("letter 0 is out of range")
        except ValidationError as exc:  # the word is named only once a letter fails
            raise ValidationError(f"{kind} {w}: {exc}") from None


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
    A closed, standardized table defines a permutation action on the
    cosets 0..n-1 with coset 0 the subgroup itself.
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

    # -- finishing ------------------------------------------------------

    def is_closed(self) -> bool:
        return all(
            all(v >= 0 for v in self.table[a]) for a in range(len(self.p)) if self.p[a] == a
        )

    def standardize(self) -> None:
        """Drop dead cosets and number live ones by first appearance in a scan from coset 0."""
        order, label = [0], {0: 0}
        for a in order:
            for v in map(self.rep, self.table[a]):
                if v not in label:
                    label[v] = len(order)
                    order.append(v)
        self.table = [[label[self.rep(v)] for v in self.table[a]] for a in order]
        self.p = list(range(len(order)))

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

    Returns a closed, standardized table. With no subgroup words the
    number of cosets is the order of the presented group.
    """
    _check_integers((max_cosets,), "max_cosets", lo=1)
    _check_letters(subgroup_words, pres.num_generators, "subgroup word")
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
    tbl.standardize()
    return tbl


@dataclass(frozen=True)
class Realization:
    """A presented group realized concretely through its coset action.

    The action on cosets of the trivial subgroup is regular, so cosets
    double as group elements; ``gen_images`` generate ``group``.
    """

    group: FiniteGroup
    gen_images: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_integers(self.gen_images, "generator image", 0, self.group.order)

    def evaluate(self, word: Sequence[int]) -> int:
        """Product of generator images along a word."""
        _check_letters((word,), len(self.gen_images), "word")
        el = 0
        grp = self.group
        for ltr in word:
            x = self.gen_images[abs(ltr) - 1]
            if ltr < 0:
                x = grp.inv[x]
            el = grp.mul[el][x]
        return el


def realize(pres: Presentation, table: CosetTable) -> Realization:
    """Turn a closed table over the trivial subgroup into a finite group.

    A walk from coset 0 first reaches b from a along column c, so column b
    of the multiplication table is column a followed by the entries in c.
    """
    if table.subgroup_words:
        raise ValidationError("realization requires enumeration over the trivial subgroup")
    if pres.num_generators != table.num_generators:
        raise ValidationError(f"the table has {table.num_generators} generators, not {pres.num_generators}")
    if not table.is_closed():
        raise TableNotClosed("cannot realize an open table")
    rows = table.table
    order, cols = [0], {0: range(len(rows))}
    for a in order:
        for c, b in enumerate(rows[a]):
            if b not in cols:
                cols[b] = [rows[x][c] for x in cols[a]]
                order.append(b)
    if len(order) != len(rows):
        raise TableNotClosed("coset action is not transitive")
    mul = tuple(zip(*(cols[b] for b in range(len(rows)))))
    grp = FiniteGroup(len(rows), mul, tuple(row.index(0) for row in mul), f"{pres.label}!")
    gen_images = tuple(rows[0][letter_column(g + 1)] for g in range(pres.num_generators))
    return Realization(group=grp, gen_images=gen_images)
