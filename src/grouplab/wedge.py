"""Pairing groups of a finite group and their commutator kernels.

For a finite group G, form the group generated by one symbol per ordered
pair (m, n) of elements of G subject to the crossed relations

    (mm', n)  = (m^m', m^n) (m, n)
    (m, nn')  = (m, n) (n^m, n^n')

together with a collapsing family:

  * CURLY:    (x, y) = 1 for every commuting pair [x, y] = 1;
  * EXTERIOR: (x, x) = 1 for every x (the non-abelian exterior square).

Mapping each symbol (m, n) to the commutator [m, n] extends to a
surjection kappa onto the derived subgroup; its kernel is the Bogomolov
kernel in the CURLY case and measures the Schur multiplier in the
EXTERIOR case. Both constructions are realized concretely by coset
enumeration, and kappa is rebuilt and verified rather than assumed.

The raw presentation has |G|^2 generators and about 2|G|^3 relators, most
of them redundant. They are built as numpy index arrays and reduced by
Tietze elimination (a signed union-find run to a fixpoint) before
enumeration, which realizes the group on its k surviving letters alone. A
pair's image is its letter's (inverted for a negative letter, 1 for a dead
pair), and evaluating every raw relator on the pair images certifies the
reduction. A crossed relator cancels to one letter exactly when one of m,
m', n, n' is 1, and that letter is a pair with 1; none cancels to two. So
the letters that single raw relators kill, the collapsed pairs and the
pairs (1, y) and (y, 1), are sent to the identity before the elimination,
which skips the pass that would only have found them.

The CURLY elimination reads fewer rows. Let S be a union of conjugacy
classes that contains 1 and generates G. Then the crossed relators with m'
in S or with n' in S, together with the collapsing ones, define the same
group as all raw relators. Proof for the left relators, writing ^m x for
m^x = m x m^-1, by induction on the length of m' as a word over S (the
right ones are alike): length 0 or 1
means m' is in S. For m' = s t', with s in S and t' shorter, the relator at
(ms, t', n) and then the one at (m, s, n) give

    (m s t', n) = (^(ms)t', ^(ms)n) (^m s, ^m n) (m, n),

and the relator at (^m s, ^m t', ^m n) turns the first two factors into
(^m s ^m t', ^m n) = (^m m', ^m n). Since S is closed under conjugation,
^m t' is again a word over S of the length of t', so that relator holds by
induction. As 1 is in S, the single rows that kill the pairs with 1 are
still read. ``_generating_classes`` picks S greedily from the smallest
classes. So the elimination runs on these rows, while the certificate
``check_pairing``, the raw counts and ``raw_presentation()`` still read all
2|G|^3 crossed relators: the certificate proves that the realization is
G ⋏ G whichever rows the elimination read. EXTERIOR keeps all rows. It collapses only the pairs
(x, x), and on the 32 corpus groups of order at most 16 the rows over S
left 192 generators and 1,543 relators in place of 71 and 816, which made
``compute_wedge`` slower (55 ms in place of 42 ms for all 32).

Neither step holds all of its relators at once. Both read them in blocks,
each holding the relators (m, m', n), (m, n, n') and (m, n) of a range of
about ``_BLOCK_ROWS`` / (2|G||S|) elements m (S = G for the certificate).
The elimination builds each block as int32 rows; every pass drops repeated
rows block by block, by sorting one int64 key per row, and carries only the
rows that still say something. The certificate checks one block at a time
and stops at the first block in which a relator fails.

The relations have two spellings. ``_raw_relator_rows`` writes them as rows
of signed pair letters, for the elimination and ``raw_presentation()``.
``_axioms_hold`` reads them as the identities above on a pair table
P : G x G -> L, with P = 1 on the collapsed pairs. In a group a row
x^-1 u v is 1 exactly when u v = x, so the two accept the same tables and
fail at the same block; ``TestTableCertificate`` in ``tests/test_wedge.py``
compares them on every single-entry corruption of the corpus tables. The
certificate, ``check_pairing``, checks a realization's pair table in
``compute_wedge`` and any other pair table phi, such as the commutator
table of G; the raw CURLY relations are the pairing axioms. Nothing is kept
between calls.
``WedgeRealization.pair_table()`` is the only pair view of a realization:
one read-only |G| x |G| array, built at the first call and kept on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    GroupTooLarge,
    InternalCheckFailed,
    KappaRelatorViolation,
    NotAPairing,
    RelatorNotKilled,
    ValidationError,
)
from .fpgroups import (
    DEFAULT_MAX_COSETS,
    Presentation,
    Realization,
    preprocess_relators,
    realize,
    todd_coxeter,
)
from .groups import (
    AbelianInvariants,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _cached,
    _check_integers,
    _extend_hom,
    abelian_invariants,
    commutator_table,
    derived_subgroup,
    subgroup_closure,
    table_arrays,
)

DEFAULT_CURLY_CAP = 64
DEFAULT_EXTERIOR_CAP = 16


class WedgeVariant(enum.Enum):
    CURLY = "curly"
    EXTERIOR = "exterior"

    @property
    def default_cap(self) -> int:
        return DEFAULT_CURLY_CAP if self is WedgeVariant.CURLY else DEFAULT_EXTERIOR_CAP


# Rows per block of the elimination and of the certificate. A raw block
# holds the relators of max(1, _BLOCK_ROWS // (2|G|^2)) elements m.
_BLOCK_ROWS = 1 << 15


def _collapsed_letters(G: FiniteGroup, variant: WedgeVariant, ms: range) -> np.ndarray:
    """The 1-based letters of the collapsed pairs (m, n) with m in ms."""
    n = G.order
    if variant is WedgeVariant.CURLY:
        return np.flatnonzero(commutator_table(G)[ms.start:ms.stop].ravel() == 0) + ms.start * n + 1
    return np.arange(ms.start, ms.stop) * (n + 1) + 1


def _raw_relator_rows(
    G: FiniteGroup, variant: WedgeVariant, ms: range, S: Sequence[int] | None = None
) -> np.ndarray:
    """The raw relators of the elements m in ms, as int32 rows of three signed 1-based pair letters.

    The pair (m, n) is letter m * |G| + n + 1; a 0 pads the one-letter
    collapsing relators. Rows come in the order crossed-left (m, m', n),
    then crossed-right (m, n, n'), then collapsing (m, n). An element set S
    keeps the crossed rows with m' in S (left) and n' in S (right), |ms| *
    |S| * |G| rows each; without S, m' and n' run over G, and with ms =
    range(|G|) these are all the raw relators.
    """
    n = G.order
    mul, _, conj = table_arrays(G)
    a = np.arange(n, dtype=np.int32)
    s = a if S is None else np.asarray(S, dtype=np.int32)
    i = np.arange(ms.start, ms.stop, dtype=np.int32)[:, None, None]
    # (mm', n)^-1 (m^m', m^n) (m, n) with (m, m', n) = (i, j, k)
    j, k = s[None, :, None], a[None, None, :]
    left = np.stack(np.broadcast_arrays(
        -(mul[i, j] * n + k + 1), conj[i, j] * n + conj[i, k] + 1, i * n + k + 1
    ), axis=-1).reshape(-1, 3)
    # (m, nn')^-1 (m, n) (n^m, n^n') with (m, n, n') = (i, j, k)
    j, k = a[None, :, None], s[None, None, :]
    right = np.stack(np.broadcast_arrays(
        -(i * n + mul[j, k] + 1), i * n + j + 1, conj[j, i] * n + conj[j, k] + 1
    ), axis=-1).reshape(-1, 3)
    collapsed = _collapsed_letters(G, variant, ms)
    collapsing = np.zeros((len(collapsed), 3), dtype=np.int32)
    collapsing[:, 0] = collapsed
    return np.concatenate([left, right, collapsing])


def _m_blocks(G: FiniteGroup, S: Sequence[int] | None = None) -> Iterator[range]:
    """The ranges of elements m whose raw rows over S (all raw rows without S) make one block each."""
    step = max(1, _BLOCK_ROWS // (2 * G.order * (G.order if S is None else len(S))))
    return (range(m, min(m + step, G.order)) for m in range(0, G.order, step))


def _relator_blocks(
    G: FiniteGroup, variant: WedgeVariant, S: Sequence[int] | None = None
) -> Iterator[np.ndarray]:
    """The raw relator rows over S (all raw rows without S), one block of elements m at a time."""
    return (_raw_relator_rows(G, variant, ms, S) for ms in _m_blocks(G, S))


def _generating_classes(G: FiniteGroup) -> list[int]:
    """A union S of conjugacy classes of G that contains 1 and generates G, sorted.

    Classes are taken in ascending (size, sorted members); a class that
    already lies in the subgroup generated so far is skipped, and the walk
    stops once that subgroup is G.
    """
    conj = table_arrays(G)[2]
    classes = sorted({tuple(np.flatnonzero(np.bincount(conj[:, x])).tolist()) for x in range(G.order)}, key=lambda c: (len(c), c))
    S, reached = [0], {0}
    for c in classes:
        if len(reached) == G.order:
            break
        if not reached.issuperset(c):
            S += c
            reached = set(subgroup_closure(G, S).members)
    return sorted(S)


def _reduce_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freely and cyclically reduce words of at most three signed letters.

    Returns the reduced rows, letters first and 0 padding after, and the
    reduced length of each row.
    """
    a, b, c = rows.T
    b, c = np.where(b == 0, c, b), np.where(b == 0, 0, c)
    a, b, c = np.where(a == 0, b, a), np.where(a == 0, c, b), np.where(a == 0, 0, c)
    b, c = np.where(b == 0, c, b), np.where(b == 0, 0, c)
    length = (a != 0).astype(np.int8) + (b != 0) + (c != 0)
    # a three-letter word keeps one letter if two neighbours (cyclically) cancel
    left = np.where(a == -b, c, np.where(b == -c, a, np.where(c == -a, b, 0)))
    shrink = (length == 3) & (left != 0)
    a = np.where(shrink, left, a)
    b, c = np.where(shrink, 0, b), np.where(shrink, 0, c)
    length[shrink] = 1
    length[(length == 2) & (a == -b)] = 0
    return np.stack([a, b, c], axis=1), length


def _mapped(blocks: list[np.ndarray], step: np.ndarray) -> Iterator[np.ndarray]:
    """Each block rewritten by the signed node map step, released as it goes."""
    while blocks:
        rows = blocks.pop()
        yield np.sign(rows) * step[np.abs(rows)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def _distinct(rows: np.ndarray, num_letters: int) -> np.ndarray:
    """The distinct rows, in the lexicographic order of their signed letters."""
    bits = (2 * num_letters).bit_length()  # an int64 key's digits are the letters offset into [0, 2 num_letters]
    key = (rows[:, 0] + num_letters).astype(np.int64)
    for col in (1, 2):
        key <<= bits
        key |= rows[:, col] + num_letters
    key.sort()
    key = key[_run_starts(key)]
    out = np.empty((len(key), 3), dtype=np.int32)
    for col in (2, 1, 0):
        out[:, col] = (key & ((1 << bits) - 1)) - num_letters
        key >>= bits
    return out


def _hook(equations: np.ndarray, num_letters: int) -> np.ndarray:
    """One union step on distinct equation rows in lexicographic order.

    Returns the signed root of every node after the step. In the new roots
    an equation that the step applied reads r r^-1, or is empty, so the
    next ``_reduce_rows`` drops it.
    """
    # Each equation row x or x z says x = y, with y = 1 (node 0) or
    # y = z^-1. With x = u^a and y = v^b, u = v^(ab): hi = lo^s.
    x, z = equations[:, 0], equations[:, 1]
    hi, lo = np.maximum(np.abs(x), np.abs(z)), np.minimum(np.abs(x), np.abs(z))
    s = np.where((x < 0) != (z > 0), -1, 1).astype(np.int32)  # y < 0 exactly when z > 0
    hook = np.lexsort((lo, hi))  # by hi, then lo, then row; not kept, to save memory
    hook = hook[_run_starts(hi[hook])]  # for each hi, the first row of smallest lo
    root = np.arange(num_letters + 1, dtype=np.int32)
    sign = np.ones(num_letters + 1, dtype=np.int32)
    root[hi[hook]], sign[hi[hook]] = lo[hook], s[hook]
    while np.any(root[root] != root):
        sign, root = sign * sign[root], root[root]
    return sign * root


def _eliminate(blocks: Iterable[np.ndarray], num_letters: int) -> tuple[np.ndarray, np.ndarray]:
    """Tietze elimination to a fixpoint on int32 rows of at most three letters.

    A row that reduces to one letter kills it; a row that reduces to two
    letters x y, not a square, identifies x with y^-1. These equations join
    the classes of a signed union-find over the nodes 0..num_letters, node 0
    being the identity; the other rows that do not vanish are carried.

    Each pass reduces each block's rows, drops repeats within the block and
    splits the rest. Lazily built blocks are thus never all held at once;
    later passes read the rows as one block once they fit in
    ``_BLOCK_ROWS``. After a pass, every root with an equation to a smaller
    root is hooked under the smallest such root (0 for the dead classes),
    and the first such equation in lexicographic order sets the sign. The
    next pass reads the carried rows and every equation in the new roots,
    where the applied equations vanish. So every pass sees the distinct
    rows that a pass over all raw rows would, apart from those that vanish:
    the result depends neither on the order or blocking of the rows, nor on
    whether the letters that a first pass would kill were mapped to 0
    beforehand.

    Returns the signed root letter of every node (0 for dead nodes) and the
    distinct reduced rows that still carry information, in root letters and
    lexicographic order: words of length 3, and squares r r left by a class
    identified with its own inverse.
    """
    letters = np.arange(num_letters + 1, dtype=np.int32)
    while True:
        carried, equations = [], []
        for rows in blocks:
            rows, length = _reduce_rows(rows)
            rows = _distinct(rows[length > 0], num_letters)
            eq = (rows[:, 2] == 0) & (rows[:, 0] != rows[:, 1])
            carried.append(rows[~eq])
            equations.append(rows[eq])
        rows = np.concatenate(equations)
        equations.clear()
        rows = _distinct(rows, num_letters)
        if not len(rows):
            return letters, _distinct(np.concatenate(carried), num_letters)
        step = _hook(rows, num_letters)
        if sum(map(len, carried)) + len(rows) <= _BLOCK_ROWS:  # the rows have collapsed
            carried = [np.concatenate(carried + [rows])]
        else:
            carried += (rows[i:i + _BLOCK_ROWS] for i in range(0, len(rows), _BLOCK_ROWS))
        letters = np.sign(letters) * step[np.abs(letters)]
        blocks = _mapped(carried, step)


@dataclass(frozen=True)
class WedgePresentation:
    """The Tietze-reduced presentation of a pairing group, with its pair map.

    ``presentation`` is on the surviving letter classes 1..k. Pair p =
    m * |G| + n stands for the signed letter ``pair_letters[p]`` (0 when the
    pair is trivial). The counts are the raw relator counts before any
    reduction; ``raw_presentation()`` rebuilds the raw pair-letter
    presentation itself.
    """

    variant: WedgeVariant
    base: FiniteGroup
    presentation: Presentation
    pair_letters: tuple[int, ...]
    r1_count: int
    r2_count: int
    r3_count: int

    def raw_presentation(self) -> Presentation:
        """The presentation on all |G|^2 pair letters, relators normalized."""
        rows = _raw_relator_rows(self.base, self.variant, range(self.base.order))
        return Presentation(
            num_generators=self.base.order**2,
            relators=preprocess_relators([tuple(x for x in w if x) for w in rows.tolist()]),
            label=self.presentation.label,
        )


def build_wedge_presentation(
    G: FiniteGroup,
    variant: WedgeVariant,
    group_cap: int | None = None,
) -> WedgePresentation:
    """Tietze-reduced presentation of the pairing group on |G|^2 pair symbols."""
    cap = group_cap if group_cap is not None else variant.default_cap
    _check_integers((cap,), "group cap")
    if G.order > cap:
        raise GroupTooLarge(
            f"|{G.label}| = {G.order} exceeds the {variant.value} cap {cap}"
        )
    collapsed = _collapsed_letters(G, variant, range(G.order))
    dead = np.arange(G.order**2 + 1, dtype=np.int32)  # sends the letters single raw relators kill to 0
    dead[collapsed] = 0
    dead[1:G.order + 1] = dead[1::G.order] = 0  # the pairs (1, y) and (y, 1)
    S = _generating_classes(G) if variant is WedgeVariant.CURLY else None
    blocks = (np.sign(rows) * dead[np.abs(rows)] for rows in _relator_blocks(G, variant, S))
    letters, kept = _eliminate(blocks, G.order**2)
    roots = np.flatnonzero(letters == dead)[1:]  # live own roots: _eliminate never sees a dead node
    renumber = np.zeros(len(letters), dtype=np.int32)
    renumber[roots] = np.arange(1, len(roots) + 1)
    letters, kept = (np.sign(x) * renumber[np.abs(x)] for x in (letters[dead], kept))
    pres = Presentation(
        num_generators=len(roots),
        relators=preprocess_relators([tuple(x for x in w if x) for w in kept.tolist()]),
        label=f"{G.label}-{variant.value}",
    )
    return WedgePresentation(
        variant=variant,
        base=G,
        presentation=pres,
        pair_letters=tuple(letters[1:].tolist()),
        r1_count=G.order**3,
        r2_count=G.order**3,
        r3_count=len(collapsed),
    )


def _axioms_hold(G: FiniteGroup, variant: WedgeVariant, L: FiniteGroup, P: np.ndarray, ms: range) -> bool:
    """Whether the raw relators of the elements m in ms are the identity of L with pair (m, n) read as P[m, n].

    Each row of ``_raw_relator_rows(G, variant, ms)`` is read as the identity it states on P (see the module docstring).
    """
    mul, _, conj = table_arrays(G)
    lmul, i = table_arrays(L)[0], np.arange(ms.start, ms.stop)
    c, d, row = conj[i], conj[:, i].T, P[i]  # c[., x] = m^x and d[., x] = x^m, for m in ms
    left = P[mul[i]] == lmul[P[c[:, :, None], c[:, None, :]], row[:, None, :]]  # at (m, m', n)
    right = row[:, mul] == lmul[row[:, :, None], P[d[:, :, None], conj]]  # at (m, n, n')
    return bool(left.all() and right.all() and not P.ravel()[_collapsed_letters(G, variant, ms) - 1].any())


def check_pairing(
    G: FiniteGroup, L: FiniteGroup, phi: Sequence[Sequence[int]] | np.ndarray, variant: WedgeVariant = WedgeVariant.CURLY
) -> bool:
    """Whether phi : G x G -> L sends every raw relator of the variant to 1, with the pair (m, n) read as phi[m][n].

    With CURLY these are the pairing axioms. A phi that ``_pair_array``
    does not read as a |G| x |G| table of elements of L fails. The
    relators are checked one block of elements m at a time, the first
    failing block settles it, and nothing is kept.
    """
    try:
        P = _pair_array(phi, G, L)
    except ValidationError:
        return False
    return all(_axioms_hold(G, variant, L, P, ms) for ms in _m_blocks(G))


def _pair_array(phi: Sequence[Sequence[int]] | np.ndarray, G: FiniteGroup, L: FiniteGroup) -> np.ndarray:
    """phi as a |G| x |G| integer array of elements of L; ValidationError for any other table, a ragged one too."""
    table = phi if isinstance(phi, np.ndarray) else np.array(phi, dtype=object)
    if table.shape != (G.order, G.order):
        raise ValidationError(f"a pair table of {G.label} has shape {(G.order, G.order)}, not {table.shape}")
    if table.dtype == object:  # entry by entry, so that a bool, float or str is no element index
        _check_integers(table.ravel().tolist(), "pair image", 0, L.order)
    elif table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= L.order:
        raise ValidationError(f"a pair image is not an integer or lies outside [0, {L.order})")
    return np.asarray(table, dtype=np.int64)


def hom_from_generator_images(
    source: WedgeRealization, target: FiniteGroup, table: Sequence[Sequence[int]] | np.ndarray
) -> GroupHom:
    """The homomorphism on source's realized group sending each pair (m, n) to table[m][n].

    Each letter goes to the entry at its root pair, the first pair carrying
    it with a positive sign; the walk of ``groups._extend_hom`` extends
    these k images, checking every edge, and one array comparison checks
    every pair. Such a homomorphism exists exactly when both pass, else
    RelatorNotKilled names the first edge or pair that fails. A malformed
    table, or letters that do not reach every element, raise ValidationError.
    """
    table = _pair_array(table, source.base, target)
    grp, wp = source.realization.group, source.presentation
    # with negative letters read as 0, letter i > 0 first occurs at its root, and 0 first at the dead pair (1, 1)
    roots = _cached(wp, "_root_pairs", lambda: np.unique(np.maximum(wp.pair_letters, 0), return_index=True)[1][1:])
    images = _extend_hom(grp, target, source.realization.gen_images, table.ravel()[roots].tolist())
    if -1 in images:
        raise ValidationError(f"the letters reach {grp.order - images.count(-1)} of the {grp.order} elements of {grp.label}")
    bad = np.array(images)[source.pair_table()] != table
    if bad.any():
        raise RelatorNotKilled(f"the extension differs from the table at the pair {tuple(np.argwhere(bad)[0].tolist())}")
    return GroupHom(grp, target, tuple(images))


@dataclass(frozen=True)
class WedgeRealization:
    """A realized pairing group: one image per letter of the reduced presentation, read per pair by ``pair_table()``."""

    variant: WedgeVariant
    base: FiniteGroup
    presentation: WedgePresentation
    realization: Realization

    def pair_table(self) -> np.ndarray:
        """The read-only |G| x |G| array of pair images (see the module docstring), kept on the realization."""

        def build() -> np.ndarray:
            letters = np.reshape(self.presentation.pair_letters, (-1, self.base.order))
            images = np.array((0,) + self.realization.gen_images)[np.abs(letters)]
            return np.where(letters < 0, table_arrays(self.realization.group)[1][images], images)

        return _cached(self, "_pair_table", build)

    @property
    def kappa(self) -> GroupHom:
        """The commutator map, pair (m, n) to [m, n]: built at first use and kept, as is its kernel; ``compute_wedge`` verifies both."""
        return _cached(self, "_kappa", lambda: hom_from_generator_images(self, self.base, commutator_table(self.base)))

    @property
    def kernel(self) -> Subgroup:
        """The kernel of kappa."""
        return _cached(self, "_kernel", lambda: self.kappa.kernel())

    @property
    def order(self) -> int:
        return self.realization.group.order

    def kernel_invariants(self) -> AbelianInvariants:
        return abelian_invariants(self.kernel)


def compute_wedge(
    G: FiniteGroup,
    variant: WedgeVariant,
    max_cosets: int = DEFAULT_MAX_COSETS,
    group_cap: int | None = None,
) -> WedgeRealization:
    """Realize the pairing group and extract kappa and its kernel.

    Only the reduced presentation is enumerated. Evaluating every raw
    relator on the realization's pair table certifies the reduction.
    """
    wp = build_wedge_presentation(G, variant, group_cap)
    table = todd_coxeter(wp.presentation, (), max_cosets=max_cosets)
    wr = WedgeRealization(variant=variant, base=G, presentation=wp, realization=realize(wp.presentation, table))
    if not check_pairing(G, wr.realization.group, wr.pair_table(), variant):
        raise RelatorNotKilled(
            f"a raw {variant.value} relator of {G.label} survives in the realized group"
        )
    try:
        kappa = wr.kappa
    except RelatorNotKilled as exc:
        raise KappaRelatorViolation(
            f"commutator images of {G.label} violate a pairing relator: {exc}"
        ) from exc
    derived = derived_subgroup(G)
    if set(kappa.images) != set(derived.members):
        raise KappaRelatorViolation(
            f"kappa image differs from the derived subgroup of {G.label}"
        )
    if wr.order != len(wr.kernel) * len(derived):
        raise InternalCheckFailed(
            f"exactness fails for {G.label} {variant.value}: "
            f"{wr.order} != {len(wr.kernel)} * {len(derived)}"
        )
    if variant is WedgeVariant.CURLY and not wr.kernel.is_abelian():
        raise InternalCheckFailed(f"curly kernel of {G.label} is not abelian")
    return wr


def bogomolov_kernel(
    G: FiniteGroup,
    max_cosets: int = DEFAULT_MAX_COSETS,
    group_cap: int | None = None,
) -> AbelianInvariants:
    """Abelian invariants of the commutator kernel of the CURLY realization."""
    wr = compute_wedge(G, WedgeVariant.CURLY, max_cosets=max_cosets, group_cap=group_cap)
    return wr.kernel_invariants()


def multiplier_order(
    G: FiniteGroup,
    max_cosets: int = DEFAULT_MAX_COSETS,
    group_cap: int | None = None,
) -> int:
    """Order of the commutator kernel of the EXTERIOR realization."""
    wr = compute_wedge(G, WedgeVariant.EXTERIOR, max_cosets=max_cosets, group_cap=group_cap)
    return len(wr.kernel)


def pairing_to_hom(
    G: FiniteGroup,
    L: FiniteGroup,
    phi: Sequence[Sequence[int]],
    wedge: WedgeRealization,
) -> GroupHom:
    """The unique map on the CURLY realization sending pair (m, n) to phi[m][n]; NotAPairing unless phi is a pairing.

    ``compute_wedge`` certified that every pairing axiom, a raw CURLY
    relator, dies in the realization. So once phi extends, each axiom's value
    on phi is the image of 1, and the extension is the pairing check.
    """
    if wedge.variant is not WedgeVariant.CURLY:
        raise NotAPairing("pairing extension is defined on the CURLY realization")
    if wedge.base.mul != G.mul:
        raise NotAPairing("wedge realization does not belong to this group")
    try:
        return hom_from_generator_images(wedge, L, phi)
    except (ValidationError, RelatorNotKilled) as exc:
        raise NotAPairing(f"table is not a pairing of {G.label}: {exc}") from exc


def exterior_to_curly_surjection(
    ext: WedgeRealization, cur: WedgeRealization
) -> GroupHom:
    """The map sending each exterior pair to its curly image; total on the EXTERIOR side.

    The CURLY relator set contains the EXTERIOR one, so the curly pair
    table extends to the exterior realization.
    """
    if ext.variant is not WedgeVariant.EXTERIOR or cur.variant is not WedgeVariant.CURLY:
        raise InternalCheckFailed("surjection runs from EXTERIOR onto CURLY")
    if ext.base.mul != cur.base.mul:
        raise InternalCheckFailed("realizations built from different base groups")
    hom = hom_from_generator_images(ext, cur.realization.group, cur.pair_table())
    if len(set(hom.images)) != cur.realization.group.order:
        raise InternalCheckFailed("exterior-to-curly map is not surjective")
    return hom
