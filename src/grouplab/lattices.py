"""Integer lattice calculus modulo m.

Every lattice handled here sits between m*Z^k and Z^k, which makes all row
reductions valid modulo m: adding or removing multiples of m*e_j never
changes the lattice. A lattice is stored as the rows of its row Hermite
form whose pivot is below m, in pivot order, as one int64 array of k
columns. A row's pivot column is its first nonzero entry, and its pivot
divides m; entries stay in [0, m). Every other column j carries the row
m*e_j of the Hermite form, zero modulo m, which stays implicit: the
cocycle lattice of S4 keeps 24 rows of its 529, that of B64 (order 64)
65 of 3,969 at m = 2. A pivot of m divides no nonzero entry in [0, m), so
no reduction ever uses an implicit row. A basis may carry trailing
columns after its k pivot columns; they ride along through every row
operation, which is how LatticeSolver keeps its coefficients.

All row and column work goes through three steps:
  * _combine         - clear one entry against the pivot: of a row, or of a column in snf_mod
  * hnf_insert       - fold one row into a basis
  * _reduce          - triangular reduction of rows against a basis

quotient_structure diagonalises the relations of L2/L1 with snf_mod: each
implicit row of the sup basis contributes the unit relation row e_j, passed
as a (row, j) pair, and the rest is one small dense block (at most 26 x 24
on the benchmark's oracle groups, where b0_lower_bound takes 66 quotients,
against 1,058 x 529 dense). Rows and columns sit where the dense k x k run
put them, and snf_mod tracks where that run would have moved every row and
column, so it makes the same pivots. A unit row outranks an exhausted
block, so every unit row is pivoted, with diagonal 1, before the run stops:
a diagonal entry above 1 sits at a block column, and W, returned on the
block's columns alone, gives the basis tables byte for byte.

Provided primitives:
  * hnf_from_rows    - canonical basis from a generating set
  * lattice_index    - [Z^k : L] as an exact integer
  * member_residual  - triangular membership reduction, of one vector or a block
  * snf_mod          - diagonalise a block plus unit rows; W on the block's columns
  * orth_complement  - {u : <l, u> = 0 mod m for all l in L}, off L's transposed basis
  * quotient_structure - invariants and generators of L2/L1, by one diagonalisation
  * LatticeSolver    - express vectors over a generating set, mod m
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, prod
from typing import Sequence

import numpy as np

from .errors import ValidationError


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _combine(p: np.ndarray, r: np.ndarray, m: int, c: int = 0) -> tuple[int, int, int, int]:
    """Clear r[c] against the pivot row p, in place; <p, r> is unchanged.

    Column c is the pivot column. When p[c] divides r[c], a multiple of p is
    subtracted from r. Otherwise p becomes the egcd combination with entry
    gcd(p[c], r[c]) at c and r the complementary one, zero at c. Returns the
    determinant-1 transform (x, y, z, w) applied: p <- x*p + y*r and
    r <- z*p + w*r, modulo m. p and r may be column views, as in snf_mod.
    """
    piv, a = int(p[c]), int(r[c])
    if a % piv == 0:
        np.subtract(r, (a // piv) * p, out=r)
        np.remainder(r, m, out=r)
        return 1, 0, -(a // piv), 1
    g, u, v = _egcd(piv, a)
    new_p = (u * p + v * r) % m
    np.multiply(r, piv // g, out=r)
    np.subtract(r, (a // g) * p, out=r)
    np.remainder(r, m, out=r)
    new_p[c] = g  # g in (0, m); avoids a zero diagonal representative
    p[:] = new_p
    return u, v, -(a // g), piv // g


def _pivots(H: np.ndarray) -> np.ndarray:
    """The pivot column of each row of a basis: its first nonzero entry."""
    return (H != 0).argmax(axis=1) if H.size else np.zeros(len(H), dtype=np.intp)


def hnf_insert(H: np.ndarray, row: np.ndarray, k: int, m: int) -> np.ndarray:
    """Fold one row into the basis H, and return the new basis.

    Columns past the k-th are trailing. The scan walks the pivot columns
    left to right; columns once cleared stay cleared because pivot rows are
    triangular, so the scan pointer never backs up. At a column without a
    row, the implicit row m*e_j is put in and combined, which gives it a
    pivot below m.
    """
    piv = _pivots(H).tolist()
    r = row.astype(np.int64) % m
    j = 0
    while True:
        nz = np.nonzero(r[j:k])[0]
        if nz.size == 0:
            return H
        j += int(nz[0])
        n = bisect_left(piv, j)
        if n == len(piv) or piv[n] != j:
            H = np.concatenate([H[:n], m * (np.arange(r.size) == j)[None], H[n:]])
            piv.insert(n, j)
        _combine(H[n, j:], r[j:], m)
        j += 1


def _reduce(H: np.ndarray, R: np.ndarray, m: int, Q: np.ndarray | None = None) -> None:
    """Triangular reduction of the rows of R against the basis H, in place.

    R is a 2-D int64 array with entries in [0, m) and as many columns as H.
    Each row subtracts q_n * H[n] (mod m) row by row of H, in pivot order,
    and stops at the first pivot that does not divide its entry; a row that
    ends all-zero lies in the lattice. Trailing columns ride along. When Q
    is given, Q[i, n] receives row i's quotient at the row n of H, so that
    v = q @ H + r (mod m).

    A row nonzero in a column without a row of H stops there, at the
    implicit pivot m, with q = 0, so it leaves the walk when it reaches
    that column.
    """
    live = np.flatnonzero(R.any(axis=1))
    start = 0
    for n, j in enumerate(_pivots(H).tolist()):
        if j > start:
            live = live[~R[live, start:j].any(axis=1)]
        start = j + 1
        col = R[live, j]
        hit = np.nonzero(col)[0]
        if hit.size == 0:
            continue
        q, rem = np.divmod(col[hit], H[n, j])
        ok = rem == 0
        rows = live[hit[ok]]
        if rows.size:
            R[rows, j:] = (R[rows, j:] - q[ok, None] * H[n, j:]) % m
            if Q is not None:
                Q[rows, n] = q[ok]
        if rows.size < hit.size:
            live = np.delete(live, hit[~ok])


def hnf_canonical(H: np.ndarray, m: int) -> np.ndarray:
    """Reduce the entries above each pivot modulo that pivot.

    Pivot column j reduces the rows above it against its row. Only later
    columns change that row, so every row meets the same pivot rows in the
    same order as in a row-by-row pass.
    """
    out = H.copy()
    for n, j in enumerate(_pivots(out).tolist()):
        q = out[:n, j] // out[n, j]
        rows = np.nonzero(q)[0]
        if rows.size:
            out[rows, j:] = (out[rows, j:] - q[rows, None] * out[n, j:]) % m
    return out


def hnf_from_rows(rows: Sequence[np.ndarray] | np.ndarray, k: int, m: int) -> np.ndarray:
    """Canonical basis of <rows> + m*Z^k.

    rows is a 2-D array, whose columns past the k-th are trailing, or a
    sequence of rows of k entries. Rows are first swept in bulk by the
    triangular reduction, which disposes of redundant generators cheaply;
    rows that stop on a pivot need a pivot update and go through
    hnf_insert, at most 8 between two sweeps. Frequent sweeps win: of the
    batch sizes 1, 8, 32 and 256, 8 gave the fastest oracle. The resulting
    lattice does not depend on processing order, and the returned form is
    canonical, up to the trailing columns.
    """
    R = np.asarray(rows, dtype=np.int64)
    R = (R if R.ndim == 2 else R.reshape(-1, k)) % m
    H = np.zeros((0, R.shape[1]), dtype=np.int64)
    while R.shape[0]:
        _reduce(H, R, m)
        R = R[R[:, :k].any(axis=1)]
        for row in R[:8]:
            H = hnf_insert(H, row, k, m)
        R = R[8:]
    return hnf_canonical(H, m)


def lattice_index(H: np.ndarray, m: int) -> int:
    """[Z^k : L], as an exact (possibly huge) integer, for a basis of k columns."""
    return prod(H[np.arange(len(H)), _pivots(H)].tolist(), start=m ** (H.shape[1] - len(H)))


def member_residual(H: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Reduce v, one vector or a block of rows, against the basis.

    An all-zero row of the result means that row of v is in the lattice.
    """
    v = np.asarray(v, dtype=np.int64)
    r = v.reshape(-1, v.shape[-1]) % m
    _reduce(H, r, m)
    return r.reshape(v.shape)


def snf_mod(
    block: np.ndarray, rows: np.ndarray, cols: np.ndarray, unit: np.ndarray, k: int, m: int
) -> tuple[list[int], np.ndarray]:
    """Diagonalise a lattice <rows> + m*Z^k by row and column operations.

    The rows are block, at the row positions rows and in the columns cols,
    and a row e_c at position r for each pair (r, c) of unit, with no block
    row nonzero in column c. Returns (diag, W). diag has length k; entry t
    is the order of the quotient in coordinate t (a divisor of m, with the
    implicit m*Z^k folded in, so a zero physical pivot reads as m). The
    inverses of the column operations make a k x k transform T, invertible
    modulo m, such that the lattice is the row space of diag(diag) @ T plus
    m*Z^k. W, k x len(cols), is T on the columns cols: row t of T is e_c
    where a unit column c ends at position t, and zero off cols elsewhere.
    No divisibility chain is enforced; see groups.invariant_factors_from_orders.

    Step t pivots on the row-major first smallest nonzero entry of the
    submatrix from (t, t) on, after swapping that entry's row and column
    into position t. A unit row needs nothing more, and it stays a unit row
    alone in its column until it is pivoted: a row operation touches only
    rows nonzero in the pivot column, and a column operation only columns
    that the pivot row touches. So unit rows are kept as one ascending list
    of positions, the positions of all rows and columns are tracked in
    index lists, and row and column operations, both by _combine, run on
    the dense block alone, in position order. That reproduces the dense run
    step for step.

    A unit row never moves before its own pivot: while one sits at position
    t, every live block row sits further down, so the key (1, t) wins and
    step t pivots it in place, and no pivot swap displaces a unit row. So
    units only ever loses its head. Clearing ends once the pivot row has no
    other entry, as the row operations leave the gcd, nonzero, at (b, s)
    and zeros in the rest of column s.
    """
    B = block % m
    brow, slot = rows.tolist(), cols.tolist()
    lone = dict(unit.tolist())  # unit row -> its column
    units = sorted(lone)  # positions of the unit rows not yet pivoted
    R = 1 + max([*brow, *lone], default=-1)  # every later row is zero, so never a pivot
    pos, at = list(range(R)), list(range(R))  # row -> position, position -> row
    cpos, cat = list(range(k)), list(range(k))  # the same for columns
    W = np.eye(len(slot), dtype=np.int64)
    live = list(range(len(brow)))
    bmin = np.where(B == 0, m, B).min(axis=1, initial=m).tolist()

    def swap(t: int, p: int, q: int) -> None:
        # row positions t and p, column positions t and q
        x, y = at[t], at[p]
        at[t], at[p], pos[x], pos[y] = y, x, p, t
        a, c = cat[t], cat[q]
        cat[t], cat[q], cpos[a], cpos[c] = c, a, q, t

    def clear(b: int, s: int) -> None:
        # clear column s but for row b with row operations and row b but
        # for column s with column operations, in position order
        while True:
            for h in sorted(np.flatnonzero(B[:, s]).tolist(), key=lambda h: pos[brow[h]]):
                if h != b:
                    _combine(B[b], B[h], m, s)
            others = sorted((j for j in np.flatnonzero(B[b]).tolist() if j != s), key=lambda j: cpos[slot[j]])
            if not others:
                return
            for j in others:
                x, y, z, w = _combine(B[:, s], B[:, j], m, b)
                W[s], W[j] = (w * W[s] - z * W[j]) % m, (x * W[j] - y * W[s]) % m

    def key(b: int) -> tuple[int, int]:
        # a block row's smallest entry and its position
        return bmin[b], pos[brow[b]]

    diag = [m] * k
    for t in range(min(R, k)):
        b = min(live, key=key, default=None)
        if units and (b is None or key(b) > (1, units[0])):
            p = units.pop(0)
            swap(t, p, cpos[lone[at[p]]])
            diag[t] = 1
            continue
        if b is None or bmin[b] == m:
            break
        s = min(np.flatnonzero(B[b] == bmin[b]).tolist(), key=lambda j: cpos[slot[j]])
        swap(t, pos[brow[b]], cpos[slot[s]])
        clear(b, s)
        diag[t] = gcd(int(B[b, s]), m)
        live.remove(b)
        bmin = np.where(B == 0, m, B).min(axis=1, initial=m).tolist()

    out = np.zeros((k, len(slot)), dtype=np.int64)
    out[np.array(cpos)[cols]] = W
    return diag, out


def _relations(H: np.ndarray, m: int) -> np.ndarray:
    """Rows spanning {c : c @ H = 0 mod m} modulo m*Z^r, for the r rows of H.

    Row i of H has its pivot d_i, a divisor of m, at its first nonzero
    column, and its rows with d_i < m form a basis in which every lattice
    vector that is zero left of column j reduces against the rows with
    pivot from j on (every hnf_from_rows output, and the reversed transpose
    orth_complement builds, whose rows with d_i = m are not m*e_j). Then
    (m/d_i)*H[i] is zero up to its pivot and reduces to q_i @ H, with q_i
    nonzero only at the rows with pivot below m, and the rows
    (m/d_i)*e_i - q_i span the relations. Raises ValidationError when a row
    does not reduce to zero, which shows H lacks that property.
    """
    d = H[np.arange(H.shape[0]), _pivots(H)]
    below = np.flatnonzero(d < m)
    R = ((m // d)[:, None] * H) % m
    Q = np.zeros((H.shape[0], below.size), dtype=np.int64)
    _reduce(H[below], R, m, Q)
    if R.any():
        raise ValidationError("basis is not in Hermite form")
    rel = np.diag(m // d)
    rel[:, below] -= Q
    return rel % m


def orth_complement(rows: np.ndarray | Sequence[np.ndarray], k: int, m: int) -> np.ndarray:
    """Basis of {u : <l, u> = 0 mod m for every generator l}.

    With D the k x k Hermite form of <rows>, these are the relations
    c @ D.T = 0. Reversing both axes of D.T makes it triangular again with
    the same reduction property, since its row space has the size of D's.
    k counts edge unknowns or basis classes here (189 and 5 on B64), so D
    is rebuilt from the basis and its implicit rows.
    """
    D = m * np.eye(k, dtype=np.int64)
    H = hnf_from_rows(rows, k, m)
    D[_pivots(H)] = H
    comp = _relations(D.T[::-1, ::-1], m)[:, ::-1]
    return hnf_from_rows(comp, k, m)


def quotient_structure(
    sub_H: np.ndarray, sup_H: np.ndarray, m: int
) -> tuple[list[int], np.ndarray]:
    """Structure of (sup lattice)/(sub lattice), both between m*Z^k and Z^k.

    Returns (orders, gens): orders[i] > 1 is the order of the i-th
    nontrivial cyclic summand (a divisor of m), and gens[i] a vector of Z^k
    whose class generates it. Orders are not chained; canonicalise with
    groups.invariant_factors_from_orders. Raises ValidationError when the
    sub lattice does not lie inside the sup lattice.

    The relation lattice is diagonalised: the coordinates (against sup) of
    the sub generators, then one slack row per column for the coordinates
    of what lands in m*Z^k, each row at the position of its pivot in the
    dense k x k forms. Coordinates live on the pivots J of sup. The slack
    row of an implicit row m*e_j of sup is the unit row e_j; the dense
    block holds the rows of sub_H, and a basis of the relations of the rows
    of sup_H on the columns J.
    """
    k = sup_H.shape[1]
    if k == 0:
        return [], np.zeros((0, 0), dtype=np.int64)
    J = _pivots(sup_H)
    unit = np.flatnonzero(np.bincount(J, minlength=k) == 0)
    R = sub_H % m
    Q = np.zeros((R.shape[0], J.size), dtype=np.int64)
    _reduce(sup_H, R, m, Q)
    if R.any():
        raise ValidationError("sub lattice is not contained in the sup lattice")
    slack = hnf_from_rows(_relations(sup_H, m), J.size, m)
    rows = np.concatenate([_pivots(sub_H), k + J[_pivots(slack)]])
    diag, W = snf_mod(np.vstack([Q, slack]), rows, J, np.column_stack([k + unit, unit]), k, m)
    keep = [i for i, d in enumerate(diag) if d > 1]
    return [diag[i] for i in keep], (W[keep] @ sup_H) % m


class LatticeSolver:
    """Express vectors as combinations of a fixed generating set, mod m.

    The basis of [gens | I] comes from hnf_from_rows, so its trailing
    columns record each basis row as a combination of the generators.
    solve(v) takes one vector or a block of rows, and returns for each row
    one coefficient vector c with v = sum c_i * gen_i modulo m*Z^k, or None
    when some row is outside the span.
    """

    def __init__(self, gens: np.ndarray, k: int, m: int):
        self.k, self.m = k, m
        self.t = gens.shape[0] if gens.size else 0
        gens = np.asarray(gens, dtype=np.int64).reshape(self.t, k)
        self.H = hnf_from_rows(np.hstack([gens, np.eye(self.t, dtype=np.int64)]), k, m)

    def solve(self, v: np.ndarray) -> np.ndarray | None:
        m, k = self.m, self.k
        v = np.asarray(v, dtype=np.int64)
        r = np.zeros((v.size // k, k + self.t), dtype=np.int64)
        r[:, :k] = v.reshape(-1, k) % m
        _reduce(self.H, r, m)
        if r[:, :k].any():
            return None
        return (-r[:, k:] % m).reshape(v.shape[:-1] + (self.t,))
