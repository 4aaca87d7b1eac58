"""Integer lattice calculus modulo m.

Every lattice handled here sits between m*Z^k and Z^k, which makes all row
reductions valid modulo m: adding or removing multiples of m*e_j never
changes the lattice. Lattices are stored as k x k upper-triangular bases
(row Hermite form) whose diagonal entries divide m; entries stay in
[0, m), except diagonals which stay in (0, m]. A basis may carry trailing
columns after its k pivot columns; they ride along through every row
operation, which is how LatticeSolver keeps its coefficients.

All row work goes through three steps:
  * _combine         - clear one row's leading entry against a pivot row
  * hnf_insert       - fold one row into a triangular basis
  * _reduce          - triangular reduction of rows against a basis

Most pivots of a basis here are m, on a row m*e_j that is zero modulo m:
the cocycle lattice of S4 has 24 pivots below m out of 529. A pivot of m
divides no nonzero entry in [0, m), so _reduce and hnf_canonical walk only
the pivots below m, and quotient_structure writes the unit relation rows of
the pivots of m directly.

Provided primitives:
  * hnf_from_rows    - canonical triangular basis from a generating set
  * lattice_index    - [Z^k : L] as an exact integer
  * member_residual  - triangular membership reduction, of one vector or a block
  * snf_mod          - diagonalisation, with the inverse column transform
  * orth_complement  - {u : <l, u> = 0 mod m for all l in L}, off L's triangular basis
  * quotient_structure - invariants and generators of L2/L1, by one diagonalisation
  * LatticeSolver    - express vectors over a generating set, mod m
"""

from __future__ import annotations

from math import gcd
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


def _combine(p: np.ndarray, r: np.ndarray, m: int) -> None:
    """Clear r[0] against the pivot row p, in place; <p, r> is unchanged.

    Both rows start at the pivot column. When p[0] divides r[0], a multiple
    of p is subtracted from r. Otherwise p becomes the egcd combination with
    leading entry gcd(p[0], r[0]) and r the complementary one, leading zero.
    """
    piv, a = int(p[0]), int(r[0])
    if a % piv == 0:
        np.subtract(r, (a // piv) * p, out=r)
        np.remainder(r, m, out=r)
        return
    g, u, v = _egcd(piv, a)
    new_p = (u * p + v * r) % m
    np.multiply(r, piv // g, out=r)
    np.subtract(r, (a // g) * p, out=r)
    np.remainder(r, m, out=r)
    new_p[0] = g  # g in (0, m); avoids a zero diagonal representative
    p[:] = new_p


def hnf_insert(H: np.ndarray, row: np.ndarray, m: int) -> None:
    """Fold one row into the basis H, in place.

    H has k = H.shape[0] pivot rows; columns past the k-th are trailing.
    The scan walks the pivot columns left to right; columns once cleared
    stay cleared because pivot rows are triangular, so the scan pointer
    never backs up.
    """
    k = H.shape[0]
    r = row.astype(np.int64) % m
    j = 0
    while True:
        nz = np.nonzero(r[j:k])[0]
        if nz.size == 0:
            return
        j += int(nz[0])
        _combine(H[j, j:], r[j:], m)
        j += 1


def _reduce(H: np.ndarray, R: np.ndarray, m: int) -> None:
    """Triangular reduction of the rows of R against the basis H, in place.

    R is a 2-D int64 array with entries in [0, m) and as many columns as H.
    Each row subtracts q_j * H[j] (mod m) pivot column by pivot column and
    stops at the first pivot that does not divide its entry; a row that
    ends all-zero lies in the lattice. Trailing columns ride along, so a
    row [v | 0] reduced against [H | I] ends as [r | -q], with
    v = q @ H + r (mod m).

    Only the pivots below m are walked. A pivot of m divides no nonzero
    entry in [0, m), so a row nonzero in the gap columns before the next
    pivot below m stops there with q = 0, and rows zero in every pivot
    column are never touched.
    """
    k = H.shape[0]
    live = np.flatnonzero(R[:, :k].any(axis=1))
    start = 0
    for j in np.flatnonzero(np.diagonal(H) < m):
        if j > start:
            live = live[~R[live, start:j].any(axis=1)]
        start = j + 1
        col = R[live, j]
        hit = np.nonzero(col)[0]
        if hit.size == 0:
            continue
        q, rem = np.divmod(col[hit], H[j, j])
        ok = rem == 0
        rows = live[hit[ok]]
        if rows.size:
            R[rows, j:] = (R[rows, j:] - q[ok, None] * H[j, j:]) % m
        if rows.size < hit.size:
            live = np.delete(live, hit[~ok])


def hnf_canonical(H: np.ndarray, m: int) -> np.ndarray:
    """Reduce above-diagonal entries modulo the pivot below them.

    Column j reduces the rows above it against row j. Only later columns
    change row j, so every row meets the same pivot rows in the same order
    as in a row-by-row pass. Entries lie in [0, m), so a pivot of m
    changes nothing and only the pivots below m are walked.
    """
    out = H.copy()
    for j in np.flatnonzero(np.diagonal(out) < m):
        q = out[:j, j] // out[j, j]
        rows = np.nonzero(q)[0]
        if rows.size:
            out[rows, j:] = (out[rows, j:] - q[rows, None] * out[j, j:]) % m
    return out


def hnf_from_rows(rows: Sequence[np.ndarray] | np.ndarray, k: int, m: int) -> np.ndarray:
    """Triangular basis of <rows> + m*Z^k.

    Rows are first swept in bulk by the triangular reduction, which disposes
    of redundant generators cheaply; rows that stop on a pivot need a pivot
    update and go through hnf_insert, at most 8 between two sweeps. A sweep
    walks only the pivots below m, so it is cheap and frequent sweeps win:
    of the batch sizes 1, 8, 32 and 256, 8 gave the fastest oracle. The
    resulting lattice does not depend on processing order, and the returned
    form is canonical.
    """
    H = m * np.eye(k, dtype=np.int64)
    if k == 0:
        return H
    R = np.asarray(rows, dtype=np.int64).reshape(-1, k) % m
    while R.shape[0]:
        _reduce(H, R, m)
        R = R[R.any(axis=1)]
        for row in R[:8]:
            hnf_insert(H, row, m)
        R = R[8:]
    return hnf_canonical(H, m)


def lattice_index(H: np.ndarray) -> int:
    """[Z^k : L], as an exact (possibly huge) integer."""
    out = 1
    for d in np.diagonal(H):
        out *= int(d)
    return out


def member_residual(H: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Reduce v, one vector or a block of rows, against the basis.

    An all-zero row of the result means that row of v is in the lattice.
    """
    v = np.asarray(v, dtype=np.int64)
    r = v.reshape(-1, v.shape[-1]) % m
    _reduce(H, r, m)
    return r.reshape(v.shape)


def _row_minima(
    A: np.ndarray, rows: np.ndarray, t: int, m: int, rmin: np.ndarray, rcol: np.ndarray
) -> None:
    """Smallest nonzero entry of each listed row over columns t.., and its first column.

    Entries lie in [0, m), so a row with no nonzero entry there reads m.
    Rows go 64 at a time, so the scan never copies the whole block.
    """
    for s in range(0, rows.size, 64):
        chunk = rows[s : s + 64]
        block = A[chunk, t:]
        block[block == 0] = m
        j = block.argmin(axis=1)
        rmin[chunk] = block[np.arange(chunk.size), j]
        rcol[chunk] = j + t


def snf_mod(rows: np.ndarray, k: int, m: int) -> tuple[list[int], np.ndarray]:
    """Diagonalise the lattice <rows> + m*Z^k by row and column operations.

    Returns (diag, W). diag has length k; entry i is the order of the
    quotient in coordinate i (a divisor of m, with the implicit m*Z^k folded
    in, so a zero physical pivot reads as m). W accumulates the inverses of
    the column operations, so the lattice is the row space of diag(diag) @ W
    plus m*Z^k, and W is invertible modulo m. No divisibility chain is
    enforced; see groups.invariant_factors_from_orders.

    Step t pivots on the row-major first smallest nonzero entry of the block
    from (t, t) on. Each row keeps its smallest entry in that block and the
    first column holding it, so np.argmin over the rows finds the pivot.
    Only rows that a step changed are scanned again: rows cleared by row
    operations, the row swapped into place, and rows nonzero in a column
    that a swap or a col_combine touched. Every other row below t was zero
    in column t and is unchanged, so its minimum over the columns after t
    is the one it kept.
    """
    A = np.asarray(rows, dtype=np.int64).reshape(-1, k) % m
    R = A.shape[0]
    W = np.eye(k, dtype=np.int64)
    rmin = np.empty(R, dtype=np.int64)
    rcol = np.empty(R, dtype=np.int64)
    _row_minima(A, np.arange(R), 0, m, rmin, rcol)
    dirty = np.zeros(R, dtype=bool)

    def touch(*cols: int) -> None:
        for c in cols:
            dirty[A[:, c] != 0] = True

    def col_addmul(dst: int, src: int, q: int) -> None:
        # src is column t, nonzero only in row t and in rows col_combine marked
        A[:, dst] = (A[:, dst] - q * A[:, src]) % m
        W[src] = (W[src] + q * W[dst]) % m

    def col_combine(t: int, j: int, a: int, b: int) -> None:
        # new col t = u*ct + v*cj ; new col j = (a/g)*cj - (b/g)*ct
        touch(t, j)
        g, u, v = _egcd(a, b)
        ct, cj = A[:, t].copy(), A[:, j].copy()
        A[:, t] = (u * ct + v * cj) % m
        A[:, j] = ((a // g) * cj - (b // g) * ct) % m
        wt, wj = W[t].copy(), W[j].copy()
        W[t] = ((a // g) * wt + (b // g) * wj) % m
        W[j] = (-v * wt + u * wj) % m

    def col_swap(t: int, j: int) -> None:
        touch(t, j)
        A[:, [t, j]] = A[:, [j, t]]
        W[[t, j]] = W[[j, t]]

    t = 0
    size = min(R, k)
    while t < size:
        i0 = t + int(np.argmin(rmin[t:]))
        if rmin[i0] == m:
            break
        j0 = int(rcol[i0])
        if i0 != t:
            A[[t, i0]] = A[[i0, t]]
            dirty[i0] = True
        if j0 != t:
            col_swap(t, j0)
        while True:
            # clear column t with row operations; every row with a nonzero
            # entry there is zero left of column t
            hit = np.nonzero(A[:, t])[0]
            dirty[hit] = True
            for i in hit:
                if i != t:
                    _combine(A[t, t:], A[i, t:], m)
            # clear row t with column operations
            rowmask = [int(j) for j in np.nonzero(A[t])[0] if j != t]
            if not rowmask:
                if np.count_nonzero(A[:, t]) == 1:
                    break
                continue
            for j in rowmask:
                a, b = int(A[t, t]), int(A[t, j])
                if b == 0:
                    continue
                if b % a == 0:
                    col_addmul(j, t, b // a)
                else:
                    col_combine(t, j, a, b)
        t += 1
        if t < size:
            _row_minima(A, t + np.flatnonzero(dirty[t:]), t, m, rmin, rcol)
            dirty[:] = False

    diag = []
    for i in range(k):
        d = int(A[i, i]) if i < R else 0
        diag.append(gcd(d, m) if d else m)
    return diag, W


def _relations(H: np.ndarray, m: int) -> np.ndarray:
    """Rows spanning {c : c @ H = 0 mod m} modulo m*Z^k.

    H is a triangular basis with diagonal entries d_i dividing m, in which
    every lattice vector that is zero left of column j reduces against rows
    j.. (every hnf_from_rows output). Then (m/d_i)*H[i] is zero up to column
    i, so one reduction against [H | I] writes it as q_i @ H, and the rows
    (m/d_i)*e_i - q_i span the relations. Raises ValidationError when a row
    does not reduce to zero, which shows H lacks that property.
    """
    k = H.shape[0]
    scale = m // np.diagonal(H)
    R = np.zeros((k, 2 * k), dtype=np.int64)
    R[:, :k] = (scale[:, None] * H) % m
    _reduce(np.hstack([H, np.eye(k, dtype=np.int64)]), R, m)
    if R[:, :k].any():
        raise ValidationError("basis is not in Hermite form")
    return (R[:, k:] + np.diag(scale)) % m


def orth_complement(rows: np.ndarray | Sequence[np.ndarray], k: int, m: int) -> np.ndarray:
    """Basis of {u : <l, u> = 0 mod m for every generator l}.

    With H the basis of <rows>, these are the relations c @ H.T = 0.
    Reversing both axes of H.T makes it triangular again with the same
    reduction property, since its row space has the size of H's.
    """
    H = hnf_from_rows(rows, k, m)
    comp = _relations(H.T[::-1, ::-1], m)[:, ::-1]
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
    """
    k = sup_H.shape[0]
    if k == 0:
        return [], np.zeros((0, 0), dtype=np.int64)
    # relation lattice: coordinates (against sup) of sub generators, plus the
    # coordinates of anything that lands in m*Z^k (the slack). In a canonical
    # basis a pivot of m sits on the row m*e_j, whose slack row is e_j, and
    # the other slack rows are zero in those columns, so the unit rows are
    # written in after the others are reduced.
    unit = np.flatnonzero(np.diagonal(sup_H) == m)
    if (sup_H[unit] % m).any():
        raise ValidationError("basis is not in Hermite form")
    R = np.zeros((sub_H.shape[0], 2 * k), dtype=np.int64)
    R[:, :k] = sub_H % m
    _reduce(np.hstack([sup_H, np.eye(k, dtype=np.int64)]), R, m)
    if R[:, :k].any():
        raise ValidationError("sub lattice is not contained in the sup lattice")
    slack = hnf_from_rows(np.delete(_relations(sup_H, m), unit, axis=0), k, m)
    slack[unit, unit] = 1
    rel = np.vstack([-R[:, k:] % m, slack])
    diag, W = snf_mod(rel, k, m)
    keep = [i for i, d in enumerate(diag) if d > 1]
    return [diag[i] for i in keep], (W[keep] @ sup_H) % m


class LatticeSolver:
    """Express vectors as combinations of a fixed generating set, mod m.

    The basis of [gens | I] is built by hnf_insert, so its trailing columns
    record each pivot row as a combination of the generators. solve(v)
    takes one vector or a block of rows, and returns for each row one
    coefficient vector c with v = sum c_i * gen_i modulo m*Z^k, or None
    when some row is outside the span.
    """

    def __init__(self, gens: np.ndarray, k: int, m: int):
        self.k = k
        self.m = m
        self.t = gens.shape[0] if gens.size else 0
        self.H = np.zeros((k, k + self.t), dtype=np.int64)
        self.H[:, :k] = m * np.eye(k, dtype=np.int64)
        gens = np.asarray(gens, dtype=np.int64).reshape(self.t, k)
        for row in np.hstack([gens, np.eye(self.t, dtype=np.int64)]):
            hnf_insert(self.H, row, m)

    def solve(self, v: np.ndarray) -> np.ndarray | None:
        m, k = self.m, self.k
        v = np.asarray(v, dtype=np.int64)
        r = np.zeros((v.size // k, k + self.t), dtype=np.int64)
        r[:, :k] = v.reshape(-1, k) % m
        _reduce(self.H, r, m)
        if r[:, :k].any():
            return None
        return (-r[:, k:] % m).reshape(v.shape[:-1] + (self.t,))
