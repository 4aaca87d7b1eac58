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

Provided primitives:
  * hnf_from_rows    - canonical triangular basis from a generating set
  * lattice_index    - [Z^k : L] as an exact integer
  * member_residual  - triangular membership reduction
  * snf_mod          - diagonalisation with optional column transforms
  * orth_complement  - {u : <l, u> = 0 mod m for all l in L}
  * quotient_structure - invariants and generators of L2/L1
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
    """
    live = np.arange(R.shape[0])
    for j in range(H.shape[0]):
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
    as in a row-by-row pass.
    """
    out = H.copy()
    for j in range(1, out.shape[0]):
        q = out[:j, j] // out[j, j]
        rows = np.nonzero(q)[0]
        if rows.size:
            out[rows, j:] = (out[rows, j:] - q[rows, None] * out[j, j:]) % m
    return out


def hnf_from_rows(rows: Sequence[np.ndarray] | np.ndarray, k: int, m: int) -> np.ndarray:
    """Triangular basis of <rows> + m*Z^k.

    Rows are first swept in bulk by the triangular reduction, which disposes
    of redundant generators cheaply; rows that stop on a pivot need a pivot
    update and go through hnf_insert, at most 256 between two sweeps. The
    resulting lattice does not depend on processing order, and the returned
    form is canonical.
    """
    H = m * np.eye(k, dtype=np.int64)
    if k == 0:
        return H
    R = np.array(list(rows), dtype=np.int64).reshape(-1, k) % m
    while R.shape[0]:
        _reduce(H, R, m)
        R = R[R.any(axis=1)]
        for row in R[:256]:
            hnf_insert(H, row, m)
        R = R[256:]
    return hnf_canonical(H, m)


def lattice_index(H: np.ndarray) -> int:
    """[Z^k : L], as an exact (possibly huge) integer."""
    out = 1
    for d in np.diagonal(H):
        out *= int(d)
    return out


def member_residual(H: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Reduce v against the basis; an all-zero result means membership."""
    r = np.asarray(v, dtype=np.int64).reshape(1, -1) % m
    _reduce(H, r, m)
    return r[0]


def snf_mod(
    rows: np.ndarray,
    k: int,
    m: int,
    want_v: bool = False,
    want_winv: bool = False,
) -> tuple[list[int], np.ndarray | None, np.ndarray | None]:
    """Diagonalise the lattice <rows> + m*Z^k by row and column operations.

    Returns (diag, V, Winv). diag has length k; entry i is the order of the
    quotient in coordinate i (a divisor of m, with the implicit m*Z^k folded
    in, so a zero physical pivot reads as m). V accumulates the column
    operations; Winv accumulates their inverses, so Winv = V^-1 modulo m.
    No divisibility chain is enforced; see groups.invariant_factors_from_orders.
    """
    A = np.asarray(rows, dtype=np.int64).reshape(-1, k) % m
    R = A.shape[0]
    V = np.eye(k, dtype=np.int64) if want_v else None
    W = np.eye(k, dtype=np.int64) if want_winv else None

    def col_addmul(dst: int, src: int, q: int) -> None:
        A[:, dst] = (A[:, dst] - q * A[:, src]) % m
        if V is not None:
            V[:, dst] = (V[:, dst] - q * V[:, src]) % m
        if W is not None:
            W[src] = (W[src] + q * W[dst]) % m

    def col_combine(t: int, j: int, a: int, b: int) -> None:
        # new col t = u*ct + v*cj ; new col j = (a/g)*cj - (b/g)*ct
        g, u, v = _egcd(a, b)
        ct, cj = A[:, t].copy(), A[:, j].copy()
        A[:, t] = (u * ct + v * cj) % m
        A[:, j] = ((a // g) * cj - (b // g) * ct) % m
        if V is not None:
            vt, vj = V[:, t].copy(), V[:, j].copy()
            V[:, t] = (u * vt + v * vj) % m
            V[:, j] = ((a // g) * vj - (b // g) * vt) % m
        if W is not None:
            wt, wj = W[t].copy(), W[j].copy()
            W[t] = ((a // g) * wt + (b // g) * wj) % m
            W[j] = (-v * wt + u * wj) % m

    def col_swap(t: int, j: int) -> None:
        A[:, [t, j]] = A[:, [j, t]]
        if V is not None:
            V[:, [t, j]] = V[:, [j, t]]
        if W is not None:
            W[[t, j]] = W[[j, t]]

    t = 0
    size = min(R, k)
    while t < size:
        sub = A[t:, t:]
        nzr, nzc = np.nonzero(sub)
        if nzr.size == 0:
            break
        vals = sub[nzr, nzc]
        best = int(vals.min())
        # among equal minimal values keep the row-major first
        pick = int(np.nonzero(vals == best)[0][0])
        i0, j0 = int(nzr[pick]) + t, int(nzc[pick]) + t
        if i0 != t:
            A[[t, i0]] = A[[i0, t]]
        if j0 != t:
            col_swap(t, j0)
        while True:
            # clear column t with row operations; every row with a nonzero
            # entry there is zero left of column t
            for i in np.nonzero(A[:, t])[0]:
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

    diag = []
    for i in range(k):
        d = int(A[i, i]) if i < R else 0
        diag.append(gcd(d, m) if d else m)
    return diag, V, W


def orth_complement(rows: np.ndarray | Sequence[np.ndarray], k: int, m: int) -> np.ndarray:
    """Basis of {u : <l, u> = 0 mod m for every generator l}."""
    if k == 0:
        return np.zeros((0, 0), dtype=np.int64)
    mat = np.asarray(rows, dtype=np.int64).reshape(-1, k)
    diag, V, _ = snf_mod(mat, k, m, want_v=True)
    comp = [(m // diag[i]) * V[:, i] for i in range(k)]
    return hnf_from_rows(comp, k, m)


def quotient_structure(
    sub_H: np.ndarray,
    sup_H: np.ndarray,
    m: int,
    want_generators: bool = False,
) -> tuple[list[int], np.ndarray | None]:
    """Structure of (sup lattice)/(sub lattice), both between m*Z^k and Z^k.

    Returns (orders, gens): orders[i] is the order of the i-th cyclic
    summand (1 allowed, divides m); gens, when requested, holds one vector
    of Z^k per summand whose class generates it. Orders are not chained;
    canonicalise with groups.invariant_factors_from_orders. Raises
    ValidationError when the sub lattice does not lie inside the sup lattice.
    """
    k = sup_H.shape[0]
    if k == 0:
        return [], (np.zeros((0, 0), dtype=np.int64) if want_generators else None)
    # relation lattice: coordinates (against sup) of sub generators, plus the
    # coordinates of anything that lands in m*Z^k.
    R = np.zeros((sub_H.shape[0], 2 * k), dtype=np.int64)
    R[:, :k] = sub_H % m
    _reduce(np.hstack([sup_H, np.eye(k, dtype=np.int64)]), R, m)
    if R[:, :k].any():
        raise ValidationError("sub lattice is not contained in the sup lattice")
    slack = orth_complement(sup_H.T, k, m)  # {c : c @ sup_H = 0 mod m}
    rel = np.vstack([-R[:, k:] % m, slack])
    diag, _, W = snf_mod(rel, k, m, want_winv=want_generators)
    if not want_generators:
        return diag, None
    gens = (W @ sup_H) % m
    return diag, gens


class LatticeSolver:
    """Express vectors as combinations of a fixed generating set, mod m.

    The basis of [gens | I] is built by hnf_insert, so its trailing columns
    record each pivot row as a combination of the generators; solve(v)
    returns one coefficient vector c with v = sum c_i * gen_i modulo
    m*Z^k, or None.
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
        r = np.zeros((1, k + self.t), dtype=np.int64)
        r[0, :k] = np.asarray(v, dtype=np.int64) % m
        _reduce(self.H, r, m)
        if r[0, :k].any():
            return None
        return -r[0, k:] % m
