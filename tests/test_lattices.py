"""Mod-m lattice primitives against exhaustive enumeration."""

import itertools
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest

from grouplab import cohomology, lattices
from grouplab.catalog import builtin
from grouplab.errors import ValidationError
from grouplab.groups import Subgroup, abelian_subgroups, invariant_factors_from_orders
from grouplab.lattices import (
    LatticeSolver,
    _combine,
    _egcd,
    _reduce,
    _relations,
    hnf_canonical,
    hnf_from_rows,
    hnf_insert,
    lattice_index,
    member_residual,
    orth_complement,
    quotient_structure,
    snf_mod,
)


def dense_snf(rows, k, m):
    """snf_mod of a dense matrix, passed as a block on every row and column with no unit rows."""
    A = np.asarray(rows, dtype=np.int64).reshape(-1, k)
    return snf_mod(A, np.arange(len(A)), np.arange(k), np.zeros((0, 2), dtype=np.int64), k, m)


def brute_span(rows, k, m):
    span = {tuple([0] * k)}
    frontier = [tuple([0] * k)]
    gens = [tuple(int(x) % m for x in r) for r in rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            new = tuple((a + b) % m for a, b in zip(cur, g))
            if new not in span:
                span.add(new)
                frontier.append(new)
    return span


def brute_complement(rows, k, m):
    return {
        u
        for u in itertools.product(range(m), repeat=k)
        if all(sum(a * b for a, b in zip(u, r)) % m == 0 for r in rows)
    }


def first_nonzero(H):
    """The pivot column of each row of a basis: its first nonzero entry."""
    return [int(np.flatnonzero(row)[0]) for row in H]


def densify(H, k, m):
    """The k x k Hermite form of a basis: its rows at their pivots and m*e_j elsewhere, trailing columns kept."""
    D = np.zeros((k, H.shape[1]), dtype=np.int64)
    D[:, :k] = m * np.eye(k, dtype=np.int64)
    D[first_nonzero(H[:, :k])] = H
    return D


def compact(D, m):
    """The rows of a k x k Hermite form with diagonal below m: the basis lattices.py keeps."""
    return D[np.diagonal(D) < m]


def random_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 3)
        m = rng.choice([2, 3, 4, 6, 8, 12])
        rows = [[rng.randrange(m) for _ in range(k)] for _ in range(rng.randint(0, 3))]
        yield k, m, rows


@pytest.mark.parametrize("case", list(random_cases(60, seed=7)))
def test_hnf_membership_and_index(case):
    k, m, rows = case
    arr = np.array(rows, dtype=np.int64).reshape(-1, k)
    H = hnf_from_rows(arr, k, m)
    assert np.array_equal(H, compact(dense_hnf_from_rows(arr, k, m), m))
    span = brute_span(rows, k, m)
    assert m**k // lattice_index(H, m) == len(span)
    for v in itertools.product(range(m), repeat=k):
        assert (not member_residual(H, np.array(v), m).any()) == (v in span)


@pytest.mark.parametrize("case", list(random_cases(60, seed=21)))
def test_orth_complement(case):
    k, m, rows = case
    arr = np.array(rows, dtype=np.int64).reshape(-1, k)
    C = orth_complement(arr, k, m)
    assert brute_span(list(C), k, m) == brute_complement(rows, k, m)


@pytest.mark.parametrize("case", list(random_cases(40, seed=33)))
def test_solver_round_trip(case):
    k, m, rows = case
    if not rows:
        rows = [[0] * k]
    gens = np.array(rows, dtype=np.int64).reshape(-1, k)
    solver = LatticeSolver(gens, k, m)
    span = brute_span(rows, k, m)
    for v in itertools.product(range(m), repeat=k):
        c = solver.solve(np.array(v))
        assert (v in span) == (c is not None)
        if c is not None:
            assert tuple(int(x) % m for x in (c @ gens) % m) == v


@pytest.mark.parametrize("case", list(random_cases(40, seed=55)))
def test_quotient_structure(case):
    k, m, rows = case
    sup_H = hnf_from_rows(np.array(rows, dtype=np.int64).reshape(-1, k), k, m)
    rng = random.Random(hash(str(case)) & 0xFFFF)
    sub_rows = []
    for r in densify(sup_H, k, m):
        c = rng.choice([1, 2, m])
        sub_rows.append([(c * x) % m for x in r])
    sub_H = hnf_from_rows(np.array(sub_rows, dtype=np.int64), k, m)
    assert not any(member_residual(sup_H, np.array(r), m).any() for r in sub_H)
    diag, gens = quotient_structure(sub_H, sup_H, m)
    order = 1
    for d in diag:
        order *= d
    sup_span = brute_span(list(sup_H), k, m)
    sub_span = brute_span(list(sub_H), k, m)
    assert order == len(sup_span) // len(sub_span)
    for i, d in enumerate(diag):
        g = gens[i]
        assert not member_residual(sup_H, g, m).any()
        assert not member_residual(sub_H, (d * g) % m, m).any()


def test_quotient_structure_rejects_non_nested_pair():
    sup_H = hnf_from_rows(np.array([[2, 0]]), 2, 4)  # 2Z x 4Z does not contain Z x 4Z
    sub_H = hnf_from_rows(np.array([[1, 0]]), 2, 4)
    with pytest.raises(ValidationError, match="not contained"):
        quotient_structure(sub_H, sup_H, 4)


def loop_hnf_canonical(H, m):
    """Reference: reduce each row, left to right, against the rows below it."""
    k = H.shape[0]
    out = H.copy()
    for i in range(k):
        for j in range(i + 1, k):
            q = int(out[i, j]) // int(out[j, j])
            if q:
                out[i] = (out[i] - q * out[j]) % m
    return out


def loop_reduce(H, v, m):
    """Reference: clear v pivot by pivot, stopping where a pivot does not divide."""
    r = v % m
    q = np.zeros_like(r)
    for j in range(H.shape[0]):
        if r[j] == 0:
            continue
        if r[j] % H[j, j]:
            break
        q[j] = r[j] // H[j, j]
        r = (r - q[j] * H[j]) % m
    return q, r


def wider_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 8)
        m = rng.choice([2, 4, 6, 8, 12, 24, 36])
        density = rng.random()
        rows = [
            [rng.randrange(m) if rng.random() < density else 0 for _ in range(k)]
            for _ in range(rng.randint(0, 10))
        ]
        yield k, m, np.array(rows, dtype=np.int64).reshape(len(rows), k)


@pytest.mark.parametrize("case", list(wider_cases(40, seed=91)))
def test_hnf_is_canonical(case):
    k, m, rows = case
    H = hnf_from_rows(rows, k, m)
    rng = random.Random(k * 1000 + m)
    perm = list(range(rows.shape[0]))
    rng.shuffle(perm)
    assert np.array_equal(hnf_from_rows(rows[perm], k, m), H)
    assert np.array_equal(hnf_from_rows(np.vstack([rows, rows[::-1]]), k, m), H)
    D = densify(H, k, m)
    assert np.array_equal(D, np.triu(D))
    for j in range(k):
        assert 0 < D[j, j] <= m and m % D[j, j] == 0
        assert all(0 <= D[i, j] < D[j, j] for i in range(j))
    raw = np.zeros((0, k), dtype=np.int64)
    for row in rows:
        raw = hnf_insert(raw, row, k, m)
    assert np.array_equal(hnf_canonical(raw, m), compact(loop_hnf_canonical(densify(raw, k, m), m), m))
    assert np.array_equal(hnf_canonical(raw, m), H)


@pytest.mark.parametrize("case", list(wider_cases(40, seed=92)))
def test_reduction_splits_vectors(case):
    k, m, rows = case
    H = hnf_from_rows(rows, k, m)
    rng = random.Random(k * 1000 + m)
    members = [[rng.randrange(m) for _ in rows] for _ in range(10)]
    vs = np.vstack([
        (np.array(members, dtype=np.int64).reshape(10, len(rows)) @ rows) % m,
        np.array([[rng.randrange(m) for _ in range(k)] for _ in range(10)], dtype=np.int64),
    ])
    p = H.shape[0]
    R = np.hstack([vs, np.zeros((len(vs), p), dtype=np.int64)])
    _reduce(np.hstack([H, np.eye(p, dtype=np.int64)]), R, m)
    r, q = R[:, :k], -R[:, k:] % m
    assert not ((q @ H + r - vs) % m).any()
    for v, quot, res in zip(vs, q, r):
        ref_q, ref_r = loop_reduce(densify(H, k, m), v, m)
        dense_q = np.zeros(k, dtype=np.int64)
        dense_q[first_nonzero(H)] = quot
        assert np.array_equal(dense_q, ref_q) and np.array_equal(res, ref_r)
        assert np.array_equal(member_residual(H, v, m), res)
    assert np.array_equal(member_residual(H, vs, m), r)


@pytest.mark.parametrize("case", list(wider_cases(40, seed=93)))
def test_snf_transforms(case):
    k, m, rows = case
    diag, W = dense_snf(rows, k, m)
    assert lattice_index(hnf_from_rows(W, k, m), m) == 1
    # the lattice is rowspace(D @ W) + m*Z^k, which pins W down
    rebuilt = (np.array(diag)[:, None] * W) % m
    assert np.array_equal(hnf_from_rows(rebuilt, k, m), hnf_from_rows(rows, k, m))


@pytest.mark.parametrize("case", list(wider_cases(40, seed=95)))
def test_relations_of_a_triangular_basis(case):
    k, m, rows = case
    H = hnf_from_rows(rows, k, m)
    D = densify(H, k, m)
    rel = hnf_from_rows(_relations(D, m), k, m)
    assert not ((rel @ D) % m).any()
    # |{c : c @ D = 0}| = [Z^k : L], so the relation lattice has index m^k / [Z^k : L]
    assert lattice_index(rel, m) * lattice_index(H, m) == m**k
    # the relations of the p rows of H: the image of c -> c @ H has m^k / [Z^k : L]
    # members, so the relation lattice in Z^p has the same index
    p = H.shape[0]
    rel = hnf_from_rows(_relations(H, m), p, m)
    assert not ((rel @ H) % m).any()
    assert lattice_index(rel, m) * lattice_index(H, m) == m**k
    comp = orth_complement(rows, k, m)
    assert not ((rows @ comp.T) % m).any()
    assert lattice_index(comp, m) * lattice_index(H, m) == m**k


def dense_reduce(H, R, m):
    """Reference: _reduce as it was when it stepped through every pivot column."""
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


def dense_hnf_canonical(H, m):
    """Reference: hnf_canonical as it was when it stepped through every pivot column."""
    out = H.copy()
    for j in range(1, out.shape[0]):
        q = out[:j, j] // out[j, j]
        rows = np.nonzero(q)[0]
        if rows.size:
            out[rows, j:] = (out[rows, j:] - q[rows, None] * out[j, j:]) % m
    return out


def dense_hnf_insert(H, row, m):
    """Reference: hnf_insert as it was on a k x k basis, in place; columns past the k-th are trailing."""
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


def dense_hnf_from_rows(rows, k, m):
    """Reference: hnf_from_rows on k x k bases and the dense kernels, 256 insertions between sweeps.

    rows may carry trailing columns, which ride along as in LatticeSolver.
    """
    R = np.asarray(rows, dtype=np.int64)
    R = R.reshape(-1, R.shape[1] if R.ndim == 2 else k) % m
    H = np.zeros((k, R.shape[1]), dtype=np.int64)
    H[:, :k] = m * np.eye(k, dtype=np.int64)
    while R.shape[0]:
        dense_reduce(H, R, m)
        R = R[R[:, :k].any(axis=1)]
        for row in R[:256]:
            dense_hnf_insert(H, row, m)
        R = R[256:]
    return dense_hnf_canonical(H, m)


class InsertOnlySolver:
    """Reference: LatticeSolver as it was, with [mI | 0] folding in each row of [gens | I] by dense_hnf_insert."""

    def __init__(self, gens, k, m):
        self.k, self.m, self.t = k, m, len(gens)
        self.H = np.zeros((k, k + self.t), dtype=np.int64)
        self.H[:, :k] = m * np.eye(k, dtype=np.int64)
        for row in np.hstack([gens, np.eye(self.t, dtype=np.int64)]):
            dense_hnf_insert(self.H, row, m)

    def solve(self, v):
        k = self.k
        r = np.zeros((len(v), k + self.t), dtype=np.int64)
        r[:, :k] = v % self.m
        dense_reduce(self.H, r, self.m)
        if r[:, :k].any():
            return None
        return -r[:, k:] % self.m


def dense_quotient_relations(sub_H, sup_H, m):
    """Reference: the matrix quotient_structure diagonalised when every slack row was inserted."""
    k = sup_H.shape[0]
    I = np.eye(k, dtype=np.int64)
    R = np.zeros((sub_H.shape[0], 2 * k), dtype=np.int64)
    R[:, :k] = sub_H % m
    dense_reduce(np.hstack([sup_H, I]), R, m)
    assert not R[:, :k].any()
    scale = m // np.diagonal(sup_H)
    S = np.zeros((k, 2 * k), dtype=np.int64)
    S[:, :k] = (scale[:, None] * sup_H) % m
    dense_reduce(np.hstack([sup_H, I]), S, m)
    assert not S[:, :k].any()
    slack = dense_hnf_from_rows((S[:, k:] + np.diag(scale)) % m, k, m)
    return np.vstack([-R[:, k:] % m, slack])


def dense_row_minima(A, rows, t, m, rmin, rcol):
    """Reference: the row scan of dense_snf_mod."""
    for s in range(0, rows.size, 64):
        chunk = rows[s : s + 64]
        block = A[chunk, t:]
        block[block == 0] = m
        j = block.argmin(axis=1)
        rmin[chunk] = block[np.arange(chunk.size), j]
        rcol[chunk] = j + t


def dense_snf_mod(rows, k, m):
    """Reference: snf_mod as it was when it ran row and column operations on the whole matrix."""
    A = np.asarray(rows, dtype=np.int64).reshape(-1, k) % m
    R = A.shape[0]
    W = np.eye(k, dtype=np.int64)
    rmin = np.empty(R, dtype=np.int64)
    rcol = np.empty(R, dtype=np.int64)
    dense_row_minima(A, np.arange(R), 0, m, rmin, rcol)
    dirty = np.zeros(R, dtype=bool)

    def touch(*cols):
        for c in cols:
            dirty[A[:, c] != 0] = True

    def col_addmul(dst, src, q):
        A[:, dst] = (A[:, dst] - q * A[:, src]) % m
        W[src] = (W[src] + q * W[dst]) % m

    def col_combine(t, j, a, b):
        touch(t, j)
        g, u, v = _egcd(a, b)
        ct, cj = A[:, t].copy(), A[:, j].copy()
        A[:, t] = (u * ct + v * cj) % m
        A[:, j] = ((a // g) * cj - (b // g) * ct) % m
        wt, wj = W[t].copy(), W[j].copy()
        W[t] = ((a // g) * wt + (b // g) * wj) % m
        W[j] = (-v * wt + u * wj) % m

    def col_swap(t, j):
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
            hit = np.nonzero(A[:, t])[0]
            dirty[hit] = True
            for i in hit:
                if i != t:
                    _combine(A[t, t:], A[i, t:], m)
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
            dense_row_minima(A, t + np.flatnonzero(dirty[t:]), t, m, rmin, rcol)
            dirty[:] = False

    diag = []
    for i in range(k):
        d = int(A[i, i]) if i < R else 0
        diag.append(gcd(d, m) if d else m)
    return diag, W


def dense_relations(H, m):
    """Reference: _relations as it was when it reduced against [H | I]."""
    k = H.shape[0]
    scale = m // np.diagonal(H)
    R = np.zeros((k, 2 * k), dtype=np.int64)
    R[:, :k] = (scale[:, None] * H) % m
    dense_reduce(np.hstack([H, np.eye(k, dtype=np.int64)]), R, m)
    if R[:, :k].any():
        raise ValidationError("basis is not in Hermite form")
    return (R[:, k:] + np.diag(scale)) % m


def dense_quotient_matrix(sub_H, sup_H, m):
    """Reference: the k-column relation matrix dense_quotient_structure diagonalises."""
    k = sup_H.shape[0]
    unit = np.flatnonzero(np.diagonal(sup_H) == m)
    if (sup_H[unit] % m).any():
        raise ValidationError("basis is not in Hermite form")
    R = np.zeros((sub_H.shape[0], 2 * k), dtype=np.int64)
    R[:, :k] = sub_H % m
    dense_reduce(np.hstack([sup_H, np.eye(k, dtype=np.int64)]), R, m)
    if R[:, :k].any():
        raise ValidationError("sub lattice is not contained in the sup lattice")
    slack = dense_hnf_from_rows(np.delete(dense_relations(sup_H, m), unit, axis=0), k, m)
    slack[unit, unit] = 1
    return np.vstack([-R[:, k:] % m, slack])


def dense_quotient_structure(sub_H, sup_H, m):
    """Reference: quotient_structure as it was, on the dense matrix with a unit row per pivot of m."""
    k = sup_H.shape[0]
    if k == 0:
        return [], np.zeros((0, 0), dtype=np.int64)
    diag, W = dense_snf_mod(dense_quotient_matrix(sub_H, sup_H, m), k, m)
    keep = [i for i, d in enumerate(diag) if d > 1]
    return [diag[i] for i in keep], (W[keep] @ sup_H) % m


def block_only_quotient(sub_H, sup_H, m):
    """The shortcut that position tracking rules out: a Smith form of the non-unit rows alone, on the columns J."""
    J = np.flatnonzero(np.diagonal(sup_H) < m)
    unit_rows = sub_H.shape[0] + np.flatnonzero(np.diagonal(sup_H) == m)
    block = np.delete(dense_quotient_matrix(sub_H, sup_H, m), unit_rows, axis=0)[:, J]
    diag, W = dense_snf_mod(block, J.size, m)
    keep = [i for i, d in enumerate(diag) if d > 1]
    return [diag[i] for i in keep], (W[keep] @ sup_H[J]) % m


def assert_same_quotient(sub_H, sup_H, m):
    diag, gens = quotient_structure(sub_H, sup_H, m)
    k = sup_H.shape[1]
    ref_diag, ref_gens = dense_quotient_structure(densify(sub_H, k, m), densify(sup_H, k, m), m)
    assert diag == ref_diag
    assert np.array_equal(gens, ref_gens)


def sparse_cases(count, seed):
    """Lattices of up to 40 coordinates spanned by a few rows, so most pivots are m."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 40)
        m = rng.choice([2, 4, 6, 8, 12, 24])
        density = rng.choice([0.05, 0.2, 1.0])
        rows = [
            [rng.randrange(m) if rng.random() < density else 0 for _ in range(k)]
            for _ in range(rng.randint(0, 6))
        ]
        yield k, m, np.array(rows, dtype=np.int64).reshape(len(rows), k)


SPARSE_CASES = list(sparse_cases(60, seed=15))


def test_sparse_cases_are_mostly_pivots_of_m():
    pivots = np.concatenate([np.diagonal(densify(hnf_from_rows(rows, k, m), k, m)) == m for k, m, rows in SPARSE_CASES])
    assert pivots.mean() > 0.8 and not pivots.all()


def reduce_blocks(rows, k, m, rng):
    """Lattice members, random rows, random tails and zero rows, 26 in all."""
    coeffs = np.array([[rng.randrange(m) for _ in rows] for _ in range(8)], dtype=np.int64)
    members = (coeffs.reshape(8, len(rows)) @ rows) % m
    noise = np.array([[rng.randrange(m) for _ in range(k)] for _ in range(8)], dtype=np.int64)
    tails = noise * (np.arange(k) >= rng.randrange(k))
    return np.vstack([members, noise, tails, np.zeros((2, k), dtype=np.int64)])


@pytest.mark.parametrize("case", SPARSE_CASES)
def test_kernels_match_the_dense_reference(case):
    k, m, rows = case
    H = hnf_from_rows(rows, k, m)
    assert np.array_equal(H, compact(dense_hnf_from_rows(rows, k, m), m))
    raw = np.zeros((0, k), dtype=np.int64)
    dense_raw = m * np.eye(k, dtype=np.int64)
    for row in rows:
        raw = hnf_insert(raw, row, k, m)
        dense_hnf_insert(dense_raw, row, m)
    assert np.array_equal(densify(raw, k, m), dense_raw)
    assert np.array_equal(hnf_canonical(raw, m), compact(dense_hnf_canonical(dense_raw, m), m))
    rng = random.Random(k * 1000 + m)
    I = np.eye(k, dtype=np.int64)
    D = densify(H, k, m)
    T = D.T[::-1, ::-1]
    below = np.diagonal(T) < m
    # H, the rows below m of the reversed transpose orth_complement builds, and
    # both with [. | I] trailing columns, against the dense forms they come from
    for basis, dense in (
        (H, D),
        (T[below], T),
        (np.hstack([H, I[np.diagonal(D) < m]]), np.hstack([D, I])),
        (np.hstack([T[below], I[below]]), np.hstack([T, I])),
    ):
        vs = reduce_blocks(rows, k, m, rng)
        R = np.hstack([vs, np.zeros((len(vs), basis.shape[1] - k), dtype=np.int64)])
        ref = R.copy()
        _reduce(basis, R, m)
        dense_reduce(dense, ref, m)
        assert np.array_equal(R, ref)


@pytest.mark.parametrize("case", SPARSE_CASES)
def test_quotient_and_solver_match_the_dense_reference(case):
    k, m, rows = case
    sup_H = hnf_from_rows(rows, k, m)
    sup_D = densify(sup_H, k, m)
    rng = random.Random(k * 1000 + m + 1)
    sub_rows = [(rng.choice([1, 2, 3, m]) * r + rng.randrange(m) * sup_D[rng.randrange(k)]) % m for r in sup_D]
    sub_H = hnf_from_rows(np.array(sub_rows, dtype=np.int64).reshape(-1, k), k, m)
    sub_D = densify(sub_H, k, m)
    diag, gens = quotient_structure(sub_H, sup_H, m)
    ref_diag, ref_gens = dense_quotient_structure(sub_D, sup_D, m)
    assert diag == ref_diag and np.array_equal(gens, ref_gens)
    ref = dense_quotient_relations(sub_D, sup_D, m)
    ref_diag, W = dense_snf(ref, k, m)
    keep = [i for i, d in enumerate(ref_diag) if d > 1]
    assert diag == [ref_diag[i] for i in keep]
    assert np.array_equal(gens, (W[keep] @ sup_D) % m)
    # the solver on the quotient generators and the sub basis gives the
    # coordinates it gives with every row of the dense sub basis, and the
    # insert-only reference gives them too
    full = LatticeSolver(np.vstack([gens, sub_D]), k, m)
    trimmed_gens = np.vstack([gens, sub_H])
    trimmed = LatticeSolver(trimmed_gens, k, m)
    reference = InsertOnlySolver(trimmed_gens, k, m)
    orders = np.array(diag, dtype=np.int64)
    members = (np.array([[rng.randrange(m) for _ in range(k)] for _ in range(6)], dtype=np.int64) @ sup_D) % m
    a, b, c = full.solve(members), trimmed.solve(members), reference.solve(members)
    assert np.array_equal(a[:, : len(diag)] % orders, b[:, : len(diag)] % orders)
    assert np.array_equal(c[:, : len(diag)] % orders, b[:, : len(diag)] % orders)
    assert not ((b @ trimmed_gens - members) % m).any()
    # random rows, most of them outside a sparse lattice
    for v in reduce_blocks(rows, k, m, rng)[8:16]:
        assert (full.solve(v) is None) == (trimmed.solve(v) is None) == (reference.solve(v[None]) is None)
        assert (full.solve(v) is None) == bool(member_residual(sup_H, v, m).any())


def test_combine_returns_its_determinant_one_transform():
    rng = random.Random(17)
    divisible = 0
    for _ in range(200):
        m = rng.choice([2, 4, 6, 12, 24, 36, 96])
        n = rng.randint(1, 6)
        c = rng.randrange(n)
        p = np.array([rng.randrange(m) for _ in range(n)], dtype=np.int64)
        p[c] = rng.randrange(1, m)
        r = np.array([rng.randrange(m) for _ in range(n)], dtype=np.int64)
        # as rows, and as the column views snf_mod passes
        rows, cols = np.vstack([p, r]), np.column_stack([p, r])
        x, y, z, w = _combine(rows[0], rows[1], m, c)
        assert _combine(cols[:, 0], cols[:, 1], m, c) == (x, y, z, w)
        assert x * w - y * z == 1
        for new_p, new_r in (rows, cols.T):
            assert np.array_equal(new_p, (x * p + y * r) % m)
            assert np.array_equal(new_r, (z * p + w * r) % m)
            assert new_r[c] == 0
        divisible += (x, y, w) == (1, 0, 1)
    assert 20 < divisible < 180


def test_relations_reject_a_basis_that_is_not_hermite():
    # the lattice holds 2 * (2, 1) = (0, 2) mod 4, which row (0, 4) cannot reach
    H = np.array([[2, 1], [0, 4]], dtype=np.int64)
    with pytest.raises(ValidationError, match="Hermite"):
        _relations(H, 4)
    # the same basis with its implicit row (0, 4) left out
    with pytest.raises(ValidationError, match="Hermite"):
        _relations(H[:1], 4)


def loop_smallest_entry(sub, m):
    """The pivot search snf_mod made before it used one masked argmin."""
    nzr, nzc = np.nonzero(sub)
    if nzr.size == 0:
        return None
    vals = sub[nzr, nzc]
    best = int(vals.min())
    pick = int(np.nonzero(vals == best)[0][0])
    return int(nzr[pick]), int(nzc[pick])


def full_scan_pivot(sub, m):
    """The pivot search of full_scan_snf_mod: one masked argmin over the block."""
    masked = np.where(sub == 0, m, sub)
    pick = int(np.argmin(masked))
    if masked.flat[pick] == m:
        return None
    return divmod(pick, sub.shape[1])


def full_scan_snf_mod(rows, k, m):
    """Reference: snf_mod as it was when every pivot step scanned the whole block."""
    A = np.asarray(rows, dtype=np.int64).reshape(-1, k) % m
    R = A.shape[0]
    W = np.eye(k, dtype=np.int64)

    def col_addmul(dst, src, q):
        A[:, dst] = (A[:, dst] - q * A[:, src]) % m
        W[src] = (W[src] + q * W[dst]) % m

    def col_combine(t, j, a, b):
        g, u, v = _egcd(a, b)
        ct, cj = A[:, t].copy(), A[:, j].copy()
        A[:, t] = (u * ct + v * cj) % m
        A[:, j] = ((a // g) * cj - (b // g) * ct) % m
        wt, wj = W[t].copy(), W[j].copy()
        W[t] = ((a // g) * wt + (b // g) * wj) % m
        W[j] = (-v * wt + u * wj) % m

    t = 0
    while t < min(R, k):
        found = full_scan_pivot(A[t:, t:], m)
        if found is None:
            break
        i0, j0 = found[0] + t, found[1] + t
        if i0 != t:
            A[[t, i0]] = A[[i0, t]]
        if j0 != t:
            A[:, [t, j0]] = A[:, [j0, t]]
            W[[t, j0]] = W[[j0, t]]
        while True:
            for i in np.nonzero(A[:, t])[0]:
                if i != t:
                    _combine(A[t, t:], A[i, t:], m)
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
    diag = [int(A[i, i]) if i < R else 0 for i in range(k)]
    return [gcd(d, m) if d else m for d in diag], W


# the groups of the benchmark's oracle-small workload
ORACLE_SMALL = (
    ("dihedral", (4,)), ("quaternion8", ()), ("alternating", (4,)), ("dihedral", (6,)),
    ("dicyclic", (3,)), ("dihedral", (8,)), ("dicyclic", (4,)),
    ("direct_product", (("dihedral", 4), ("cyclic", 2))),
    ("direct_product", (("quaternion8",), ("cyclic", 2))), ("elementary", (2, 4)),
    ("direct_product", (("cyclic", 4), ("cyclic", 4))), ("dihedral", (9,)), ("dihedral", (10,)),
    ("dicyclic", (5,)), ("symmetric", (4,)), ("dihedral", (12,)),
    ("direct_product", (("alternating", 4), ("cyclic", 2))),
)


COMBINE_CASE_96 = [
    [0, 0, 0, 0, 0, 12, 0, 0],
    [0, 0, 0, 0, 32, 0, 0, 0],
    [0, 0, 0, 0, 36, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 53, 20, 0, 87, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 86, 1, 0, 87],
]
COMBINE_CASE_24 = [
    [1, 16, 21, 17, 0, 11, 18],
    [0, 8, 0, 0, 0, 0, 13],
    [21, 0, 8, 14, 2, 14, 23],
    [23, 0, 10, 7, 3, 5, 16],
    [11, 0, 0, 10, 22, 10, 0],
    [21, 14, 0, 22, 1, 0, 8],
    [0, 0, 0, 20, 16, 0, 0],
]
# The quotient of the lattice of these rows by that of twice them has block
# rows with one entry above 1, alone in its column, among unit rows: at m = 8
# the slack row 2*e_3 sits at position 8, after the unit rows at 5 and 7 and
# before the one at 9; at m = 12 the slack row 2*e_0 sits at position 6,
# before the unit rows at 7, 9 and 10.
SINGLE_ENTRY_CASE_8 = [[0, 2, 0, 0, 0], [0, 0, 0, 4, 0]]
SINGLE_ENTRY_CASE_12 = [[0, 0, 3, 0, 0, 0], [0, 0, 0, 0, 0, 4], [6, 0, 0, 0, 0, 0]]


def test_snf_pivot_search_matches_the_loop(monkeypatch):
    rng = random.Random(61)
    cases, ties = [], 0
    for _ in range(300):
        k = rng.randint(1, 7)
        m = rng.choice([2, 3, 4, 6, 8, 12, 24])
        rows = np.array(
            [[rng.choice([0, rng.randrange(m)]) for _ in range(k)] for _ in range(rng.randint(1, 8))],
            dtype=np.int64,
        )
        assert full_scan_pivot(rows, m) == loop_smallest_entry(rows, m)
        nonzero = rows[rows != 0]
        ties += nonzero.size > 1 and np.count_nonzero(nonzero == nonzero.min()) > 1
        cases.append((rows, k, m))
    assert ties > 50
    # a col_combine here changes rows that no row operation clears afterwards,
    # so their kept minima are stale unless the combine marks them
    cases.append((np.array(COMBINE_CASE_96), 8, 96))
    cases.append((np.array(COMBINE_CASE_24), 7, 24))
    # the relation matrix of each top-level cocycle space of the workload
    original = lattices.snf_mod

    def recording(block, rows, cols, unit, k, m):
        A = np.zeros((2 * k, k), dtype=np.int64)  # the dense relation matrix quotient_structure passes in parts
        A[np.ix_(rows, cols)] = block
        A[tuple(unit.T)] = 1
        cases.append((A, k, m))
        return original(block, rows, cols, unit, k, m)

    monkeypatch.setattr(lattices, "snf_mod", recording)
    for family, params in ORACLE_SMALL:
        G = builtin(family, params)
        cohomology.cocycle_space(G, G.order)
    assert len(cases) == 302 + len(ORACLE_SMALL)
    monkeypatch.undo()
    for rows, k, m in cases:
        diag, W = dense_snf(rows, k, m)
        old_diag, old_W = full_scan_snf_mod(rows, k, m)
        assert diag == old_diag
        assert np.array_equal(W, old_W)


def nested_pair(rows, k, m, seed):
    """(sub_H, sup_H): the basis of the rows, and a basis of a sublattice of it."""
    sup_H = hnf_from_rows(rows, k, m)
    sup_D = densify(sup_H, k, m)
    rng = random.Random(seed)
    sub_rows = [(rng.choice([1, 2, 3, m]) * r + rng.randrange(m) * sup_D[rng.randrange(k)]) % m for r in sup_D]
    return hnf_from_rows(np.array(sub_rows, dtype=np.int64).reshape(-1, k), k, m), sup_H


@pytest.mark.parametrize("case", SPARSE_CASES + list(wider_cases(40, seed=96)))
def test_quotient_matches_the_dense_run(case):
    k, m, rows = case
    assert_same_quotient(*nested_pair(rows, k, m, seed=k * 1000 + m + 2), m)


@pytest.mark.parametrize(
    "rows, m",
    [(COMBINE_CASE_24, 24), (COMBINE_CASE_96, 96), (SINGLE_ENTRY_CASE_8, 8), (SINGLE_ENTRY_CASE_12, 12)],
)
def test_quotient_matches_the_dense_run_on_the_combine_cases(rows, m):
    A = np.array(rows, dtype=np.int64)
    k = A.shape[1]
    H = hnf_from_rows(A, k, m)
    # against Z^k the relation rows are the rows of H themselves
    assert_same_quotient(H, np.eye(k, dtype=np.int64), m)
    assert_same_quotient(hnf_from_rows(2 * A, k, m), H, m)


@pytest.fixture(scope="module")
def oracle_inputs():
    """What b0_lower_bound hands the lattice code on the workload's groups.

    "quotient" holds the (sub, sup, m) inputs of quotient_structure, those
    of the spaces of the maximal abelian subgroups and of the quotient
    b0_lower_bound itself takes. "hnf" holds the (rows, k, m) inputs of
    hnf_from_rows, the solvers' included, and "space" each group's
    top-level cocycle space with the generators of its solver.

    b0_lower_bound solves one space per distinct subgroup table, and a twin
    subgroup, whose table equals one already solved, reuses that space. So
    each twin is also solved here, on a new Subgroup, and the inputs are
    those of one space per subgroup. "shared" holds the quotient and hnf
    inputs that b0_lower_bound took before that.
    """
    seen = {"quotient": [], "hnf": [], "space": []}
    solver_gens = {}
    quotient, hnf, solver = cohomology.quotient_structure, lattices.hnf_from_rows, cohomology.LatticeSolver

    def recording_quotient(sub_H, sup_H, m):
        seen["quotient"].append((sub_H.copy(), sup_H.copy(), m))
        return quotient(sub_H, sup_H, m)

    def recording_hnf(rows, k, m):
        seen["hnf"].append((np.array(rows, dtype=np.int64), k, m))
        return hnf(rows, k, m)

    def recording_solver(gens, k, m):
        out = solver(gens, k, m)
        solver_gens[id(out)] = gens.copy()
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "quotient_structure", recording_quotient)
        patch.setattr(cohomology, "hnf_from_rows", recording_hnf)
        patch.setattr(lattices, "hnf_from_rows", recording_hnf)
        patch.setattr(cohomology, "LatticeSolver", recording_solver)
        groups = [builtin(family, params) for family, params in ORACLE_SMALL]
        for G in groups:
            cohomology.b0_lower_bound(G, G.order)
            space = cohomology.cocycle_space(G, G.order)
            seen["space"].append((space, solver_gens[id(space._solver)]))
        seen["shared"] = {key: list(seen[key]) for key in ("quotient", "hnf")}
        for G in groups:
            tables = set()
            for A in abelian_subgroups(G):
                sub = Subgroup(G, A.members).as_group()[0]
                if sub.mul in tables:
                    cohomology.cocycle_space(sub, G.order, G.order)
                tables.add(sub.mul)
    return seen


def test_quotient_matches_the_dense_run_on_the_oracle_inputs(oracle_inputs):
    shortcut_misses = 0
    for sub_H, sup_H, m in oracle_inputs["quotient"]:
        diag, gens = quotient_structure(sub_H, sup_H, m)
        k = sup_H.shape[1]
        sub_D, sup_D = densify(sub_H, k, m), densify(sup_H, k, m)
        ref_diag, ref_gens = dense_quotient_structure(sub_D, sup_D, m)
        assert diag == ref_diag
        assert np.array_equal(gens, ref_gens)
        short_diag, short_gens = block_only_quotient(sub_D, sup_D, m)
        shortcut_misses += short_diag != ref_diag or not np.array_equal(short_gens, ref_gens)
    # a Smith form of the non-unit rows alone, without the row swaps that
    # pivots on unit rows make, gets 36 of the 114 wrong
    assert len(oracle_inputs["quotient"]) == 114
    assert shortcut_misses >= 30


def test_hnf_matches_the_dense_run_on_the_oracle_inputs(oracle_inputs):
    calls = oracle_inputs["hnf"]
    solver_calls = 0
    for rows, k, m in calls:
        H = hnf_from_rows(rows, k, m)
        assert np.array_equal(H[:, :k], compact(dense_hnf_from_rows(rows, k, m), m)[:, :k])
        if rows.shape[1] > k:
            # a solver's [gens | I]: the trailing columns write each row over the generators
            solver_calls += 1
            assert not ((H[:, k:] @ rows[:, :k] - H[:, :k]) % m).any()
    assert len(calls) == 650 and solver_calls == 97


def test_twin_subgroups_share_one_space(oracle_inputs):
    # 48 of the 82 maximal abelian subgroups have a table equal to one
    # already solved for the same group, and none of them is solved again
    shared = oracle_inputs["shared"]
    solver_calls = sum(rows.shape[1] > k for rows, k, _ in shared["hnf"])
    assert (len(shared["quotient"]), len(shared["hnf"]), solver_calls) == (66, 362, 49)


def test_class_coordinates_match_the_insert_only_solver(oracle_inputs):
    rng = random.Random(23)
    for space, gens in oracle_inputs["space"]:
        n, m, rank = space.group.order, space.modulus, space.rank
        k = (n - 1) ** 2
        # members of the cocycle lattice; the rows of gens past the basis are coboundaries
        coeffs = np.array([[rng.randrange(m) for _ in gens] for _ in range(8)], dtype=np.int64)
        tables = np.zeros((8, n, n), dtype=np.int64)
        tables[:, 1:, 1:] = ((coeffs @ gens) % m).reshape(8, n - 1, n - 1)
        orders = np.array(space.basis_orders, dtype=np.int64)
        coords = space._coords(tables)
        assert np.array_equal(coords, coeffs[:, :rank] % orders)
        reference = InsertOnlySolver(gens, k, m).solve(tables[:, 1:, 1:].reshape(8, k))
        assert np.array_equal(reference[:, :rank] % orders, coords)


def test_quotient_structure_stays_off_the_dense_form(monkeypatch):
    seen = []
    original = cohomology.quotient_structure
    monkeypatch.setattr(cohomology, "quotient_structure", lambda *args: seen.append(args) or original(*args))
    cohomology.cocycle_space(builtin("symmetric", (4,)), 24)
    sub_H, sup_H, m = seen[0]
    assert sup_H.shape == (24, 529) and sub_H.shape == (23, 529) and m == 24
    sub_D, sup_D = densify(sub_H, 529, m), densify(sup_H, 529, m)
    assert np.count_nonzero(np.diagonal(sup_D) < m) == 24 and np.count_nonzero(np.diagonal(sub_D) < m) == 23
    tracemalloc.start()
    try:
        quotient_structure(sub_H, sup_H, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense relation matrix alone is 1,058 x 529 int64, 4.3 MiB; the
    # dense run peaked at 17.6 MiB
    assert peak < 2 * 2**20


def test_snf_diagonal_divides_modulus():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 4)
        m = rng.choice([2, 4, 6, 12])
        rows = np.array(
            [[rng.randrange(m) for _ in range(k)] for _ in range(rng.randint(1, 4))],
            dtype=np.int64,
        )
        diag, _ = dense_snf(rows, k, m)
        assert len(diag) == k
        assert all(m % d == 0 for d in diag)


def test_invariant_factors_chain():
    assert invariant_factors_from_orders([4, 6, 2]) == (2, 2, 12)
    assert invariant_factors_from_orders([1, 1]) == ()
    assert invariant_factors_from_orders([2, 2, 2]) == (2, 2, 2)
    assert invariant_factors_from_orders([8, 3]) == (24,)
    got = invariant_factors_from_orders([6, 4, 9])
    prod = 1
    for d in got:
        prod *= d
    assert prod == 6 * 4 * 9
    for a, b in zip(got, got[1:]):
        assert b % a == 0
