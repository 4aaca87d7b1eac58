"""Mod-m lattice primitives against exhaustive enumeration."""

import itertools
import random

import numpy as np
import pytest

from grouplab.errors import ValidationError
from grouplab.groups import invariant_factors_from_orders
from grouplab.lattices import (
    LatticeSolver,
    _reduce,
    hnf_canonical,
    hnf_from_rows,
    hnf_insert,
    lattice_index,
    member_residual,
    orth_complement,
    quotient_structure,
    snf_mod,
)


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
    span = brute_span(rows, k, m)
    assert m**k // lattice_index(H) == len(span)
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
    for r in sup_H:
        c = rng.choice([1, 2, m])
        sub_rows.append([(c * x) % m for x in r])
    sub_H = hnf_from_rows(np.array(sub_rows, dtype=np.int64), k, m)
    assert not any(member_residual(sup_H, np.array(r), m).any() for r in sub_H)
    diag, gens = quotient_structure(sub_H, sup_H, m, want_generators=True)
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
    assert np.array_equal(H, np.triu(H))
    for j in range(k):
        assert 0 < H[j, j] <= m and m % H[j, j] == 0
        assert all(0 <= H[i, j] < H[j, j] for i in range(j))
    raw = m * np.eye(k, dtype=np.int64)
    for row in rows:
        hnf_insert(raw, row, m)
    assert np.array_equal(hnf_canonical(raw, m), loop_hnf_canonical(raw, m))
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
    R = np.hstack([vs, np.zeros_like(vs)])
    _reduce(np.hstack([H, np.eye(k, dtype=np.int64)]), R, m)
    r, q = R[:, :k], -R[:, k:] % m
    assert not ((q @ H + r - vs) % m).any()
    for v, quot, res in zip(vs, q, r):
        ref_q, ref_r = loop_reduce(H, v, m)
        assert np.array_equal(quot, ref_q) and np.array_equal(res, ref_r)
        assert np.array_equal(member_residual(H, v, m), res)


@pytest.mark.parametrize("case", list(wider_cases(40, seed=93)))
def test_snf_transforms(case):
    k, m, rows = case
    diag, V, Winv = snf_mod(rows, k, m, want_v=True, want_winv=True)
    assert np.array_equal((V @ Winv) % m, np.eye(k, dtype=np.int64))
    moved = (rows @ V) % m
    assert np.array_equal(hnf_from_rows(moved, k, m), hnf_from_rows(np.diag(diag), k, m))


def test_snf_diagonal_divides_modulus():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 4)
        m = rng.choice([2, 4, 6, 12])
        rows = np.array(
            [[rng.randrange(m) for _ in range(k)] for _ in range(rng.randint(1, 4))],
            dtype=np.int64,
        )
        diag, _, _ = snf_mod(rows, k, m)
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
