"""Acceptance suite: one test per criterion, one printed line per criterion.

Runs over the shipped corpus (all abelian groups of order up to 16, the
dihedral/quaternion pair, the symmetric-group family with abelian factors,
both extraspecial groups of order 27, the order-12 dihedral and dicyclic
groups, and the alternating group on four points).
"""

import functools
import json
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from grouplab.cli import main
from grouplab.cohomology import b0_lower_bound, multiplier_order_oracle
from grouplab.groups import commutator_table, derived_subgroup, relabeled
from grouplab.isoclinism import (
    build_gamma,
    compose_witnesses,
    identity_witness,
    invert_witness,
    verify_witness,
    well_definedness_fuzz,
)
from grouplab.wedge import (
    bogomolov_kernel,
    check_pairing,
    compute_wedge,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CATALOG = REPO_ROOT / "catalog"


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({title}): FAIL")
                raise
            print(f"criterion {num} ({title}): PASS")

        return wrapper

    return deco


@criterion(1, "isoclinic pairs share kernel invariants, with bijective induced maps")
def test_criterion_1_theorem_suite(tmp_path):
    started = time.monotonic()
    rc = main(["verify-theorem", str(SHIPPED_CATALOG), "--out", str(tmp_path)])
    elapsed = time.monotonic() - started
    assert rc == 0
    doc = json.loads((tmp_path / "verify_theorem.json").read_text())
    assert doc["all_pass"] is True
    assert doc["pairs"], "no witnessed pairs found"
    for row in doc["pairs"]:
        assert row["witness_found"] and row["witness_valid"], row["pair"]
        assert row["invariants_equal"], row["pair"]
        assert row["gamma_bijective"] and row["gamma_tilde_bijective"], row["pair"]
        assert row["diagram_commutes"], row["pair"]
        assert row["fuzz_stable"], row["pair"]
    assert elapsed < 300, f"theorem suite took {elapsed:.0f}s"


@criterion(2, "abelian groups collapse to the trivial pairing group")
def test_criterion_2_abelian_collapse(corpus, curly_wedges):
    checked = 0
    for G in corpus:
        if not G.is_abelian():
            continue
        wr = curly_wedges[G.label]
        assert wr.order == 1, G.label
        assert len(wr.kernel) == 1, G.label
        assert wr.kernel_invariants().factors == (), G.label
        checked += 1
    assert checked == 25


@criterion(3, "exactness and relator tracing hold for both variants")
def test_criterion_3_exactness(corpus, curly_wedges, exterior_wedges):
    for G in corpus:
        derived = derived_subgroup(G)
        for wedges in (curly_wedges, exterior_wedges):
            wr = wedges[G.label]
            assert wr.order == len(wr.kernel) * len(derived), (G.label, wr.variant)
            assert set(wr.kappa.images) == set(derived.members), (G.label, wr.variant)
            assert check_pairing(G, G, commutator_table(G), wr.variant), (
                G.label,
                wr.variant,
            )


@criterion(4, "pairing-group multiplier equals the cohomology multiplier")
def test_criterion_4_dual_path_multiplier(corpus, exterior_wedges):
    checked = {}
    for G in corpus:
        if G.order > 16:
            continue
        wedge_mult = len(exterior_wedges[G.label].kernel)
        oracle_mult = multiplier_order_oracle(G)
        assert wedge_mult == oracle_mult, (G.label, wedge_mult, oracle_mult)
        checked[G.label] = wedge_mult
    # both in-repo paths agreed; spot values follow from that agreement
    assert checked["S3"] == 1 and checked["Q8"] == 1
    assert checked["Z2xZ2"] == 2 and checked["D4"] == 2 and checked["A4"] == 2
    assert all(checked[f"Z{n}"] == 1 for n in range(2, 17))


@criterion(5, "restriction-kernel bound never exceeds the pairing kernel")
def test_criterion_5_cohomological_bound(corpus, curly_wedges):
    for G in corpus:
        if G.order > 24:
            continue
        bound, _ = b0_lower_bound(G, G.order)
        kernel_order = len(curly_wedges[G.label].kernel)
        assert bound <= kernel_order, (G.label, bound, kernel_order)
        if G.is_abelian():
            assert bound == 1 and kernel_order == 1, G.label
        # observed relationship, reported per group
        print(f"  b0 bound {G.label}: {bound} vs kernel {kernel_order}"
              f" ({'equal' if bound == kernel_order else 'strict'})")


@criterion(6, "gamma is unchanged under representative perturbations")
def test_criterion_6_fuzz(corpus, curly_wedges, family_witnesses):
    assert family_witnesses
    for (i, j), witness in family_witnesses.items():
        w1 = curly_wedges[corpus[i].label]
        w2 = curly_wedges[corpus[j].label]
        assert well_definedness_fuzz(witness, w1, w2, trials=100, seed=0), (
            corpus[i].label,
            corpus[j].label,
        )


@criterion(7, "isoclinism behaves as an equivalence relation")
def test_criterion_7_equivalence_relation(corpus, families, family_witnesses):
    # reflexivity: the identity witness verifies on every corpus group
    for G in corpus:
        assert verify_witness(identity_witness(G)), G.label
    # symmetry: inverted witnesses verify
    for (i, j), witness in family_witnesses.items():
        assert verify_witness(invert_witness(witness)), (corpus[i].label, corpus[j].label)
    # transitivity: composition along family triples verifies
    composed = 0
    for fam in families:
        for a, b, c in combinations(fam, 3):
            w_ab = family_witnesses[(a, b)]
            w_bc = family_witnesses[(b, c)]
            w_ac = compose_witnesses(w_ab, w_bc)
            assert verify_witness(w_ac), (corpus[a].label, corpus[c].label)
            composed += 1
            if composed >= 60:
                return
    assert composed > 0


@criterion(8, "two full corpus runs produce byte-identical reports")
def test_criterion_8_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["compute", str(SHIPPED_CATALOG), "--out", str(out1)]) == 0
    assert main(["compute", str(SHIPPED_CATALOG), "--out", str(out2)]) == 0
    files1 = sorted(out1.glob("*.json"))
    assert len(files1) == 35
    for f in files1:
        assert f.read_bytes() == (out2 / f.name).read_bytes(), f.name


@criterion(9, "kernel invariants are invariant under relabeling")
def test_criterion_9_relabeling(corpus):
    rng = random.Random(2024)
    for G in corpus:
        base = bogomolov_kernel(G).factors
        for _ in range(10):
            perm = [0] + rng.sample(range(1, G.order), G.order - 1)
            shuffled = relabeled(G, perm)
            assert bogomolov_kernel(shuffled).factors == base, G.label


def test_gamma_pipeline_runs_in_process(corpus, curly_wedges, family_witnesses):
    """Direct spot-run of the full induced-map pipeline on one nonabelian pair."""
    by_name = {g.label: i for i, g in enumerate(corpus)}
    i, j = sorted((by_name["D4"], by_name["Q8"]))
    witness = family_witnesses[(i, j)]
    g = build_gamma(witness, curly_wedges[corpus[i].label], curly_wedges[corpus[j].label])
    assert g.gamma.is_bijective() and g.gamma_tilde.is_bijective()
