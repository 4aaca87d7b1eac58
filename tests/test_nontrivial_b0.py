"""A group with nontrivial Bogomolov multiplier, and the theorem checked on it.

B64 and N are subgroups of S32 of order 64. Their one copy is the pair of
perm specs ``catalog-b0/B64.json`` and ``catalog-b0/N64.json`` (N is named
N64 there), which the console-script check also runs. They share |Z| = 4,
|G'| = 8, abelianization (2, 2, 2) and element-order counts, but only B64 has
B0 = Z/2, so they are not isoclinic. The expected kernels rest on Chu, Hu,
Kang and Kunyavskii (*Noether's problem and the unramified Brauer group for
groups of order 64*, IMRN 2010): every group of order 64 has B0 = 0 or Z/2,
B64 is one of those where it is Z/2 and N one where it is 0. The group data
that the tests compare against come from the permutation closure below, of the
generators read straight off the spec files, not from grouplab.

P = B64 x Z2 is isoclinic to B64 (an abelian direct factor changes neither
G/Z nor G'), so by the theorem its kernel is Z/2 as well, and a witness in
either direction must induce an isomorphism of the kernels. P and its curly
realization (order 128, so ``group_cap=128``) are built once for the module.

B243, B243b, B243c and their twin T243 are subgroups of S27 of order 243,
closed from two permutations each, and their one copy is the perm specs
``catalog-b0/B243.json``, ``B243b.json``, ``B243c.json`` and ``T243.json``,
which the console-script check also runs. They share |Z| = 3, |G'| = 27 and
G/G' = (3, 3), again from the permutation closure of the spec generators.
The curly kernels of the first three are Z/3 and that of T243 is trivial;
the values come from grouplab alone, so they are cross-checks of the route
at an odd prime, not hand-made references. The first three are isoclinic,
so the theorem is checked on each ordered pair of them; none is isoclinic
to T243. All realizations run with ``group_cap=243``, and those of the
first three are built once for the module.
"""

import functools
import itertools
import json
import random
import tracemalloc
from math import log, prod
from pathlib import Path

import pytest

from grouplab.catalog import builtin, group_from_spec_dict
from grouplab.cohomology import b0_lower_bound, cocycle_space, h2_order
from grouplab.groups import (
    AbelianInvariants,
    abelian_invariants,
    center,
    commutator_table,
    derived_subgroup,
    direct_product,
    quotient,
    relabeled,
)
from grouplab import isoclinism, wedge
from grouplab.isoclinism import are_isoclinic, build_gamma, verify_witness, well_definedness_fuzz
from grouplab.wedge import WedgeVariant, check_pairing, compute_wedge
from word_reference import walked_and_worded, word_fold_hom

CATALOG_B0 = Path(__file__).resolve().parents[1] / "catalog-b0"


def b0_spec(name):
    """The spec document of catalog-b0/<name>.json."""
    return json.loads((CATALOG_B0 / f"{name}.json").read_text())


def b0_group(name):
    """A new group object from catalog-b0/<name>.json, by the library's spec reader."""
    return group_from_spec_dict(b0_spec(name), origin=f"catalog-b0/{name}.json")


B64_GENS = b0_spec("B64")["data"]["generators"]
N_GENS = b0_spec("N64")["data"]["generators"]
GENS_243 = {name: b0_spec(name)["data"]["generators"] for name in ("B243", "B243b", "B243c", "T243")}


def compose(a, b):
    """a after b, right to left."""
    return tuple(a[i] for i in b)


def inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def closure(gens):
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = [c for c in {compose(x, g) for x in frontier for g in gens} if c not in seen]
        seen.update(frontier)
    return seen


def reference_data(gens, p=2):
    """|G|, |Z|, |G'| and the invariant factors of G/G', by permutations alone; G/G' must have exponent p."""
    gens = [tuple(g) for g in gens]
    elements = closure(gens)
    z = [x for x in elements if all(compose(x, g) == compose(g, x) for g in gens)]
    comms = {compose(compose(x, y), compose(inverse(x), inverse(y))) for x in elements for y in elements}
    derived = closure(list(comms))
    index = len(elements) // len(derived)
    # G/G' is elementary abelian exactly when every p-th power lies in G'; its rank is log_p(index)
    rank = round(log(index, p))
    powers_in_derived = all(functools.reduce(compose, [x] * p) in derived for x in elements)
    assert powers_in_derived and p**rank == index
    return len(elements), len(z), len(derived), (p,) * rank


def grouplab_data(G):
    ab, _ = quotient(G, derived_subgroup(G))
    return G.order, len(center(G)), len(derived_subgroup(G)), abelian_invariants(ab).factors


@pytest.fixture(scope="module")
def b64():
    return b0_group("B64")


@pytest.fixture(scope="module")
def n64():
    return b0_group("N64")


@pytest.fixture(scope="module")
def b64_wedge(b64):
    return compute_wedge(b64, WedgeVariant.CURLY)


@pytest.fixture(scope="module")
def p128(b64):
    return direct_product(b64, builtin("cyclic", (2,)), label="B64xZ2")


@pytest.fixture(scope="module")
def p128_wedge(p128):
    return compute_wedge(p128, WedgeVariant.CURLY, group_cap=128)


@pytest.fixture(scope="module")
def b243():
    return b0_group("B243")


@pytest.fixture(scope="module")
def t243():
    return b0_group("T243")


@pytest.fixture(scope="module")
def odd_b0_wedges(b243):
    """The curly realizations of B243, B243b and B243c, by label."""
    groups = (b243, b0_group("B243b"), b0_group("B243c"))
    return {G.label: compute_wedge(G, WedgeVariant.CURLY, group_cap=243) for G in groups}


class TestGroupData:
    def test_reference_values(self):
        assert reference_data(B64_GENS) == reference_data(N_GENS) == (64, 4, 8, (2, 2, 2))

    def test_grouplab_agrees_with_the_closure(self, b64, n64):
        assert grouplab_data(b64) == reference_data(B64_GENS)
        assert grouplab_data(n64) == reference_data(N_GENS)
        assert b64.order_multiset() == n64.order_multiset()


class TestOddPrime:
    def test_reference_values(self):
        for gens in GENS_243.values():
            assert reference_data(gens, 3) == (243, 3, 27, (3, 3))

    def test_grouplab_agrees_with_the_closure(self, odd_b0_wedges, t243):
        for label in ("B243", "B243b", "B243c"):
            assert grouplab_data(odd_b0_wedges[label].base) == reference_data(GENS_243[label], 3)
        assert grouplab_data(t243) == reference_data(GENS_243["T243"], 3)

    def test_b243_kernel_is_z3(self, odd_b0_wedges):
        assert odd_b0_wedges["B243"].kernel_invariants().factors == (3,)

    def test_certificate_accepts_b243_and_rejects_a_corrupted_last_block(self, odd_b0_wedges):
        wr = odd_b0_wedges["B243"]
        n, L = wr.base.order, wr.realization.group
        assert [len(ms) for ms in wedge._m_blocks(wr.base)] == [1] * n  # each block holds one m
        values = wr.pair_table().copy()
        assert check_pairing(wr.base, L, values)
        values[n - 1, 1] = L.mul[values[n - 1, 1]][L.order - 1]  # the pair (m, 1) of the last block
        assert not check_pairing(wr.base, L, values)

    def test_b243b_and_b243c_kernels_are_z3_and_not_isoclinic_to_t243(self, odd_b0_wedges, t243):
        for label in ("B243b", "B243c"):
            assert odd_b0_wedges[label].kernel_invariants().factors == (3,)
            assert are_isoclinic(odd_b0_wedges[label].base, t243) is None

    @pytest.mark.parametrize("source, target", list(itertools.permutations(("B243", "B243b", "B243c"), 2)))
    def test_witness_induces_an_isomorphism_of_the_kernels(self, odd_b0_wedges, source, target):
        wedge1, wedge2 = odd_b0_wedges[source], odd_b0_wedges[target]
        w = are_isoclinic(wedge1.base, wedge2.base)
        assert w is not None and verify_witness(w)
        g = build_gamma(w, wedge1, wedge2)
        assert g.gamma.is_bijective()
        assert g.gamma_tilde.is_homomorphism() and g.gamma_tilde.is_bijective()
        assert len(g.kernel1_members) == len(g.kernel2_members) == 3

    def test_t243_kernel_is_trivial_and_t243_is_not_isoclinic_to_b243(self, b243, t243):
        assert compute_wedge(t243, WedgeVariant.CURLY, group_cap=243).kernel_invariants().factors == ()
        assert are_isoclinic(b243, t243) is None


class TestKernel:
    def test_b64_kernel_is_z2(self, b64_wedge):
        assert b64_wedge.kernel_invariants().factors == (2,)

    def test_relabeled_b64_kernel_is_z2(self, b64):
        sigma = list(range(1, b64.order))
        random.Random(64).shuffle(sigma)
        G = relabeled(b64, [0] + sigma)
        assert compute_wedge(G, WedgeVariant.CURLY).kernel_invariants().factors == (2,)

    def test_n_kernel_is_trivial_and_n_is_not_isoclinic_to_b64(self, b64, n64):
        assert compute_wedge(n64, WedgeVariant.CURLY).kernel_invariants().factors == ()
        assert are_isoclinic(b64, n64) is None


class TestOracle:
    def test_b64_oracle_bound_at_m2_is_the_curly_kernel(self, b64_wedge):
        # a group of its own, so the cocycle spaces go with it
        G = b0_group("B64")
        tracemalloc.start()
        try:
            cocycle_space(G, 2, cap=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # k x k bases on the k = 3,969 table entries peaked at 489 MiB
        assert peak < 150 * 2**20
        assert h2_order(G, 2, cap=64) == (32, AbelianInvariants((2, 2, 2, 2, 2)))
        bound, _ = b0_lower_bound(G, 2, cap=64)
        assert bound == 2
        assert bound == prod(b64_wedge.kernel_invariants().factors)

    def test_b64_oracle_bound_at_m64_is_the_curly_kernel(self, b64_wedge):
        # at m = |G| the bound is the whole of B0, so the two routes agree exactly
        G = b0_group("B64")
        bound, invariants = b0_lower_bound(G, 64, cap=64)
        assert bound == 2 and invariants == AbelianInvariants((2,))
        assert bound == prod(b64_wedge.kernel_invariants().factors)


class TestTheoremOnB64TimesZ2:
    @staticmethod
    def check_direction(G1, wedge1, G2, wedge2):
        """A witness G1 -> G2 and the kernel isomorphism it induces; returns build_gamma's traced peak."""
        w = are_isoclinic(G1, G2)
        assert w is not None and verify_witness(w)
        tracemalloc.start()
        try:
            g = build_gamma(w, wedge1, wedge2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.gamma.is_bijective() and g.gamma_tilde.is_bijective()
        assert len(g.kernel1_members) == len(g.kernel2_members) == 2
        assert well_definedness_fuzz(w, wedge1, wedge2, trials=100, seed=0)
        return peak

    def test_witness_induces_an_isomorphism_of_the_kernels(self, b64, b64_wedge, p128, p128_wedge):
        self.check_direction(b64, b64_wedge, p128, p128_wedge)

    def test_reverse_witness_induces_an_isomorphism_of_the_kernels(self, b64, b64_wedge, p128, p128_wedge):
        # measured 0.29 MiB; checking the pair table on kept raw rows of P peaked at 300 MiB
        assert self.check_direction(p128, p128_wedge, b64, b64_wedge) <= 2**20


def test_walks_match_the_word_references(monkeypatch, b64, b64_wedge, p128, p128_wedge):
    """Realizations, kappa and gamma in both directions against the word-based references."""
    words = {}
    for G, wr in ((b64, b64_wedge), (p128, p128_wedge)):
        real, words[G.label] = walked_and_worded(monkeypatch, wr.presentation)
        assert real == wr.realization
        assert wr.kappa.images == word_fold_hom(words[G.label], wr, G, commutator_table(G).tolist())
    for (G1, wedge1), (G2, wedge2) in (((b64, b64_wedge), (p128, p128_wedge)), ((p128, p128_wedge), (b64, b64_wedge))):
        seen = []
        extend = isoclinism.hom_from_generator_images

        def recorded(source, target, table):
            seen.append(word_fold_hom(words[G1.label], source, target, table))
            return extend(source, target, table)

        with monkeypatch.context() as mp:
            mp.setattr(isoclinism, "hom_from_generator_images", recorded)
            gamma = build_gamma(are_isoclinic(G1, G2), wedge1, wedge2).gamma
        assert seen == [gamma.images]
