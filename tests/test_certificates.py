"""Every certificate the other tests never see fire, made to fire once.

Each test corrupts one step under a named monkeypatch and checks that the
certificate guarding it raises its own error. No library code is changed.
"""

import numpy as np
import pytest

from grouplab import cohomology, groups, isoclinism, wedge
from grouplab.catalog import builtin
from grouplab.errors import InconsistentOrders, InternalCheckFailed, KappaRelatorViolation
from grouplab.groups import GroupHom, Subgroup, abelian_invariants, build_from_permutations
from grouplab.isoclinism import build_gamma, identity_witness
from grouplab.wedge import WedgeVariant, compute_wedge, exterior_to_curly_surjection

from test_nontrivial_b0 import B64_CYCLES, DEGREE, perm


def S3():
    """A new S3 object, so that nothing kept on an earlier one is read."""
    return builtin("symmetric", (3,))


def B64():
    """The order-64 group with B0 = Z/2: its CURLY kernel has two elements."""
    return build_from_permutations([perm(c) for c in B64_CYCLES], cap=64, degree=DEGREE, label="B64")


def wrap_images(monkeypatch, module, change):
    """Make module.hom_from_generator_images return its homomorphism with the images passed through change."""
    real = module.hom_from_generator_images

    def corrupted(source, target, table):
        hom = real(source, target, table)
        return GroupHom(hom.source, hom.target, tuple(change(list(hom.images), hom.target)))

    monkeypatch.setattr(module, "hom_from_generator_images", corrupted)


class TestComputeWedge:
    def test_commutator_table_with_one_wrong_entry_violates_a_relator(self, monkeypatch):
        real = wedge.commutator_table

        def one_entry_off(G):
            table = np.array(real(G))
            table[1, 2] = (table[1, 2] + 1) % G.order
            return table

        monkeypatch.setattr(wedge, "commutator_table", one_entry_off)
        with pytest.raises(KappaRelatorViolation, match="violate a pairing relator"):
            compute_wedge(S3(), WedgeVariant.CURLY)

    def test_trivial_derived_subgroup_differs_from_the_kappa_image(self, monkeypatch):
        monkeypatch.setattr(wedge, "derived_subgroup", lambda G: Subgroup(G, (0,)))
        with pytest.raises(KappaRelatorViolation, match="kappa image differs from the derived subgroup"):
            compute_wedge(S3(), WedgeVariant.CURLY)

    def test_kernel_read_as_the_whole_realization_fails_exactness(self, monkeypatch):
        whole = property(lambda self: Subgroup(self.realization.group, tuple(range(self.order))))
        monkeypatch.setattr(wedge.WedgeRealization, "kernel", whole)
        with pytest.raises(InternalCheckFailed, match="exactness fails for S3 curly: 3 != 3 \\* 3"):
            compute_wedge(S3(), WedgeVariant.CURLY)

    def test_kernel_read_as_nonabelian_is_rejected(self, monkeypatch):
        monkeypatch.setattr(groups.Subgroup, "is_abelian", lambda self: False)
        with pytest.raises(InternalCheckFailed, match="curly kernel of S3 is not abelian"):
            compute_wedge(S3(), WedgeVariant.CURLY)

    def test_exterior_to_curly_map_collapsed_to_the_identity_is_not_surjective(self, monkeypatch):
        G = S3()
        ext, cur = compute_wedge(G, WedgeVariant.EXTERIOR), compute_wedge(G, WedgeVariant.CURLY)
        wrap_images(monkeypatch, wedge, lambda images, target: [0] * len(images))
        with pytest.raises(InternalCheckFailed, match="exterior-to-curly map is not surjective"):
            exterior_to_curly_surjection(ext, cur)


class TestBuildGamma:
    def test_gamma_collapsed_to_the_identity_is_not_bijective(self, monkeypatch):
        G = S3()
        wr = compute_wedge(G, WedgeVariant.CURLY)
        wrap_images(monkeypatch, isoclinism, lambda images, target: [0] * len(images))
        with pytest.raises(InternalCheckFailed, match="induced map between realizations is not bijective"):
            build_gamma(identity_witness(G), wr, wr)

    def test_gamma_followed_by_inversion_breaks_the_commuting_square(self, monkeypatch):
        G = S3()
        wr = compute_wedge(G, WedgeVariant.CURLY)  # Z/3, where inversion is a bijection that moves kappa
        wrap_images(monkeypatch, isoclinism, lambda images, target: [target.inv[y] for y in images])
        with pytest.raises(InternalCheckFailed, match="commuting square fails at a realization element"):
            build_gamma(identity_witness(G), wr, wr)

    def test_gamma_swapping_the_two_kernel_elements_is_no_kernel_isomorphism(self, monkeypatch):
        G = B64()
        wr = compute_wedge(G, WedgeVariant.CURLY)
        one, z = wr.kernel.members
        assert one == 0
        swap = {0: z, z: 0}  # both lie over the identity of G', so the square still commutes
        wrap_images(monkeypatch, isoclinism, lambda images, target: [swap.get(y, y) for y in images])
        with pytest.raises(InternalCheckFailed, match="kernel restriction is not an isomorphism"):
            build_gamma(identity_witness(G), wr, wr)


class TestInconsistentOrders:
    def test_lattice_index_doubled_once_disagrees_with_the_quotient(self, monkeypatch):
        real, calls = cohomology.lattice_index, []

        def doubled_first(H, m):
            calls.append(1)
            return real(H, m) * (2 if len(calls) == 1 else 1)

        monkeypatch.setattr(cohomology, "lattice_index", doubled_first)
        with pytest.raises(InconsistentOrders, match="quotient order 2 disagrees with index ratio 4"):
            cohomology.cocycle_space(S3(), 6)

    def test_trivial_derived_subgroup_does_not_divide_h2(self, monkeypatch):
        monkeypatch.setattr(cohomology, "derived_subgroup", lambda G: Subgroup(G, (0,)))
        with pytest.raises(InconsistentOrders, match="is not divisible by \\|G\\^ab\\| = 6"):
            cohomology.multiplier_order_oracle(S3())


class TestCensusCertificates:
    @staticmethod
    def orders_read_as(monkeypatch, orders):
        monkeypatch.setattr(groups, "_element_orders", lambda G: np.array(orders))

    def test_an_element_order_doubled_gives_a_count_that_is_no_prime_power(self, monkeypatch):
        V4 = builtin("elementary", (2, 2))
        self.orders_read_as(monkeypatch, [1, 2, 2, 4])  # three solutions of x^2 = 1
        with pytest.raises(InternalCheckFailed, match="census count is not a prime power"):
            abelian_invariants(V4)

    def test_the_involution_of_z4_read_as_order_4_breaks_the_product(self, monkeypatch):
        Z4 = builtin("cyclic", (4,))
        self.orders_read_as(monkeypatch, [1, 4, 4, 4])
        with pytest.raises(InternalCheckFailed, match="invariant factors \\(4, 4\\) do not multiply to 4"):
            abelian_invariants(Z4)
