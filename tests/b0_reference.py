"""The restriction-matrix route that the coboundary-block ``b0_lower_bound`` replaced.

``b0_by_restriction_matrices`` is the old body of
``cohomology.b0_lower_bound``: it solves every maximal abelian subgroup's
cocycle space through ``restriction_matrix``, turns column j of each
restriction matrix, times m over the order of the subgroup's generator j,
into one constraint row, and takes the kernel as the orthogonal complement
of all of them before the quotient by the coboundary relations. The tests
compare the library against it; nothing here is library code.
"""

from math import prod

import numpy as np

from grouplab.cohomology import cocycle_space, restriction_matrix
from grouplab.groups import AbelianInvariants, abelian_subgroups, invariant_factors_from_orders
from grouplab.lattices import hnf_from_rows, orth_complement, quotient_structure


def b0_by_restriction_matrices(G, m, cap):
    """(order, invariants) of the intersection of restriction kernels in H^2(G, Z/m), by restriction matrices."""
    space = cocycle_space(G, m, cap)
    s = space.rank
    if s == 0:
        return 1, AbelianInvariants(())
    constraint_rows = []
    for A in abelian_subgroups(G):
        space_A, mat = restriction_matrix(space, A)
        constraint_rows.extend((mat * (m // np.array(space_A.basis_orders, dtype=np.int64))).T)
    kernel_H = orth_complement(np.array(constraint_rows, dtype=np.int64), s, m)
    sub_H = hnf_from_rows(np.diag(np.array(space.basis_orders, dtype=np.int64)), s, m)
    diag, _ = quotient_structure(sub_H, kernel_H, m)
    return prod(diag), AbelianInvariants(invariant_factors_from_orders(diag))
