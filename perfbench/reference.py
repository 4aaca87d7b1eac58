"""Hand-written reference invariants for every group the benchmark runs.

No value here is computed by grouplab. Orders, centers, derived subgroups
and abelianizations are the textbook ones. Schur multiplier orders M(G)
are textbook values for the factors (M(Z_n) = 1, M(Z_a x Z_b) = Z_gcd(a,b),
M(D_n) = Z_2 for even n and trivial for odd n, M(S4) = M(A4) = Z_2, and
dicyclic and quaternion groups have trivial multiplier), combined by the
Kuenneth formula M(G x H) = M(G) x M(H) x (G^ab (x) H^ab). The Bogomolov
kernel B0 is trivial for every group here: all orders are below 64 except
D4 x D4, and B0(G x H) = B0(G) x B0(H) for direct products. So the curly
realization has order |G'| and trivial kernel invariants.

Abelianizations are written as invariant factors d1 | d2 | ...; they are
compared as sorted lists, so the check does not depend on the order in
which grouplab lists them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Ref:
    name: str
    family: str  # grouplab builtin family
    params: tuple
    order: int
    center: int
    derived: int
    abelianization: tuple[int, ...]
    multiplier: int
    isoclinism: str  # isoclinism family label; "Z1" is the abelian family

    @property
    def ab_order(self) -> int:
        out = 1
        for d in self.abelianization:
            out *= d
        return out


REFERENCE: dict[str, Ref] = {
    r.name: r
    for r in (
        # isoclinism family of S3: G/Z = S3, G' = Z3
        Ref("S3", "symmetric", (3,), 6, 1, 3, (2,), 1, "S3"),
        Ref("D6", "dihedral", (6,), 12, 2, 3, (2, 2), 2, "S3"),
        Ref("Dic3", "dicyclic", (3,), 12, 2, 3, (4,), 1, "S3"),
        # family of D4: G/Z = Z2^2, G' = Z2
        Ref("D4", "dihedral", (4,), 8, 2, 2, (2, 2), 2, "D4"),
        Ref("Q8", "quaternion8", (), 8, 2, 2, (2, 2), 1, "D4"),
        # M = 2 * 1 * |Z2^2 (x) Z2| = 8
        Ref("D4xZ2", "direct_product", (("dihedral", 4), ("cyclic", 2)), 16, 4, 2, (2, 2, 2), 8, "D4"),
        # M = 1 * 1 * |Z2^2 (x) Z2| = 4
        Ref("Q8xZ2", "direct_product", (("quaternion8",), ("cyclic", 2)), 16, 4, 2, (2, 2, 2), 4, "D4"),
        # family of D8: G/Z = D4, G' = Z4
        Ref("D8", "dihedral", (8,), 16, 2, 4, (2, 2), 2, "D8"),
        Ref("Dic4", "dicyclic", (4,), 16, 2, 4, (2, 2), 1, "D8"),
        # family of D5: G/Z = D5, G' = Z5
        Ref("D5", "dihedral", (5,), 10, 1, 5, (2,), 1, "D5"),
        Ref("D10", "dihedral", (10,), 20, 2, 5, (2, 2), 2, "D5"),
        Ref("Dic5", "dicyclic", (5,), 20, 2, 5, (4,), 1, "D5"),
        Ref("D7", "dihedral", (7,), 14, 1, 7, (2,), 1, "D7"),
        Ref("D9", "dihedral", (9,), 18, 1, 9, (2,), 1, "D9"),
        Ref("A4", "alternating", (4,), 12, 1, 4, (3,), 2, "A4"),
        # M = 2 * 1 * |Z3 (x) Z2| = 2
        Ref("A4xZ2", "direct_product", (("alternating", 4), ("cyclic", 2)), 24, 2, 4, (6,), 2, "A4"),
        Ref("S4", "symmetric", (4,), 24, 1, 12, (2,), 2, "S4"),
        Ref("D12", "dihedral", (12,), 24, 2, 6, (2, 2), 2, "D12"),
        Ref("Dic6", "dicyclic", (6,), 24, 2, 6, (2, 2), 1, "D12"),
        Ref("D16", "dihedral", (16,), 32, 2, 8, (2, 2), 2, "D16"),
        # M = 2 * 1 * |Z2^2 (x) Z4| = 8
        Ref("D4xZ4", "direct_product", (("dihedral", 4), ("cyclic", 4)), 32, 8, 2, (2, 2, 4), 8, "D4"),
        # M = 1 * 1 * |Z2^2 (x) Z4| = 4
        Ref("Q8xZ4", "direct_product", (("quaternion8",), ("cyclic", 4)), 32, 8, 2, (2, 2, 4), 4, "D4"),
        # M = 2 * 1 * |Z3 (x) Z4| = 2
        Ref("A4xZ4", "direct_product", (("alternating", 4), ("cyclic", 4)), 48, 4, 4, (12,), 2, "A4"),
        # M = 2 * 2 * |Z2^2 (x) Z2^2| = 64
        Ref("D4xD4", "direct_product", (("dihedral", 4), ("dihedral", 4)), 64, 4, 4, (2, 2, 2, 2), 64, "D4xD4"),
        # abelian groups: M(Z2^4) = Z2^6, M(Z4 x Z4) = Z4
        Ref("Z2^4", "elementary", (2, 4), 16, 16, 1, (2, 2, 2, 2), 64, "Z1"),
        Ref("Z4xZ4", "direct_product", (("cyclic", 4), ("cyclic", 4)), 16, 16, 1, (4, 4), 4, "Z1"),
    )
}


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_report(report, ref: Ref, exterior_cap: int, oracle_on: bool, oracle_cap: int) -> list[str]:
    """Mismatches between an InvariantReport and the reference, as messages."""
    errors: list[str] = []
    _expect(errors, "order", report.order, ref.order)
    _expect(errors, "center_order", report.center_order, ref.center)
    _expect(errors, "derived_order", report.derived_order, ref.derived)
    _expect(errors, "abelianization", sorted(report.abelianization), sorted(ref.abelianization))
    _expect(errors, "kernel_invariants", list(report.kernel_invariants), [])
    _expect(errors, "kernel_order", report.kernel_order, 1)
    _expect(errors, "curly_order", report.curly_order, ref.derived)
    if ref.order <= exterior_cap:
        if report.exterior is None:
            errors.append("exterior data missing")
        else:
            _expect(errors, "exterior multiplier_order", report.exterior["multiplier_order"], ref.multiplier)
            _expect(errors, "exterior order", report.exterior["order"], ref.multiplier * ref.derived)
    else:
        _expect(errors, "exterior", report.exterior, None)
    if oracle_on and ref.order <= oracle_cap:
        o = report.oracle
        if o is None:
            errors.append("oracle data missing")
        else:
            _expect(errors, "oracle modulus", o["modulus"], ref.order)
            _expect(errors, "oracle multiplier_order", o["multiplier_order"], ref.multiplier)
            # With m = |G|, |H^2(G, Z/m)| = |Hom(M(G), Z/m)| * |Ext(G^ab, Z/m)| = M * |G^ab|.
            _expect(errors, "oracle h2_order", o["h2_order"], ref.multiplier * ref.ab_order)
            _expect(errors, "oracle b0_lower_bound", o["b0_lower_bound"], 1)
            _expect(errors, "oracle b0_le_kernel", o["b0_le_kernel"], True)
            _expect(errors, "oracle b0_equals_kernel", o["b0_equals_kernel"], True)
            want_agree = True if ref.order <= exterior_cap else None
            _expect(errors, "oracle multiplier_agrees", o["multiplier_agrees"], want_agree)
    else:
        _expect(errors, "oracle", report.oracle, None)
    return errors


def check_curly_wedge(wr, ref: Ref) -> list[str]:
    """Mismatches between a CURLY WedgeRealization and the reference."""
    errors: list[str] = []
    _expect(errors, "curly order", wr.order, ref.derived)
    _expect(errors, "curly kernel order", len(wr.kernel), 1)
    _expect(errors, "curly kernel invariants", list(wr.kernel_invariants().factors), [])
    return errors
