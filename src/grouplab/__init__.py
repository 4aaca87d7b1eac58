"""grouplab: invariants of finite groups via commutator pairing groups.

Builds finite groups from tables, permutations or builtin families, realises
their commutator pairing and exterior pairing groups by coset enumeration,
extracts Bogomolov kernels and Schur multiplier orders, detects isoclinism
with explicit witnesses, and cross-checks everything against a 2-cocycle
cohomology oracle.
"""

__version__ = "0.1.0"

from . import errors  # noqa: E402
from .groups import (  # noqa: E402
    AbelianInvariants,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_invariants,
    abelian_subgroups,
    build_from_permutations,
    center,
    derived_subgroup,
    direct_product,
    find_isomorphism,
    from_mul_table,
    quotient,
    relabeled,
)
from .fpgroups import (  # noqa: E402
    CosetTable,
    Presentation,
    Realization,
    presentation_from_json,
    presentation_to_json,
    realize,
    todd_coxeter,
)
from .wedge import (  # noqa: E402
    WedgeRealization,
    WedgeVariant,
    bogomolov_kernel,
    build_wedge_presentation,
    check_pairing,
    compute_wedge,
    multiplier_order,
    pairing_to_hom,
)
from .cohomology import (  # noqa: E402
    CocycleSpace,
    H2Class,
    b0_lower_bound,
    cocycle_space,
    h2_order,
    multiplier_order_oracle,
    restrict,
)
from .isoclinism import (  # noqa: E402
    GammaMap,
    IsoclinismWitness,
    are_isoclinic,
    build_gamma,
    partition_into_families,
    verify_witness,
    well_definedness_fuzz,
)
from .catalog import (  # noqa: E402
    InvariantReport,
    PipelineConfig,
    builtin,
    compute_report,
    load_catalog,
    save_catalog,
)
