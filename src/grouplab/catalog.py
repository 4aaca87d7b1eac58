"""Group ingestion, builtin families, reports, and batch orchestration.

Catalog files are JSON documents describing one group each, either as a
full multiplication table, as permutation generators, or as a builtin
family descriptor. Reports aggregate every invariant the library computes
for one group and serialize deterministically: two runs with the same
inputs, configuration and version produce byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .cohomology import DEFAULT_ORACLE_CAP, b0_lower_bound, h2_order, multiplier_order_oracle
from .errors import (
    InternalCheckFailed,
    ParamOutOfRange,
    ParseError,
    UnknownFamily,
    ValidationError,
)
from .fpgroups import DEFAULT_MAX_COSETS
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    _check_integers,
    _factorise,
    _tabulate,
    abelian_invariants,
    build_from_permutations,
    center,
    derived_subgroup,
    direct_product,
    from_mul_table,
    quotient,
)
from .wedge import (
    DEFAULT_CURLY_CAP,
    DEFAULT_EXTERIOR_CAP,
    WedgeVariant,
    compute_wedge,
)

SCHEMA_VERSION = 1


# --- builtin families ---------------------------------------------------------


def _metacyclic(r: int, s: int, k: int, t: int, label: str, i_outer: bool = False) -> FiniteGroup:
    """<a, b | a^r = 1, b^s = a^t, b a b^-1 = a^k> on the pairs (i, j) = a^i b^j.

    Element j*r + i is a^i b^j, or element i*s + j when i_outer.
    """
    powers = [pow(k, j, r) for j in range(s)]

    def mul(e1, e2):
        (i1, j1), (i2, j2) = e1, e2
        return ((i1 + powers[j1] * i2 + t * (j1 + j2 >= s)) % r, (j1 + j2) % s)

    pairs = [(i, j) for j in range(s) for i in range(r)]
    return _tabulate(sorted(pairs) if i_outer else pairs, mul, label)


def _cyclic(n: int) -> FiniteGroup:
    return _metacyclic(n, 1, 1, 0, f"Z{n}")


def _dihedral(n: int) -> FiniteGroup:
    return _metacyclic(n, 2, -1, 0, f"D{n}")


def _dicyclic(n: int) -> FiniteGroup:
    return _metacyclic(2 * n, 2, -1, n, f"Dic{n}")


def _symmetric(n: int) -> FiniteGroup:
    if n <= 1:
        return _cyclic(1)
    gens = [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]]
    return build_from_permutations(gens, label=f"S{n}")


def _alternating(n: int) -> FiniteGroup:
    if n <= 2:
        return _cyclic(1)
    three_cycles = []
    for c in range(2, n):
        perm = list(range(n))
        perm[0], perm[1], perm[c] = perm[1], perm[c], perm[0]
        three_cycles.append(perm)
    return build_from_permutations(three_cycles, label=f"A{n}")


def _elementary(p: int, k: int) -> FiniteGroup:
    G = _cyclic(p)
    for _ in range(k - 1):
        G = direct_product(G, _cyclic(p))
    return replace(G, label=f"E{p}^{k}")


def _extraspecial(p: int, exponent_type: str) -> FiniteGroup:
    if p not in (3, 5):
        raise ParamOutOfRange(f"extraspecial family supports p in {{3, 5}}, got {p}")
    if exponent_type == "p":
        def mul(e1, e2):
            return (
                (e1[0] + e2[0]) % p,
                (e1[1] + e2[1]) % p,
                (e1[2] + e2[2] + e1[0] * e2[1]) % p,
            )

        return _tabulate([(a, b, c) for a in range(p) for b in range(p) for c in range(p)], mul, f"ES{p}^3+")
    if exponent_type in ("p2", "p^2"):
        return _metacyclic(p * p, p, 1 + p, 0, f"ES{p}^3-", i_outer=True)
    raise ParamOutOfRange(f"extraspecial exponent type must be 'p' or 'p2', got {exponent_type!r}")


# family -> (constructor, number of integer parameters, range check). A range
# check bounds every parameter before it tests a prime or takes a power.
_FAMILIES = {
    "cyclic": (_cyclic, 1, lambda n: 1 <= n <= DEFAULT_ORDER_CAP),
    "dihedral": (_dihedral, 1, lambda n: 1 <= n and 2 * n <= DEFAULT_ORDER_CAP),
    "dicyclic": (_dicyclic, 1, lambda n: 1 <= n and 4 * n <= DEFAULT_ORDER_CAP),
    "quaternion8": (lambda: _dicyclic(2), 0, lambda: True),
    "symmetric": (_symmetric, 1, lambda n: 1 <= n <= 5),
    "alternating": (_alternating, 1, lambda n: 1 <= n <= 5),
    "elementary": (_elementary, 2, lambda p, k: 2 <= p <= DEFAULT_ORDER_CAP and 1 <= k <= 9 and p**k <= DEFAULT_ORDER_CAP and _factorise(p) == {p: 1}),
}


def _decimal(text: str) -> int:
    """A command-line integer: text read only when it is ASCII decimal digits after an optional minus sign, else ValueError."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not decimal digits: {text!r}")
    return int(text)


def _int_params(family: str, params: Sequence, count: int) -> list[int]:
    """The family's parameters as integers; ParamOutOfRange on a wrong count or type."""
    if len(params) != count:
        raise ParamOutOfRange(f"{family} takes {count} parameter(s), got {len(params)}")
    try:
        ints = [_decimal(p) if isinstance(p, str) else p for p in params]
        _check_integers(ints, "parameter", lo=None)
    except (ValueError, ValidationError):
        raise ParamOutOfRange(f"{family} parameters must be integers, got {list(params)!r}") from None
    return [int(p) for p in ints]


def builtin(family: str, params: Sequence = ()) -> FiniteGroup:
    """Construct a named builtin group family member."""
    fam = str(family).lower()
    if not isinstance(params, (list, tuple)):
        raise ParamOutOfRange(f"{family} parameters must be a list, got {params!r}")
    if fam == "extraspecial":
        if len(params) != 2:
            raise ParamOutOfRange(f"extraspecial takes 2 parameter(s), got {len(params)}")
        (p,) = _int_params(fam, params[:1], 1)
        return _extraspecial(p, str(params[1]))
    if fam == "direct_product":
        if len(params) < 2:
            raise ParamOutOfRange("direct_product needs at least two factor descriptors")
        factors = []
        for desc in params:
            if isinstance(desc, dict):
                factors.append(builtin(desc.get("family"), desc.get("params", ())))
            elif isinstance(desc, (list, tuple)) and desc:
                factors.append(builtin(desc[0], desc[1:]))
            else:
                raise ParamOutOfRange(f"bad direct_product factor descriptor: {desc!r}")
        total = math.prod(fac.order for fac in factors)
        if total > DEFAULT_ORDER_CAP:
            raise ParamOutOfRange(f"direct product order {total} exceeds the core cap {DEFAULT_ORDER_CAP}")
        return functools.reduce(direct_product, factors)
    if fam not in _FAMILIES:
        raise UnknownFamily(f"unknown builtin family {family!r}")
    build, count, in_range = _FAMILIES[fam]
    ints = _int_params(fam, params, count)
    if not in_range(*ints):
        raise ParamOutOfRange(f"{fam} parameters out of range: {ints}")
    return build(*ints)


# --- group spec files ---------------------------------------------------------


def _check_plain_name(name: str, origin: str) -> None:
    """A group name must be a plain file name: its spec file is <name>.json in the catalog directory."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ParseError(f"group name {name!r} is not a plain file name", path=origin)


def _path_is(test: Callable[[Path], bool], path: str | Path) -> bool:
    """test(Path(path)) for Path.is_dir or Path.is_file, with a path the system cannot look up a ParseError.

    Those tests raise OSError for, among others, a name longer than the file
    system allows; the error names the first 60 characters of the path.
    """
    try:
        return test(Path(path))
    except OSError as exc:
        text = str(path)
        shown = text if len(text) <= 60 else text[:60] + "..."
        raise ParseError(f"cannot look up the path: {exc.strerror}", path=shown) from None


def group_from_spec_dict(doc: dict, origin: str = "<spec>") -> FiniteGroup:
    if not isinstance(doc, dict):
        raise ParseError("spec must be a JSON object", path=origin)
    try:
        name = str(doc["name"])
        kind = str(doc["kind"])
        data = doc["data"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", path=origin) from exc
    _check_plain_name(name, origin)
    if not isinstance(data, dict):
        raise ParseError("'data' must be an object", path=origin)
    if kind == "cayley":
        table, names = data.get("table"), data.get("element_names")
        if not isinstance(table, list):
            raise ParseError("cayley data needs a 'table' array", path=origin)
        if names is not None and not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise ParseError("cayley 'element_names' must be an array of strings", path=origin)
        return from_mul_table(table, label=name, element_names=names)
    if kind == "perm":
        gens, degree = data.get("generators"), data.get("degree")
        if not isinstance(gens, list):
            raise ParseError("perm data needs a 'generators' array", path=origin)
        try:
            _check_integers(() if degree is None else (degree,), "degree", lo=None)
        except ValidationError:
            raise ParseError("perm 'degree' must be an integer", path=origin) from None
        return build_from_permutations(gens, degree=degree, label=name)
    if kind == "builtin":
        fam = data.get("family")
        if not isinstance(fam, str):
            raise ParseError("builtin data needs a 'family' name", path=origin)
        return replace(builtin(fam, data.get("params", ())), label=name)
    raise ParseError(f"unknown group kind {kind!r}", path=origin)


def _read_spec(path: Path) -> FiniteGroup:
    """The group in one spec file; ParseError names the file."""
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), position=f"line {exc.lineno} col {exc.colno}") from exc
    return group_from_spec_dict(doc, origin=str(path))


def load_catalog(path: str | Path) -> list[FiniteGroup]:
    """Load and validate all *.json group specs under a directory, name-sorted."""
    root = Path(path)
    if not _path_is(Path.is_dir, root):
        raise ParseError("catalog path is not a directory", path=str(root))
    groups: dict[str, FiniteGroup] = {}
    for f in sorted(root.glob("*.json")):
        G = _read_spec(f)
        if G.label in groups:
            raise ValidationError(f"duplicate group name {G.label!r} in catalog")
        groups[G.label] = G
    return [groups[name] for name in sorted(groups)]


def save_catalog(groups: Sequence[FiniteGroup], path: str | Path) -> list[Path]:
    """Write groups as cayley-kind spec files, after checking every label; inverse of load_catalog."""
    root = Path(path)
    for G in groups:
        _check_plain_name(G.label, str(root))
    written = []
    for G in groups:
        data = {"table": [list(row) for row in G.mul]}
        if G.element_names is not None:
            data["element_names"] = list(G.element_names)
        root.mkdir(parents=True, exist_ok=True)
        out = root / f"{G.label}.json"
        out.write_text(dump_json({"schema_version": SCHEMA_VERSION, "name": G.label, "kind": "cayley", "data": data}))
        written.append(out)
    return written


# --- configuration and reports -------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    max_cosets: int = DEFAULT_MAX_COSETS
    curly_cap: int = DEFAULT_CURLY_CAP
    exterior_cap: int = DEFAULT_EXTERIOR_CAP
    oracle_cap: int = DEFAULT_ORACLE_CAP
    oracle: bool = False
    timings: bool = False

    def __post_init__(self) -> None:  # refused here, before compute_report compares an order with a cap
        _check_integers((self.max_cosets,), "max_cosets", lo=1)
        _check_integers((self.curly_cap, self.exterior_cap), "group cap")
        _check_integers((self.oracle_cap,), "oracle cap")

    def config_hash(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k != "timings"}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class InvariantReport:
    """All computed invariants of one group, serialization-ready."""

    group: str
    order: int
    center_order: int
    derived_order: int
    abelianization: list[int]
    curly_order: int
    kernel_order: int
    kernel_invariants: list[int]
    exterior: dict | None
    oracle: dict | None
    family_id: int | None
    witness_refs: list[str]
    timing_ms: int | None
    tool_version: str
    config_hash: str

    def to_json_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION}
        doc.update(asdict(self))
        if self.curly_order != self.kernel_order * self.derived_order:
            raise InternalCheckFailed(
                f"report for {self.group} is inconsistent: "
                f"{self.curly_order} != {self.kernel_order} * {self.derived_order}"
            )
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "InvariantReport":
        data = {k: v for k, v in doc.items() if k != "schema_version"}
        names = {f.name for f in fields(InvariantReport)}
        missing, unknown = sorted(names - data.keys()), sorted(data.keys() - names)
        if missing or unknown:
            raise ValidationError(f"malformed report document: missing keys {missing}, unknown keys {unknown}")
        return InvariantReport(**data)


def compute_report(
    G: FiniteGroup, config: PipelineConfig = PipelineConfig()
) -> InvariantReport:
    """Run the full per-group pipeline under the given caps."""
    started = time.monotonic()
    Z = center(G)
    D = derived_subgroup(G)
    ab_group, _ = quotient(G, D)
    ab = abelian_invariants(ab_group)
    wr = compute_wedge(
        G, WedgeVariant.CURLY, max_cosets=config.max_cosets, group_cap=config.curly_cap
    )
    kernel_inv = wr.kernel_invariants()
    exterior: dict | None = None
    if G.order <= config.exterior_cap:
        wx = compute_wedge(
            G,
            WedgeVariant.EXTERIOR,
            max_cosets=config.max_cosets,
            group_cap=config.exterior_cap,
        )
        exterior = {"order": wx.order, "multiplier_order": len(wx.kernel)}
    oracle: dict | None = None
    if config.oracle and G.order <= config.oracle_cap:
        m = G.order
        h2, h2_inv = h2_order(G, m, cap=config.oracle_cap)
        mult = multiplier_order_oracle(G, cap=config.oracle_cap)
        b0, b0_inv = b0_lower_bound(G, m, cap=config.oracle_cap)
        oracle = {
            "modulus": m,
            "h2_order": h2,
            "h2_invariants": list(h2_inv.factors),
            "multiplier_order": mult,
            "multiplier_agrees": (
                exterior["multiplier_order"] == mult if exterior is not None else None
            ),
            "b0_lower_bound": b0,
            "b0_invariants": list(b0_inv.factors),
            "b0_le_kernel": b0 <= len(wr.kernel),
            "b0_equals_kernel": b0 == len(wr.kernel),
        }
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return InvariantReport(
        group=G.label,
        order=G.order,
        center_order=len(Z),
        derived_order=len(D),
        abelianization=list(ab.factors),
        curly_order=wr.order,
        kernel_order=len(wr.kernel),
        kernel_invariants=list(kernel_inv.factors),
        exterior=exterior,
        oracle=oracle,
        family_id=None,
        witness_refs=[],
        timing_ms=elapsed_ms if config.timings else None,
        tool_version=__version__,
        config_hash=config.config_hash(),
    )


def report_to_text(doc: dict) -> str:
    parts = [
        f"{doc['group']}: |G|={doc['order']} |Z|={doc['center_order']} "
        f"|G'|={doc['derived_order']} pairing_order={doc['curly_order']} "
        f"kernel_invariants={doc['kernel_invariants']}"
    ]
    if doc.get("exterior"):
        parts.append(f"multiplier={doc['exterior']['multiplier_order']}")
    if doc.get("oracle"):
        o = doc["oracle"]
        parts.append(
            f"oracle_mult={o['multiplier_order']} b0_bound={o['b0_lower_bound']}"
        )
    return "  ".join(parts)


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
