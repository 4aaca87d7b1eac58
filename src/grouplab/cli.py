"""Command-line interface: batch computation, verification, and dumps.

Exit codes: 0 success, 1 input error, 2 configured-cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from . import __version__
from .catalog import (
    InvariantReport,
    PipelineConfig,
    builtin,
    compute_report,
    dump_json,
    group_from_spec_dict,
    load_catalog,
    report_to_text,
)
from .cohomology import DEFAULT_ORACLE_CAP, cocycle_dump
from .errors import CapExceeded, GroupLabError, ParseError, ValidationError
from .fpgroups import DEFAULT_MAX_COSETS, presentation_to_json
from .groups import FiniteGroup
from .isoclinism import (
    are_isoclinic,
    build_gamma,
    partition_into_families,
    verify_witness,
    well_definedness_fuzz,
    witness_to_json,
)
from .wedge import (
    DEFAULT_CURLY_CAP,
    DEFAULT_EXTERIOR_CAP,
    WedgeVariant,
    build_wedge_presentation,
    compute_wedge,
)


def _env_max_cosets() -> int:
    raw = os.environ.get("GROUPLAB_MAX_COSETS")
    if raw is None:
        return DEFAULT_MAX_COSETS
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"GROUPLAB_MAX_COSETS is not an integer: {raw!r}")


def resolve_group(spec: str) -> FiniteGroup:
    """A group from 'builtin:family:params' or a spec-file path."""
    if spec.startswith("builtin:"):
        parts = spec.split(":")[1:]
        if not parts:
            raise ValidationError("empty builtin spec")
        family, raw_params = parts[0], parts[1:]
        params = [int(p) if p.lstrip("-").isdigit() else p for p in raw_params]
        label = spec.removeprefix("builtin:").replace(":", "_")
        return replace(builtin(family, params), label=label)
    path = Path(spec)
    if path.is_file():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, path=str(path), position=f"line {exc.lineno}") from exc
        return group_from_spec_dict(doc, origin=str(path))
    raise ValidationError(f"group spec {spec!r} is neither builtin:... nor a file")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        max_cosets=args.max_cosets,
        curly_cap=args.max_group_order,
        exterior_cap=args.max_exterior_order,
        oracle_cap=args.oracle_cap,
        oracle=getattr(args, "oracle", False),
        timings=getattr(args, "timings", False),
    )


def _report_job(payload: tuple[FiniteGroup, PipelineConfig]) -> InvariantReport:
    G, config = payload
    return compute_report(G, config)


def _compute_reports(
    groups: list[FiniteGroup], config: PipelineConfig, jobs: int
) -> list[InvariantReport]:
    if jobs <= 1 or len(groups) <= 1:
        return [compute_report(G, config) for G in groups]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_report_job, [(G, config) for G in groups]))


def _write(out_dir: Path, name: str, doc: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(dump_json(doc))
    return path


def cmd_compute(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    target = Path(args.group)
    if target.is_dir():
        groups = load_catalog(target)
    else:
        groups = [resolve_group(args.group)]
    reports = _compute_reports(groups, config, args.jobs)
    out_dir = Path(args.out)
    for rep in reports:
        doc = rep.to_json_dict()
        _write(out_dir, f"{rep.group}.json", doc)
        if args.format == "json":
            sys.stdout.write(dump_json(doc))
        else:
            print(report_to_text(doc))
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    groups = load_catalog(args.catalog)
    families = partition_into_families(groups)
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "families": [
            {"family_id": i, "members": [groups[j].label for j in fam]}
            for i, fam in enumerate(families)
        ],
    }
    _write(Path(args.out), "families.json", doc)
    for fam in doc["families"]:
        print(f"family {fam['family_id']}: {' '.join(fam['members'])}")
    return 0


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    groups = load_catalog(args.catalog)
    families = partition_into_families(groups)
    wedges = {}
    for G in groups:
        wedges[G.label] = compute_wedge(
            G, WedgeVariant.CURLY, max_cosets=config.max_cosets, group_cap=config.curly_cap
        )
    out_dir = Path(args.out)
    pair_rows = []
    all_pass = True
    for fam_id, fam in enumerate(families):
        for i, j in combinations(fam, 2):
            G1, G2 = groups[i], groups[j]
            row = {"family_id": fam_id, "pair": [G1.label, G2.label]}
            witness = are_isoclinic(G1, G2)
            row["witness_found"] = witness is not None
            if witness is None:
                row["pass"] = False
                all_pass = False
                pair_rows.append(row)
                continue
            w1, w2 = wedges[G1.label], wedges[G2.label]
            row["witness_valid"] = verify_witness(witness)
            inv1 = list(w1.kernel_invariants().factors)
            inv2 = list(w2.kernel_invariants().factors)
            row["kernel_invariants"] = [inv1, inv2]
            row["invariants_equal"] = inv1 == inv2
            try:
                gamma = build_gamma(witness, w1, w2)
                row["gamma_bijective"] = gamma.gamma.is_bijective()
                row["gamma_tilde_bijective"] = gamma.gamma_tilde.is_bijective()
                row["diagram_commutes"] = True
            except GroupLabError as exc:
                row["gamma_bijective"] = False
                row["gamma_tilde_bijective"] = False
                row["diagram_commutes"] = False
                row["error"] = str(exc)
            row["fuzz_stable"] = well_definedness_fuzz(
                witness, w1, w2, trials=args.fuzz_trials, seed=args.seed
            )
            wdoc = witness_to_json(witness)
            wpath = _write(out_dir / "witnesses", f"{G1.label}__{G2.label}.json", wdoc)
            row["witness_ref"] = str(wpath.name)
            row["pass"] = all(
                row[k]
                for k in (
                    "witness_valid",
                    "invariants_equal",
                    "gamma_bijective",
                    "gamma_tilde_bijective",
                    "diagram_commutes",
                    "fuzz_stable",
                )
            )
            all_pass = all_pass and row["pass"]
            pair_rows.append(row)
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "families": [
            {"family_id": i, "members": [groups[j].label for j in fam]}
            for i, fam in enumerate(families)
        ],
        "pairs": pair_rows,
        "all_pass": all_pass,
    }
    _write(out_dir, "verify_theorem.json", doc)
    for row in pair_rows:
        status = "PASS" if row["pass"] else "FAIL"
        print(f"{status}  {row['pair'][0]} ~ {row['pair'][1]} (family {row['family_id']})")
    print(f"verify-theorem: {'all pairs pass' if all_pass else 'FAILURES PRESENT'}")
    return 0 if all_pass else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    oracle_config = replace(config, oracle=True)
    groups = load_catalog(args.catalog)
    entries = []
    failures = 0
    for G in groups:
        if G.order > config.oracle_cap:
            entries.append(
                {"group": G.label, "skipped": f"order {G.order} exceeds oracle cap {config.oracle_cap}"}
            )
            continue
        rep = compute_report(G, oracle_config)
        oracle = rep.oracle
        entry = {
            "group": G.label,
            "order": G.order,
            "kernel_order": rep.kernel_order,
            "multiplier_order_oracle": oracle["multiplier_order"],
            "multiplier_order_wedge": rep.exterior["multiplier_order"] if rep.exterior else None,
            "multiplier_agrees": oracle["multiplier_agrees"],
            "b0_lower_bound": oracle["b0_lower_bound"],
            "b0_invariants": oracle["b0_invariants"],
            "b0_le_kernel": oracle["b0_le_kernel"],
            "b0_equals_kernel": oracle["b0_equals_kernel"],
        }
        if entry["multiplier_agrees"] is False:
            failures += 1
        if not entry["b0_le_kernel"]:
            failures += 1
        entries.append(entry)
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "entries": entries,
        "failures": failures,
    }
    _write(Path(args.out), "oracle.json", doc)
    for e in entries:
        if "skipped" in e:
            print(f"SKIP  {e['group']}: {e['skipped']}")
        else:
            mark = "OK " if (e.get("multiplier_agrees") in (True, None) and e["b0_le_kernel"]) else "BAD"
            print(
                f"{mark}  {e['group']}: mult_wedge={e['multiplier_order_wedge']} "
                f"mult_oracle={e['multiplier_order_oracle']} b0={e['b0_lower_bound']} "
                f"kernel={e['kernel_order']}"
            )
    return 1 if failures else 0


def cmd_dump_presentation(args: argparse.Namespace) -> int:
    G = resolve_group(args.group)
    variant = WedgeVariant.CURLY if args.variant == "curly" else WedgeVariant.EXTERIOR
    cap = args.max_group_order if variant is WedgeVariant.CURLY else args.max_exterior_order
    wp = build_wedge_presentation(G, variant, group_cap=cap)
    doc = presentation_to_json(wp.raw_presentation())
    doc["pair_generator_layout"] = "generator index = m * |G| + n for the pair (m, n)"
    doc["raw_relator_counts"] = {"crossed_left": wp.r1_count, "crossed_right": wp.r2_count, "collapsing": wp.r3_count}
    text = dump_json(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_dump_cocycles(args: argparse.Namespace) -> int:
    G = resolve_group(args.group)
    m = args.modulus if args.modulus is not None else G.order
    doc = cocycle_dump(G, m, cap=args.oracle_cap)
    text = dump_json(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-cosets", type=int, default=None, help="coset enumeration cap (env GROUPLAB_MAX_COSETS)")
    p.add_argument("--max-group-order", type=int, default=DEFAULT_CURLY_CAP, help="group-order cap for the pairing construction")
    p.add_argument("--max-exterior-order", type=int, default=DEFAULT_EXTERIOR_CAP, help="group-order cap for the exterior construction")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP, help="group-order cap for the cohomology oracle")
    p.add_argument("--out", default="reports", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplab",
        description="Pairing groups, Bogomolov kernels, multipliers and isoclinism for finite groups",
    )
    parser.add_argument("--version", action="version", version=f"grouplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute invariants for one group or a catalog directory")
    p.add_argument("group", help="builtin:family:params, a spec file, or a catalog directory")
    _add_common(p)
    p.add_argument("--oracle", action="store_true", help="also run the cohomology oracle")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for catalog runs")
    p.add_argument("--timings", action="store_true", help="record wall-clock timings in reports")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("families", help="partition a catalog into isoclinism families")
    p.add_argument("catalog")
    _add_common(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("verify-theorem", help="check kernel invariance across isoclinic pairs")
    p.add_argument("catalog")
    _add_common(p)
    p.add_argument("--fuzz-trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("oracle", help="cross-check pairing kernels against the cohomology oracle")
    p.add_argument("catalog")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-presentation", help="emit the raw pairing presentation (one generator per pair) as JSON")
    p.add_argument("group")
    p.add_argument("--variant", choices=("curly", "exterior"), default="curly")
    _add_common(p)
    p.set_defaults(func=cmd_dump_presentation, out=None)

    p = sub.add_parser("dump-cocycles", help="emit the cocycle basis and restriction data as JSON")
    p.add_argument("group")
    p.add_argument("--modulus", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_dump_cocycles, out=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_cosets", None) is None:
            args.max_cosets = _env_max_cosets()
        return args.func(args)
    except CapExceeded as exc:
        print(f"error (cap): {exc}", file=sys.stderr)
        return 2
    except GroupLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
