"""Command-line interface: batch computation, verification, and dumps.

Exit codes: 0 success, 1 input error (a usage error and an output file that
cannot be written among them), 2 configured-cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import combinations, repeat
from pathlib import Path
from typing import Sequence

from . import __version__
from .catalog import (
    PipelineConfig,
    _decimal,
    _path_is,
    _read_spec,
    builtin,
    compute_report,
    dump_json,
    load_catalog,
    report_to_text,
)
from .cohomology import DEFAULT_ORACLE_CAP, cocycle_dump
from .errors import CapExceeded, GroupLabError, ValidationError
from .fpgroups import DEFAULT_MAX_COSETS, presentation_to_json
from .groups import FiniteGroup, _check_integers
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


def resolve_group(spec: str) -> FiniteGroup:
    """A group from 'builtin:family:params' or a spec-file path."""
    if spec.startswith("builtin:"):
        family, *params = spec.removeprefix("builtin:").split(":")
        return replace(builtin(family, params), label=spec.removeprefix("builtin:").replace(":", "_"))
    if _path_is(Path.is_file, spec):
        return _read_spec(Path(spec))
    raise ValidationError(f"group spec {spec!r} is neither builtin:... nor a file")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    max_cosets = args.max_cosets
    if max_cosets is None:
        raw = os.environ.get("GROUPLAB_MAX_COSETS", str(DEFAULT_MAX_COSETS))
        try:
            max_cosets = _decimal(raw)
        except ValueError:
            raise ValidationError(f"GROUPLAB_MAX_COSETS is not an integer: {raw!r}") from None
    return PipelineConfig(
        max_cosets=max_cosets,
        curly_cap=args.max_group_order,
        exterior_cap=args.max_exterior_order,
        oracle_cap=args.oracle_cap,
        oracle=getattr(args, "oracle", False),
        timings=getattr(args, "timings", False),
    )


def _write(out_dir: Path, name: str, doc: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(dump_json(doc))
    return path


def _dump(doc: dict, out: str | None) -> int:
    """Write a dump command's document to its --out file, or to stdout."""
    if out:
        Path(out).write_text(dump_json(doc))
    else:
        sys.stdout.write(dump_json(doc))
    return 0


def _past_oracle_cap(order: int, config: PipelineConfig) -> str:
    return f"order {order} exceeds oracle cap {config.oracle_cap}"


def _families_doc(groups: list[FiniteGroup], families: list) -> list[dict]:
    return [{"family_id": i, "members": [groups[j].label for j in fam]} for i, fam in enumerate(families)]


def cmd_compute(args: argparse.Namespace) -> int:
    _check_integers((args.jobs,), "jobs", lo=1)
    config = _config_from_args(args)
    if not args.group.startswith("builtin:") and _path_is(Path.is_dir, args.group):
        groups = load_catalog(args.group)
    else:
        groups = [resolve_group(args.group)]
    if args.jobs == 1 or len(groups) <= 1:
        reports = [compute_report(G, config) for G in groups]
    else:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(groups))) as pool:  # a fork pool starts all its workers at once
            reports = list(pool.map(compute_report, groups, repeat(config)))
    for rep in reports:
        doc = rep.to_json_dict()
        _write(Path(args.out), f"{rep.group}.json", doc)
        if args.format == "json":
            sys.stdout.write(dump_json(doc))
        elif config.oracle and rep.oracle is None:  # compute_report skips the oracle exactly past its cap
            print(f"{report_to_text(doc)}  oracle=skipped ({_past_oracle_cap(rep.order, config)})")
        else:
            print(report_to_text(doc))
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    groups = load_catalog(args.catalog)
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "families": _families_doc(groups, partition_into_families(groups)),
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
    for fam_id, fam in enumerate(families):
        for i, j in combinations(fam, 2):
            G1, G2 = groups[i], groups[j]
            witness = are_isoclinic(G1, G2)
            row = {"family_id": fam_id, "pair": [G1.label, G2.label], "witness_found": witness is not None}
            pair_rows.append(row)
            if witness is None:
                row["pass"] = False
                continue
            w1, w2 = wedges[G1.label], wedges[G2.label]
            row["witness_valid"] = verify_witness(witness)
            inv1 = list(w1.kernel_invariants().factors)
            inv2 = list(w2.kernel_invariants().factors)
            row["kernel_invariants"] = [inv1, inv2]
            row["invariants_equal"] = inv1 == inv2
            try:  # build_gamma raises unless gamma and gamma~ are bijective and the diagram commutes
                build_gamma(witness, w1, w2)
            except GroupLabError as exc:
                row["error"] = str(exc)
            gamma = "error" not in row
            row["gamma_bijective"] = row["gamma_tilde_bijective"] = row["diagram_commutes"] = gamma
            row["fuzz_stable"] = well_definedness_fuzz(witness, w1, w2)
            wdoc = witness_to_json(witness)
            wpath = _write(out_dir / "witnesses", f"{G1.label}__{G2.label}.json", wdoc)
            row["witness_ref"] = str(wpath.name)
            row["pass"] = row["witness_valid"] and row["invariants_equal"] and gamma and row["fuzz_stable"]
    all_pass = all(row["pass"] for row in pair_rows)
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "families": _families_doc(groups, families),
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
    shared = ("multiplier_agrees", "b0_lower_bound", "b0_invariants", "b0_le_kernel", "b0_equals_kernel")
    entries, lines, failures = [], [], 0
    for G in groups:
        if G.order > config.oracle_cap:
            skipped = _past_oracle_cap(G.order, config)
            entries.append({"group": G.label, "skipped": skipped})
            lines.append(f"SKIP  {G.label}: {skipped}")
            continue
        rep = compute_report(G, oracle_config)
        entry = {
            "group": G.label,
            "order": G.order,
            "kernel_order": rep.kernel_order,
            "multiplier_order_oracle": rep.oracle["multiplier_order"],
            "multiplier_order_wedge": rep.exterior["multiplier_order"] if rep.exterior else None,
            **{k: rep.oracle[k] for k in shared},
        }
        # one failure each for a multiplier that disagrees (None: no wedge multiplier) and a bound over the kernel
        bad = (entry["multiplier_agrees"] is False) + (not entry["b0_le_kernel"])
        failures += bad
        entries.append(entry)
        lines.append(
            f"{'BAD' if bad else 'OK '}  {G.label}: mult_wedge={entry['multiplier_order_wedge']} "
            f"mult_oracle={entry['multiplier_order_oracle']} b0={entry['b0_lower_bound']} kernel={rep.kernel_order}"
        )
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "entries": entries,
        "failures": failures,
    }
    _write(Path(args.out), "oracle.json", doc)
    for line in lines:
        print(line)
    return 1 if failures else 0


def cmd_dump_presentation(args: argparse.Namespace) -> int:
    G = resolve_group(args.group)
    variant = WedgeVariant(args.variant)
    cap = args.max_group_order if variant is WedgeVariant.CURLY else args.max_exterior_order
    wp = build_wedge_presentation(G, variant, group_cap=cap)
    doc = presentation_to_json(wp.raw_presentation())
    doc["pair_generator_layout"] = "generator index = m * |G| + n for the pair (m, n)"
    doc["raw_relator_counts"] = {"crossed_left": wp.r1_count, "crossed_right": wp.r2_count, "collapsing": wp.r3_count}
    return _dump(doc, args.out)


def cmd_dump_cocycles(args: argparse.Namespace) -> int:
    G = resolve_group(args.group)
    m = args.modulus if args.modulus is not None else G.order
    return _dump(cocycle_dump(G, m, cap=args.oracle_cap), args.out)


# flag -> (default, help) of every cap; a command takes those that change its output
_CAPS = {
    "--max-cosets": (None, "coset enumeration cap (env GROUPLAB_MAX_COSETS)"),
    "--max-group-order": (DEFAULT_CURLY_CAP, "group-order cap for the pairing construction"),
    "--max-exterior-order": (DEFAULT_EXTERIOR_CAP, "group-order cap for the exterior construction"),
    "--oracle-cap": (DEFAULT_ORACLE_CAP, "group-order cap for the cohomology oracle"),
}


def _add_options(p: argparse.ArgumentParser, caps: Sequence[str] = tuple(_CAPS), out_dir: bool = True) -> None:
    for flag in caps:
        default, text = _CAPS[flag]
        p.add_argument(flag, type=int, default=default, help=text)
    if out_dir:
        p.add_argument("--out", default="reports", help="output directory")
    else:
        p.add_argument("--out", default=None, help="output file (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplab",
        description="Pairing groups, Bogomolov kernels, multipliers and isoclinism for finite groups",
    )
    parser.add_argument("--version", action="version", version=f"grouplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute invariants for one group or a catalog directory")
    p.add_argument("group", help="builtin:family:params, a spec file, or a catalog directory")
    _add_options(p)
    p.add_argument("--oracle", action="store_true", help="also run the cohomology oracle")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for catalog runs")
    p.add_argument("--timings", action="store_true", help="record wall-clock timings in reports")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("families", help="partition a catalog into isoclinism families")
    p.add_argument("catalog")
    _add_options(p, caps=())
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("verify-theorem", help="check kernel invariance across isoclinic pairs")
    p.add_argument("catalog")
    _add_options(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("oracle", help="cross-check pairing kernels against the cohomology oracle")
    p.add_argument("catalog")
    _add_options(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-presentation", help="emit the raw pairing presentation (one generator per pair) as JSON")
    p.add_argument("group")
    p.add_argument("--variant", choices=[v.value for v in WedgeVariant], default="curly")
    _add_options(p, caps=("--max-group-order", "--max-exterior-order"), out_dir=False)
    p.set_defaults(func=cmd_dump_presentation)

    p = sub.add_parser("dump-cocycles", help="emit the cocycle basis and restriction data as JSON")
    p.add_argument("group")
    p.add_argument("--modulus", type=int, default=None)
    _add_options(p, caps=("--oracle-cap",), out_dir=False)
    p.set_defaults(func=cmd_dump_cocycles)

    for p in sub.choices.values():  # every type=int option is read as _decimal, and still named int in a usage error
        p.register("type", int, _decimal)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error (cap): {exc}", file=sys.stderr)
        return 2
    except (GroupLabError, OSError) as exc:  # OSError: the file system refused a file, such as --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
