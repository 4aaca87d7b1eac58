"""Run one grouplab benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload curly-large --seed 1 --seconds 20 --trace 0

The run first times set-up in fresh interpreters, then runs passes over the
workload's item list, each in a fresh interpreter and one after another,
until --seconds have passed; it always finishes at least one pass. Pass k
draws its own relabelings from the seed. With --trace 0 it prints the
end-to-end metrics. With --trace 1 it first runs the same command untraced
in a child interpreter, then runs the passes traced and prints the
per-layer metrics, the tracing overhead among them. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Results, spans and counts also go to .perfbench_out/ at the
root of the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported; child
# interpreters inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("curly-large", "oracle-small", "families-dense")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def import_grouplab():
    """Import grouplab from this checkout's src/, and from nowhere else."""
    package = SRC / "grouplab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grouplab sources at {package}")
    sys.path.insert(0, str(SRC))
    import grouplab

    if Path(grouplab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported grouplab from {grouplab.__file__}, not {package}")
    return grouplab


def child_command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]


def run_child(cmd: list[str]) -> str:
    """Run a child interpreter to its end and return its last line of output."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child {cmd[2:]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


# --- child interpreters --------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> None:
    """Import grouplab and build pass 0's groups; print the time scaled, then raw."""
    from clock import Clock

    with Clock() as clock:
        started = time.perf_counter()
        import_grouplab()
        import workloads

        workloads.build_pass(args.workload, args.seed, 0)
        ended = time.perf_counter()
    print(clock.scaled(started, ended), clock.raw(started, ended))


def run_one_pass(args: argparse.Namespace) -> None:
    """Run pass args.pass_index, traced if asked, and print it as one JSON line."""
    import workloads

    k = args.pass_index
    items = workloads.build_pass(args.workload, args.seed, k)
    if not args.trace:
        res = workloads.run_pass(args.workload, items, tag=f"p{k}")
        layer = None
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            res = workloads.run_pass(args.workload, items, tracer, tag=f"p{k}")
        finally:
            tracer.uninstall()
        layer = tracer.pass_metrics(res.raw_wall_s, res.samples)
        layer["trace.spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}-pass{k}.json"
        path.write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps({
        "wall_s": res.wall_s,
        "raw_wall_s": res.raw_wall_s,
        "latencies": res.latencies,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layer": layer,
    }))


# --- the run -------------------------------------------------------------------


def measure_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Median set-up time over SETUP_PROBES fresh interpreters: (scaled, raw)."""
    samples = [run_child(child_command(args, "--setup-probe")).split() for _ in range(SETUP_PROBES)]
    return tuple(statistics.median(float(s[i]) for s in samples) for i in (0, 1))


def run_passes(args: argparse.Namespace) -> list[dict]:
    passes = []
    started = time.perf_counter()
    while True:
        cmd = child_command(args, "--trace", str(args.trace), "--pass", str(len(passes)))
        passes.append(json.loads(run_child(cmd)))
        if time.perf_counter() - started >= args.seconds:
            return passes


def untraced(args: argparse.Namespace) -> tuple[dict, list, dict]:
    setup_s, raw_setup_s = measure_setup(args)
    passes = run_passes(args)
    latencies = [x for p in passes for x in p["latencies"]]
    raw = {
        "setup_s": raw_setup_s,
        "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
    }
    print(f"# as measured, not scaled: setup_s={raw['setup_s']:.4f} wall_s={raw['wall_s']:.4f}")
    print(f"# passes={len(passes)} items={len(latencies)} (item_p50_s and item_p90_s are over these items)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "item_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, passes, {"as_measured": raw}


def check_repeat_counts(args: argparse.Namespace, per_pass: list[dict]) -> None:
    """Counts of each pass must equal those of every earlier traced run with this seed."""
    from spans import REPEAT_COUNTS

    path = OUT / "counts" / f"{args.workload}-seed{args.seed}.json"
    keys = REPEAT_COUNTS + ("trace.spans",)
    current = {str(k): {key: layer[key] for key in keys} for k, layer in enumerate(per_pass)}
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for k, entry in current.items():
        if k in stored and stored[k] != entry:
            diff = {key: (stored[k].get(key), v) for key, v in entry.items() if stored[k].get(key) != v}
            raise SystemExit(
                f"perfbench: counts of pass {k} differ from an earlier traced run with seed "
                f"{args.seed} (earlier, now): {diff}"
            )
    stored.update(current)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def traced(args: argparse.Namespace) -> tuple[dict, list, dict]:
    from spans import LAYERS, median_metrics

    child = json.loads(run_child(child_command(args, "--trace", "0")))
    untraced_wall = child["metrics"]["wall_s"]["value"]

    passes = run_passes(args)
    per_pass = [p["layer"] for p in passes]
    check_repeat_counts(args, per_pass)
    values = median_metrics(per_pass)
    values["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall

    shares = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
    shares["groups"] -= values["groups.iso_search_s"]
    shares["isoclinism+groups.iso_search"] = shares.pop("isoclinism") + values["groups.iso_search_s"]
    shares["bench"] = values["bench.self_s"]
    total = sum(shares.values())
    print(f"# passes={len(passes)} untraced wall_s={untraced_wall:.4f} traced wall_s={values['trace.wall_s']:.4f}")
    for name, v in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# self-time share {name:<30} {v:10.4f} s {100 * v / total:6.1f} %")
    print(f"# spans written to {OUT.relative_to(ROOT)}/spans-{args.workload}-seed{args.seed}-pass*.json")

    metrics = {}
    for name, v in values.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = (v, unit)
    return metrics, passes, {"untraced_wall_s": untraced_wall}


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pass", dest="pass_index", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0
    import_grouplab()
    if args.pass_index is not None:
        run_one_pass(args)
        return 0

    metrics, passes, extra = traced(args) if args.trace else untraced(args)
    for e in [e for p in passes for e in p["errors"]][:20]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = environment()
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.0f} {unit}" if unit == "count" else f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=len(passes), env=env, **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
