"""The benchmark's workloads: seeded group pools and one pass over each.

A pass is the workload's whole item list run once, one item after another
in one thread (a closed loop with a single client). Items are either one
group's report (curly-large, oracle-small) or one within-family pair check
(families-dense). The seed draws the relabeling permutation of every copy;
the pool of groups, the copy counts and the order are fixed, so every seed
does the same mathematical work under other labels. The order stays fixed
because the cocycle-space cache fills as a pass goes, so peak memory and
the cost of each oracle item depend on what ran before it.

Every call into grouplab goes through a module attribute
(``catalog.compute_report``, ``isoclinism.are_isoclinic``, ...) so that
the traced run can wrap those attributes without editing the library.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from grouplab import catalog, isoclinism, wedge
from grouplab.catalog import PipelineConfig
from grouplab.errors import GroupLabError
from grouplab.groups import FiniteGroup, relabeled

from clock import Clock
from reference import REFERENCE, check_curly_wedge, check_report

# (reference name, copies per pass)
CURLY_LARGE = (
    ("D4xD4", 1),
    ("A4xZ4", 1),
    ("D16", 2),
    ("D4xZ4", 2),
    ("Q8xZ4", 2),
    ("S4", 2),
    ("Dic6", 2),
)
ORACLE_SMALL = tuple(
    (name, 1)
    for name in (
        "D4", "Q8", "A4", "D6", "Dic3", "D8", "Dic4", "D4xZ2", "Q8xZ2", "Z2^4",
        "Z4xZ4", "D9", "D10", "Dic5", "S4", "D12", "A4xZ2",
    )
)
FAMILIES_DENSE = (
    ("S3", 40),
    ("D6", 4),
    ("Dic3", 4),
    ("D4", 8),
    ("Q8", 8),
    ("D4xZ2", 1),
    ("Q8xZ2", 1),
    ("D8", 1),
    ("Dic4", 1),
    ("D5", 3),
    ("A4", 1),
    ("D7", 1),
)

REPORT_CONFIGS = {
    "curly-large": PipelineConfig(),
    "oracle-small": PipelineConfig(oracle=True),
}
POOLS = {
    "curly-large": CURLY_LARGE,
    "oracle-small": ORACLE_SMALL,
    "families-dense": FAMILIES_DENSE,
}
# Matches the verify-theorem command's defaults.
FUZZ_TRIALS = 100
FUZZ_SEED = 0


@dataclass
class PassResult:
    wall_s: float = 0.0  # at the reference speed (see clock.py)
    raw_wall_s: float = 0.0  # as measured
    latencies: list[float] = field(default_factory=list)  # items, at the reference speed
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: list[tuple[float, float]] = field(default_factory=list)  # reference-loop runs
    _windows: list[tuple[float, float]] = field(default_factory=list)

    def record(self, item: str, t0: float, errors: list[str]) -> None:
        self._windows.append((t0, time.perf_counter()))
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{item}: {'; '.join(errors)}")

    def finish(self, clock: Clock, started: float, ended: float) -> None:
        self.wall_s = clock.scaled(started, ended)
        self.raw_wall_s = clock.raw(started, ended)
        self.latencies = [clock.scaled(t0, t1) for t0, t1 in self._windows]
        self.samples = clock.sample_windows()


class NoTracer:
    """Stand-in for spans.Tracer in untraced runs: records nothing."""

    def set_item(self, item: str) -> None:
        pass


def base_group(name: str) -> FiniteGroup:
    ref = REFERENCE[name]
    return catalog.builtin(ref.family, ref.params)


def build_pass(workload: str, seed: int, pass_index: int) -> list[tuple[str, FiniteGroup]]:
    """The pass's (reference name, relabeled group) list, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    items = []
    for name, copies in POOLS[workload]:
        G = base_group(name)
        for _ in range(copies):
            sigma = list(range(1, G.order))
            rng.shuffle(sigma)
            items.append((name, relabeled(G, [0] + sigma, label=name)))
    return items


def report_item(name: str, G: FiniteGroup, config: PipelineConfig) -> list[str]:
    """One group's report, checked against the reference; returns mismatches."""
    try:
        report = catalog.compute_report(G, config)
    except GroupLabError as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    return check_report(
        report,
        REFERENCE[name],
        exterior_cap=config.exterior_cap,
        oracle_on=config.oracle,
        oracle_cap=config.oracle_cap,
    )


def pair_item(G1: FiniteGroup, G2: FiniteGroup, w1, w2) -> list[str]:
    """The verify-theorem checks for one within-family pair."""
    if w1 is None or w2 is None:
        return []  # the failed realization is already reported
    try:
        witness = isoclinism.are_isoclinic(G1, G2)
        if witness is None:
            return ["no isoclinism witness found"]
        errors = []
        if not isoclinism.verify_witness(witness):
            errors.append("witness failed verification")
        gamma = isoclinism.build_gamma(witness, w1, w2)
        if not gamma.gamma.is_bijective():
            errors.append("gamma is not bijective")
        if not gamma.gamma_tilde.is_bijective():
            errors.append("gamma restricted to the kernels is not bijective")
        if not isoclinism.well_definedness_fuzz(witness, w1, w2, trials=FUZZ_TRIALS, seed=FUZZ_SEED):
            errors.append("gamma moved under a change of coset representatives")
        return errors
    except GroupLabError as exc:
        return [f"raised {type(exc).__name__}: {exc}"]


def run_report_pass(items, config: PipelineConfig, tracer=NoTracer(), tag: str = "p0") -> PassResult:
    res = PassResult()
    with Clock() as clock:
        started = time.perf_counter()
        for i, (name, G) in enumerate(items):
            item = f"{tag}/{i}:{name}"
            tracer.set_item(item)
            t0 = time.perf_counter()
            res.record(item, t0, report_item(name, G, config))
        ended = time.perf_counter()
    res.finish(clock, started, ended)
    return res


def _partition_errors(groups, want: list[list[int]]) -> list[str]:
    try:
        got = sorted(isoclinism.partition_into_families(groups))
    except GroupLabError as exc:
        return [f"partition raised {type(exc).__name__}: {exc}"]
    return [] if got == want else [f"partition {got} differs from the reference {want}"]


def _curly_wedge(G: FiniteGroup, name: str):
    try:
        wr = wedge.compute_wedge(G, wedge.WedgeVariant.CURLY)
    except GroupLabError as exc:
        return None, [f"curly realization raised {type(exc).__name__}: {exc}"]
    return wr, check_curly_wedge(wr, REFERENCE[name])


def run_families_pass(items, tracer=NoTracer(), tag: str = "p0") -> PassResult:
    """Partition, one curly realization per group, then every within-family pair.

    Pairs come from the reference families. A pair fails when its own checks
    fail, when the computed partition differs from the reference one, or when
    either group's curly realization failed its reference check. The
    partition and the realizations count towards the pass's wall time but
    are not items.
    """
    res = PassResult()
    names = [name for name, _ in items]
    groups = [G for _, G in items]
    want = sorted(
        sorted(i for i, n in enumerate(names) if REFERENCE[n].isoclinism == fam)
        for fam in {REFERENCE[n].isoclinism for n in names}
    )
    with Clock() as clock:
        started = time.perf_counter()
        tracer.set_item(f"{tag}/partition")
        partition_errors = _partition_errors(groups, want)
        wedges = []
        for i, G in enumerate(groups):
            tracer.set_item(f"{tag}/wedge{i}:{names[i]}")
            wedges.append(_curly_wedge(G, names[i]))
        for fam in want:
            for i, j in combinations(fam, 2):
                item = f"{tag}/{names[i]}#{i}~{names[j]}#{j}"
                tracer.set_item(item)
                t0 = time.perf_counter()
                (w1, errors1), (w2, errors2) = wedges[i], wedges[j]
                errors = pair_item(groups[i], groups[j], w1, w2)
                res.record(item, t0, partition_errors + errors1 + errors2 + errors)
        ended = time.perf_counter()
    res.finish(clock, started, ended)
    return res


def run_pass(workload: str, items, tracer=NoTracer(), tag: str = "p0") -> PassResult:
    if workload == "families-dense":
        return run_families_pass(items, tracer, tag)
    return run_report_pass(items, REPORT_CONFIGS[workload], tracer, tag)
