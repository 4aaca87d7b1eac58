"""Spans around the calls from one grouplab module into another.

A traced pass replaces module attributes (``wedge.todd_coxeter``,
``cohomology.hnf_from_rows``, ...) with wrappers that record a span per
call: name, start, end, parent span and item id. Nothing in the
library is edited; ``Tracer.uninstall`` puts the originals back. Spans stay
in memory and are written out when the pass ends.

A span's self time is its duration minus the durations of its direct
children. Per-layer metrics sum self times by span name; a layer's total
is the sum over every span named after it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

LAYERS = ("catalog", "groups", "fpgroups", "wedge", "lattices", "cohomology", "isoclinism")

# (object whose attribute is wrapped, attribute, span name). The object is a
# grouplab module, or a class inside one. A span is named after the layer that
# does the work, not after the caller.
BOUNDARIES = (
    # benchmark -> catalog, and catalog -> groups / wedge / cohomology
    ("catalog", "compute_report", "catalog.compute_report"),
    ("catalog", "center", "groups.center"),
    ("catalog", "derived_subgroup", "groups.derived_subgroup"),
    ("catalog", "quotient", "groups.quotient"),
    ("catalog", "abelian_invariants", "groups.abelian_invariants"),
    ("catalog", "compute_wedge", "wedge.compute_wedge"),
    ("catalog", "h2_order", "cohomology.h2_order"),
    ("catalog", "multiplier_order_oracle", "cohomology.multiplier_order_oracle"),
    ("catalog", "b0_lower_bound", "cohomology.b0_lower_bound"),
    # benchmark -> wedge, wedge internals, and wedge -> fpgroups / groups.
    # WedgeRealization.kernel_invariants keeps its abelian_invariants call.
    ("wedge", "compute_wedge", "wedge.compute_wedge"),
    ("wedge", "build_wedge_presentation", "wedge.build_wedge_presentation"),
    ("wedge", "hom_from_generator_images", "wedge.hom_from_generator_images"),
    ("wedge.WedgeRealization", "kernel_invariants", "wedge.kernel_invariants"),
    ("wedge", "preprocess_relators", "fpgroups.preprocess_relators"),
    ("wedge", "todd_coxeter", "fpgroups.todd_coxeter"),
    ("wedge", "realize", "fpgroups.realize"),
    ("wedge", "derived_subgroup", "groups.derived_subgroup"),
    # todd_coxeter preprocesses the relators a second time
    ("fpgroups", "preprocess_relators", "fpgroups.preprocess_relators"),
    # cohomology internals, and cohomology -> lattices / groups
    ("cohomology", "cocycle_space", "cohomology.cocycle_space"),
    ("cohomology", "abelian_subgroups", "groups.abelian_subgroups"),
    ("cohomology", "derived_subgroup", "groups.derived_subgroup"),
    ("cohomology", "hnf_from_rows", "lattices.hnf_from_rows"),
    ("cohomology", "orth_complement", "lattices.orth_complement"),
    ("cohomology", "quotient_structure", "lattices.quotient_structure"),
    ("cohomology", "member_residual", "lattices.member_residual"),
    ("cohomology", "lattice_index", "lattices.lattice_index"),
    ("cohomology", "invariant_factors_from_orders", "lattices.invariant_factors_from_orders"),
    ("cohomology", "LatticeSolver", "lattices.LatticeSolver"),
    ("lattices.LatticeSolver", "solve", "lattices.LatticeSolver.solve"),
    # lattices internals: orth_complement and quotient_structure call these
    ("lattices", "hnf_from_rows", "lattices.hnf_from_rows"),
    ("lattices", "snf_mod", "lattices.snf_mod"),
    # benchmark -> isoclinism, isoclinism internals, and isoclinism -> groups / wedge
    ("isoclinism", "partition_into_families", "isoclinism.partition_into_families"),
    ("isoclinism", "are_isoclinic", "isoclinism.are_isoclinic"),
    ("isoclinism", "verify_witness", "isoclinism.verify_witness"),
    ("isoclinism", "build_gamma", "isoclinism.build_gamma"),
    ("isoclinism", "well_definedness_fuzz", "isoclinism.well_definedness_fuzz"),
    ("isoclinism", "center", "groups.center"),
    ("isoclinism", "derived_subgroup", "groups.derived_subgroup"),
    ("isoclinism", "quotient", "groups.quotient"),
    ("isoclinism", "isomorphisms_iter", "groups.isomorphisms_iter"),
    ("isoclinism", "hom_from_generator_images", "wedge.hom_from_generator_images"),
    ("isoclinism", "check_pairing", "wedge.check_pairing"),
)
# Generator functions: one span per resumption, so the span covers the search
# and not the consumer's work between two results.
GENERATORS = frozenset({"groups.isomorphisms_iter"})

# per-layer time metric -> span names whose self times it sums
TIME_METRICS = {
    "catalog.report_s": ("catalog.compute_report",),
    "wedge.present_s": ("wedge.build_wedge_presentation",),
    "wedge.kappa_s": ("wedge.hom_from_generator_images",),
    "wedge.kernel_invariants_s": ("wedge.kernel_invariants",),
    "fpgroups.preprocess_s": ("fpgroups.preprocess_relators",),
    "fpgroups.enumerate_s": ("fpgroups.todd_coxeter",),
    "fpgroups.realize_s": ("fpgroups.realize",),
    "lattices.hnf_s": ("lattices.hnf_from_rows",),
    "lattices.snf_s": ("lattices.snf_mod",),
    "cohomology.space_s": ("cohomology.cocycle_space",),
    "cohomology.b0_s": ("cohomology.b0_lower_bound",),
    "groups.abelian_subgroups_s": ("groups.abelian_subgroups",),
    "groups.structure_s": (
        "groups.center",
        "groups.derived_subgroup",
        "groups.quotient",
        "groups.abelian_invariants",
    ),
    "groups.iso_search_s": ("groups.isomorphisms_iter",),
    "isoclinism.partition_s": ("isoclinism.partition_into_families",),
    "isoclinism.witness_s": ("isoclinism.are_isoclinic",),
    "isoclinism.verify_s": ("isoclinism.verify_witness",),
    "isoclinism.gamma_s": ("isoclinism.build_gamma",),
    "isoclinism.fuzz_s": ("isoclinism.well_definedness_fuzz",),
}
# Counts that must repeat exactly for a fixed workload, seed and pass.
REPEAT_COUNTS = (
    "wedge.relators_raw",
    "wedge.relators_kept",
    "fpgroups.enumerate_calls",
    "fpgroups.cosets_final",
    "lattices.hnf_rows_in",
    "lattices.columns_max",
    "cohomology.space_calls",
    "isoclinism.witness_calls",
    "isoclinism.witnesses_found",
)


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"grouplab.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, item)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.item = ""
        self.counts: dict[str, int] = defaultdict(int)
        self._seen_spaces: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def set_item(self, item: str) -> None:
        self.item = item

    # --- recording --------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, start, end, parent, self.item)

    def _wrap(self, fn, name: str):
        count = self._counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid, parent = self._open()
                    start = time.perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, parent, name, start)
                    yield value
            finally:
                inner.close()

        return wrapper

    def _counter(self, name: str):
        def bump(key: str, by: int = 1) -> None:
            self.counts[key] += by

        if name == "wedge.build_wedge_presentation":
            def count(args, kwargs, wp):
                bump("wedge.relators_raw", wp.r1_count + wp.r2_count + wp.r3_count)
                bump("wedge.relators_kept", len(wp.presentation.relators))
        elif name == "fpgroups.todd_coxeter":
            def count(args, kwargs, table):
                bump("fpgroups.enumerate_calls")
                bump("fpgroups.cosets_final", len(table.table))
        elif name == "lattices.hnf_from_rows":
            def count(args, kwargs, H):
                rows = kwargs["rows"] if "rows" in kwargs else args[0]
                k = kwargs["k"] if "k" in kwargs else args[1]
                bump("lattices.hnf_rows_in", len(rows))
                self.counts["lattices.columns_max"] = max(self.counts["lattices.columns_max"], int(k))
        elif name == "cohomology.cocycle_space":
            def count(args, kwargs, space):
                G = kwargs["G"] if "G" in kwargs else args[0]
                m = kwargs["m"] if "m" in kwargs else args[1]
                key = (G.mul, m)
                bump("cohomology.space_calls")
                if key in self._seen_spaces:
                    bump("cohomology.space_hits")
                self._seen_spaces.add(key)
        elif name == "isoclinism.are_isoclinic":
            def count(args, kwargs, witness):
                bump("isoclinism.witness_calls")
                bump("isoclinism.witnesses_found", witness is not None)
        else:
            count = None
        return count

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        for path, attr, name in BOUNDARIES:
            owner = _resolve(path)
            original = getattr(owner, attr)
            if name in GENERATORS:
                wrapped = self._wrap_generator(original, name)
            else:
                wrapped = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- reading ----------------------------------------------------------

    def self_times(self, samples) -> tuple[dict[str, float], float]:
        """Self time per span name, and the summed time inside top-level spans.

        The clock's reference-loop samples (``samples``, as (start, end)) run
        inside whatever span is open; their time is taken off that span.
        """
        ids = range(len(self.spans))
        child = defaultdict(float)
        for sid in ids:
            span = self.spans[sid]
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        inside = 0.0
        for sid in ids:
            name, start, end, parent = self.spans[sid][:4]
            out[name] += end - start - child[sid]
            if parent < 0:
                inside += end - start
        for a, b in samples:
            holders = [sid for sid in ids if self.spans[sid][1] <= a and self.spans[sid][2] >= b]
            if holders:
                innermost = max(holders, key=lambda sid: self.spans[sid][1])
                out[self.spans[innermost][0]] -= b - a
                inside -= b - a
        return out, inside

    def pass_metrics(self, raw_wall: float, samples) -> dict[str, float]:
        """Every per-layer metric of the traced pass, except the trace.* ones."""
        selfs, inside = self.self_times(samples)
        counts = self.counts
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(selfs.get(n, 0.0) for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in selfs.items() if n.split(".", 1)[0] == layer)
        # time in the pass outside every span: the benchmark's own loop and checks
        out["bench.self_s"] = raw_wall - inside
        for key in REPEAT_COUNTS:
            out[key] = counts.get(key, 0)
        calls = counts.get("cohomology.space_calls", 0)
        out["cohomology.space_hit_ratio"] = counts.get("cohomology.space_hits", 0) / calls if calls else 0.0
        searches = counts.get("isoclinism.witness_calls", 0)
        out["isoclinism.witness_found_ratio"] = (
            counts.get("isoclinism.witnesses_found", 0) / searches if searches else 0.0
        )
        return out

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "item"],
            "spans": [list(s) for s in self.spans],
        }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Times as the median over passes; counts and ratios from pass 0.

    Pass 0's inputs depend only on the seed, so its counts repeat exactly
    however many passes fit in the run.
    """
    out = dict(per_pass[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
