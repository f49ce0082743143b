"""Benchmark of the rainbow-lattice library.

    python3 benchmark/run.py --workload solve-poset --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One process, one thread.  Rounds of the workload's
operation list run until --seconds have passed (at least one round); every
output is checked.  The last line of standard output is one JSON object
with "correct", "attempted", "failed" and "metrics": with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics, taken from
rounds that alternate between untraced and traced.  Results and spans are
also written to benchmark/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "rainbow_lattice"
MODULES = ("lattice", "posets", "coloring", "constructions", "solver", "bounds",
           "verify", "experiments", "cli")
LAYERS = ("lattice", "posets", "coloring", "constructions", "solver", "bounds",
          "verify", "cli")
SETUPS_PER_ROUND = 3
SOLVER_SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracing import Tracer, installed  # noqa: E402


class Library:
    """The package's modules, imported afresh from SRC."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))
        where = Path(sys.modules[PACKAGE].__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"{PACKAGE} was imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# metric names


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for fn in ("solve_min_class", "az_decompose", "greedy_tuples_and_cover"):
        units[f"solver.{fn}.calls"] = "count"
        units[f"solver.{fn}.s"] = "s"
    for inst in W.ANTICHAIN_INSTANCES + W.GENERIC_INSTANCES:
        label = W.instance_label(inst)
        units[f"solver.nodes.{label}"] = "count"
        units[f"solver.nodes_per_s.{label}"] = "1/s"
        units[f"solver.setup_s.{label}"] = "s"
    units["solver.nodes_per_s.antichain"] = "1/s"
    units["solver.nodes_per_s.generic"] = "1/s"
    units["posets.embed_poset.calls.from_solver"] = "count"
    units["posets.embed_poset.calls.from_coloring"] = "count"
    units["posets.embed_poset.self_s"] = "s"
    units["posets.embed_poset.found_ratio"] = "ratio"
    for fn in ("has_rainbow", "validate"):
        units[f"coloring.{fn}.calls"] = "count"
        units[f"coloring.{fn}.s"] = "s"
    units["coloring.lexmin_overhead_s"] = "s"
    for name in W.GENERATORS:
        units[f"constructions.materialize_s.{name}"] = "s"
    units["constructions.random_chain_family.s"] = "s"
    for fn in ("subset_permutation_table", "interval_members"):
        units[f"lattice.{fn}.calls"] = "count"
        units[f"lattice.{fn}.s"] = "s"
    for fn in ("eq_sweep", "g_of_l", "delta_sequence", "solve_c0", "formula_A2"):
        units[f"bounds.{fn}.s"] = "s"
    for group in ("numeric", "solve", "construct", "sperner", "az", "cover", "order",
                  "congen"):
        units[f"verify.claims_s.{group}"] = "s"
    units["cli.overhead_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["time_to_exact_s"] = "s"
    units["nodes_to_exact"] = "count"
    units["validate_valid_s"] = "s"
    units["validate_invalid_s"] = "s"
    units["materialize_s"] = "s"
    units["verify_quick_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# rounds


def run_round(workload, rnd: int, tracer: Tracer | None):
    """All operations of one round; returns (wall seconds, ops)."""
    ops = []
    gc.collect()
    start = perf_counter()
    for kind, label, thunk in workload.operations(rnd):
        op = W.Op(kind, label)
        t0 = perf_counter()
        try:
            if tracer is None:
                op.output = thunk()
            else:
                with tracer.span(f"op.{kind}.{label}"):
                    op.output = thunk()
        except Exception:  # an operation that raises counts as failed
            op.error = traceback.format_exc(limit=3)
        op.seconds = perf_counter() - t0
        ops.append(op)
    return perf_counter() - start, ops


def check_ops(workload, ops) -> list[str]:
    """Check one round's outputs, then replace each by its digest."""
    problems = []
    for op in ops:
        op.failed = bool(op.error) or workload.failed(op)
        if not op.failed:
            problems += [f"{op.kind} {op.label}: {p}" for p in workload.check(op)]
    problems += workload.check_round(ops)
    for op in ops:
        op.output = None if op.failed else workload.digest(op)
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics


def _median_per_round(rounds, pick) -> float:
    return statistics.median(sum(op.seconds for op in ops if pick(op)) for _, ops in rounds)


def op_metrics(workload, rounds) -> dict[str, float]:
    """Metrics timed around the operations of the untraced rounds."""
    out = {}
    kinds = {op.kind for op in rounds[0][1]}
    if "solve" in kinds:
        out["time_to_exact_s"] = statistics.median(t for t, _ in rounds)
        nodes = {op.label: op.output for op in rounds[0][1]}
        out["nodes_to_exact"] = sum(nodes.values())
        secs = {}
        for label, count in nodes.items():
            secs[label] = _median_per_round(rounds, lambda op, label=label: op.label == label)
            out[f"solver.nodes.{label}"] = count
            out[f"solver.nodes_per_s.{label}"] = count / secs[label]
        path = "antichain" if workload.name == "solve-antichain" else "generic"
        out[f"solver.nodes_per_s.{path}"] = sum(nodes.values()) / sum(secs.values())
    if "materialize" in kinds:
        for kind in ("materialize", "validate_valid", "validate_invalid"):
            out[f"{kind}_s"] = _median_per_round(rounds, lambda op, kind=kind: op.kind == kind)
        for name in W.GENERATORS:
            out[f"constructions.materialize_s.{name}"] = _median_per_round(
                rounds, lambda op, name=name: op.kind == "materialize"
                and op.label.rsplit("-", 1)[0] == name)
    if "battery" in kinds:
        out["verify_quick_s"] = statistics.median(t for t, _ in rounds)
        per_group: dict[str, float] = {}
        for _, ops in rounds:
            for group, s in ops[0].output.items():
                per_group[group] = per_group.get(group, 0.0) + s / len(rounds)
        for group, s in per_group.items():
            out[f"verify.claims_s.{group}"] = s
    return out


def span_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Metrics from the spans of the traced rounds, per round."""
    totals: dict[str, dict] = {}
    for name, row in tracer.totals().items():
        base, _, caller = name.partition("@")
        for key in (base, f"{base}@{caller}") if caller else (base,):
            acc = totals.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "found": 0})
            for field in acc:
                acc[field] += row[field]

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / rounds

    out = {}
    for span in list(totals):
        if "@" in span or span.startswith("op."):
            continue
        out[f"{span}.calls"] = get(span, "calls")
        out[f"{span}.s"] = get(span, "s")
    out["posets.embed_poset.calls.from_solver"] = get("posets.embed_poset@solver", "calls")
    out["posets.embed_poset.calls.from_coloring"] = get("posets.embed_poset@coloring", "calls")
    out["posets.embed_poset.self_s"] = get("posets.embed_poset", "self_s")
    calls = get("posets.embed_poset", "calls")
    out["posets.embed_poset.found_ratio"] = get("posets.embed_poset", "found") / calls if calls else 0.0
    out["cli.overhead_s"] = get("cli.main", "s") - get("verify.verify_suite", "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(get(span, "self_s") for span in totals
                                     if "@" not in span and span.split(".")[0] == layer)
    return out


def extra_metrics(workload, untraced) -> dict[str, float]:
    """Per-layer figures that need calls of their own, made untraced."""
    out = {}
    if isinstance(workload, W.SolveWorkload):
        for inst, fam in workload.items:
            times = []
            for _ in range(SOLVER_SETUP_REPEATS):
                t0 = perf_counter()
                workload.solve(inst, fam, budget=0)
                times.append(perf_counter() - t0)
            out[f"solver.setup_s.{W.instance_label(inst)}"] = statistics.median(times)
    if isinstance(workload, W.ConstructCertify):
        has_rainbow = workload.lib.coloring.has_rainbow
        gc.collect()
        t0 = perf_counter()
        for _, _, col, fam, _ in workload.invalid:
            has_rainbow(col, fam)
        detect = perf_counter() - t0
        out["coloring.lexmin_overhead_s"] = _median_per_round(
            untraced, lambda op: op.kind == "validate_invalid") - detect
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = W.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    setup_times, untraced, traced, problems = [], [], [], []
    deadline = None
    while deadline is None or perf_counter() < deadline:
        # set-ups are spread over the run; each round uses a fresh import
        for _ in range(SETUPS_PER_ROUND):
            t0 = perf_counter()
            workload.setup(Library(), args.seed)
            setup_times.append(perf_counter() - t0)
        if deadline is None:
            deadline = perf_counter() + args.seconds
        rnd = len(untraced)
        rounds = [run_round(workload, rnd, None)]
        if tracer is not None:
            with installed(tracer):
                rounds.append(run_round(workload, rnd, tracer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _, ops in rounds:
            problems += check_ops(workload, ops)
        untraced.append(rounds[0])
        traced += rounds[1:]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    every_op = [op for _, ops in untraced + traced for op in ops]
    attempted = len(every_op)
    failed = sum(op.failed for op in every_op)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "round_s": statistics.median(t for t, _ in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0)
        if not failed:
            metrics.update(op_metrics(workload, untraced))
            metrics.update(span_metrics(tracer, len(traced)))
            metrics.update(extra_metrics(workload, untraced))
        metrics["trace.overhead_s"] = (statistics.median(t for t, _ in traced)
                                       - statistics.median(t for t, _ in untraced))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"result_{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"trace_{stem}.json.gz")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
