"""File-driven experiment pipelines: construct / validate / stats steps or
seeded trial batches, with a run manifest recording seed and versions.

Outputs are staged in memory and written only after every step succeeds,
so a failing pipeline leaves nothing behind.
"""

from __future__ import annotations

import csv
import io
import json
import platform
from pathlib import Path

from . import __version__
from .coloring import Coloring, PosetFamily, class_stats, validate
from .constructions import (chain_family_coloring, chain_interval_coloring,
                            chain_overlap_check, incomparable_traces, lift3_coloring,
                            p3_total_coloring, pk_coloring, random_chain_family,
                            trial_seed)


def build_construction(kind: str, n: int, l: int | None = None, k: int | None = None,
                       seed: int = 0, total: bool = False, variant: str = "three_color",
                       materialize: bool = True):
    """Dispatch a generator by its CLI name."""
    if kind == "traces":
        return incomparable_traces(n, l, total=total)
    if kind == "chain":
        return chain_interval_coloring(n, l)
    if kind == "congen":
        cf = random_chain_family(n, k, l, seed)
        return chain_family_coloring(cf, materialize=materialize)
    if kind == "lift3":
        return lift3_coloring(n, variant)
    if kind == "p3":
        return p3_total_coloring(n)
    if kind == "pk":
        return pk_coloring(n, k)
    raise ValueError(f"unknown construction type {kind!r}")


def congen_trial_rows(n: int, k: int, l: int, trials: int, seed: int) -> list[dict]:
    """One row per seeded trial: overlap-condition verdict plus the exact
    (analytic) minimum class size of the resulting coloring."""
    rows = []
    for t in range(trials):
        s = trial_seed(seed, t)
        cf = random_chain_family(n, k, l, s)
        check = chain_overlap_check(cf)
        rep = chain_family_coloring(cf, materialize=False)
        rows.append({"trial": t, "seed": s, "condition_pass": check["pass"],
                     "min_class_size": rep.claimed_min})
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def stats_rows(coloring: Coloring) -> list[dict]:
    stats = class_stats(coloring)
    rows = [{"class": i + 1, "size": s} for i, s in enumerate(stats.sizes)]
    rows.append({"class": "uncolored", "size": stats.uncolored})
    return rows


def run_experiment(spec_file, outdir=None) -> dict:
    """Execute the JSON pipeline in spec_file and write its outputs plus a
    manifest under outdir.  Steps:

      {"op": "construct", "type": ..., "n": ..., "out": "name.json", ...}
      {"op": "validate", "coloring": "name.json", "forbid": "P3,V2,W2", "mode": "induced"}
      {"op": "stats", "coloring": "name.json", "out": "stats.csv"}
      {"op": "congen_trials", "n":, "k":, "l":, "trials":, "out": "trials.csv"}

    A validate step finding a rainbow witness aborts the run (set
    "allow_invalid": true to record the witness instead).
    """
    spec_path = Path(spec_file)
    if not spec_path.is_file():
        raise FileNotFoundError(f"experiment spec {spec_path} does not exist")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    steps = spec.get("pipeline")
    if not isinstance(steps, list) or not steps:
        raise ValueError("experiment spec needs a nonempty 'pipeline' list")
    out_base = Path(outdir) if outdir else Path(spec.get("outdir", spec_path.stem + "_out"))
    seed = int(spec.get("seed", 0))

    staged: dict[str, str] = {}
    colorings: dict[str, Coloring] = {}
    step_log = []

    def load_coloring(ref: str) -> Coloring:
        if ref in colorings:
            return colorings[ref]
        path = Path(ref)
        if not path.is_file():
            raise FileNotFoundError(f"step references missing coloring {ref!r}")
        return Coloring.from_json_dict(json.loads(path.read_text(encoding="utf-8")))

    for idx, step in enumerate(steps):
        op = step.get("op")
        entry = {"index": idx, "op": op}
        if op == "construct":
            report = build_construction(
                step["type"], int(step["n"]), l=step.get("l") and int(step["l"]),
                k=step.get("k") and int(step["k"]), seed=int(step.get("seed", seed)),
                total=bool(step.get("total", False)),
                variant=step.get("variant", "three_color"),
                materialize=bool(step.get("materialize", True)))
            name = step.get("out", f"construct_{idx}.json")
            staged[name] = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
            if report.coloring is not None:
                colorings[name] = report.coloring
            entry.update(type=step["type"], out=name, min_size=report.min_size)
        elif op == "validate":
            col = load_coloring(step["coloring"])
            fam = PosetFamily.from_spec(step["forbid"], step.get("mode", "induced"))
            witness = validate(col, fam)
            entry.update(coloring=step["coloring"], forbid=step["forbid"],
                         verdict="ok" if witness is None else "rainbow",
                         witness=list(witness.sets) if witness else None)
            if witness is not None and not step.get("allow_invalid", False):
                raise ValueError(f"validate step {idx} found a rainbow copy: {witness.sets}")
        elif op == "stats":
            col = load_coloring(step["coloring"])
            name = step.get("out", f"stats_{idx}.csv")
            staged[name] = _rows_to_csv(stats_rows(col))
            entry.update(coloring=step["coloring"], out=name)
        elif op == "congen_trials":
            rows = congen_trial_rows(int(step["n"]), int(step["k"]), int(step["l"]),
                                     int(step.get("trials", 100)),
                                     int(step.get("seed", seed)))
            name = step.get("out", f"trials_{idx}.csv")
            staged[name] = _rows_to_csv(rows)
            entry.update(out=name, trials=len(rows),
                         pass_rate=sum(r["condition_pass"] for r in rows) / len(rows))
        else:
            raise ValueError(f"unknown pipeline op {op!r}")
        step_log.append(entry)

    manifest = {"name": spec.get("name", spec_path.stem), "seed": seed,
                "version": __version__, "python": platform.python_version(),
                "spec_file": str(spec_path), "steps": step_log,
                "outputs": sorted(staged)}
    out_base.mkdir(parents=True, exist_ok=True)
    for name, content in staged.items():
        (out_base / name).write_text(content, encoding="utf-8")
    (out_base / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return manifest
