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


def _congen_coloring(n: int, k: int, l: int, seed: int = 0, **options):
    return chain_family_coloring(random_chain_family(n, k, l, seed), **options)


# Each construction type: its generator, the parameters it needs and those it
# may also take.  Only the ones set are passed on, so each default is the generator's.
CONSTRUCTIONS = {
    "traces": (incomparable_traces, ("l",), ("total",)),
    "chain": (chain_interval_coloring, ("l",), ()),
    "congen": (_congen_coloring, ("k", "l"), ("seed", "materialize")),
    "lift3": (lift3_coloring, (), ("variant",)),
    "p3": (p3_total_coloring, (), ()),
    "pk": (pk_coloring, ("k",), ()),
}


def check_params(what: str, table: dict, key: str, params: dict, spell=repr) -> dict:
    """The params that key's row of table reads and that are set (not None).  A row
    ends with the names it needs and those it may also take; a ValueError names, as
    spell writes it, a needed one left unset or a set one only other rows read."""
    *_, needs, takes = table[key]
    given = {name: params[name] for name in needs + takes if params.get(name) is not None}
    unread = [name for row in table.values() for name in row[-2] + row[-1]
              if name not in given and params.get(name) is not None]
    for verb, names in (("needs", [name for name in needs if name not in given]),
                        ("does not read", unread)):
        if names:
            raise ValueError(f"{what} {verb} {spell(names[0])}")
    return given


def build_construction(kind: str, n: int, params: dict, spell=repr):
    """Run the generator of a construction type on the params set; see check_params."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction type {kind!r}")
    given = check_params(f"construction type {kind!r}", CONSTRUCTIONS, kind, params, spell)
    return CONSTRUCTIONS[kind][0](n, **given)


def congen_trial_rows(n: int, k: int, l: int, trials: int, seed: int,
                      spell=repr) -> list[dict]:
    """One row per seeded trial: overlap-condition verdict plus the exact
    (analytic) minimum class size of the resulting coloring.  A ValueError
    names the trial count, as spell writes it, when it is below 1."""
    if trials < 1:
        raise ValueError(f"{spell('trials')} must be at least 1, got {trials}")
    rows = []
    for t in range(trials):
        s = trial_seed(seed, t)
        cf = random_chain_family(n, k, l, s)
        check = chain_overlap_check(cf)
        rep = chain_family_coloring(cf, materialize=False)
        rows.append({"trial": t, "seed": s, "condition_pass": check["pass"],
                     "min_class_size": rep.min_size})
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


_REQUIRED = object()
_JSON_TYPES = {int: "an integer", str: "a string", bool: "true or false"}


def _field(obj: dict, where: str, key: str, json_type: type, default=_REQUIRED):
    """obj[key], of json_type (int, str or bool), or default when it is
    absent or null; a ValueError names where and the field when a required
    one is missing or the value has another type."""
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{where} needs field {key!r}")
        return default
    if type(value) is not json_type:  # true is no int, a float would truncate
        raise ValueError(f"{where}: field {key!r} must be {_JSON_TYPES[json_type]}, got {value!r}")
    return value


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
        raise FileNotFoundError(f"experiment spec {spec_path} is not a file")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    steps = spec.get("pipeline") if isinstance(spec, dict) else None
    if not isinstance(steps, list) or not steps:
        raise ValueError("experiment spec needs a nonempty 'pipeline' list")
    spec_outdir = _field(spec, "experiment spec", "outdir", str, spec_path.stem + "_out")
    out_base = Path(outdir or spec_outdir)
    seed = _field(spec, "experiment spec", "seed", int, 0)

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
        if not isinstance(step, dict):
            raise ValueError(f"pipeline step {idx} is not a JSON object")
        op = step.get("op")
        where = f"pipeline step {idx} ({op})"
        entry = {"index": idx, "op": op}
        if op == "construct":
            kind = _field(step, where, "type", str)
            params = {key: _field(step, where, key, typ, None) for key, typ in
                      (("l", int), ("k", int), ("seed", int), ("total", bool),
                       ("materialize", bool), ("variant", str))}
            if params["seed"] is None and "seed" in CONSTRUCTIONS.get(kind, (None, (), ()))[2]:
                params["seed"] = seed
            report = build_construction(kind, _field(step, where, "n", int), params,
                                        lambda key: f"field {key!r}")
            out = _field(step, where, "out", str, f"construct_{idx}.json")
            staged[out] = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
            if report.coloring is not None:
                colorings[out] = report.coloring
            entry.update(type=kind, out=out, min_size=report.min_size)
        elif op == "validate":
            ref, forbid = _field(step, where, "coloring", str), _field(step, where, "forbid", str)
            col = load_coloring(ref)
            fam = PosetFamily.from_spec(forbid, _field(step, where, "mode", str, "induced"))
            witness = validate(col, fam)
            entry.update(coloring=ref, forbid=forbid,
                         verdict="ok" if witness is None else "rainbow",
                         witness=list(witness.sets) if witness else None)
            if witness is not None and not _field(step, where, "allow_invalid", bool, False):
                raise ValueError(f"validate step {idx} found a rainbow copy: {witness.sets}")
        elif op == "stats":
            ref = _field(step, where, "coloring", str)
            col = load_coloring(ref)
            out = _field(step, where, "out", str, f"stats_{idx}.csv")
            staged[out] = _rows_to_csv(stats_rows(col))
            entry.update(coloring=ref, out=out)
        elif op == "congen_trials":
            rows = congen_trial_rows(*(_field(step, where, key, int) for key in ("n", "k", "l")),
                                     _field(step, where, "trials", int, 100),
                                     _field(step, where, "seed", int, seed),
                                     lambda key: f"{where}: field {key!r}")
            out = _field(step, where, "out", str, f"trials_{idx}.csv")
            staged[out] = _rows_to_csv(rows)
            entry.update(out=out, trials=len(rows),
                         pass_rate=sum(r["condition_pass"] for r in rows) / len(rows))
        else:
            raise ValueError(f"unknown pipeline op {op!r}")
        step_log.append(entry)

    manifest = {"name": _field(spec, "experiment spec", "name", str, spec_path.stem),
                "seed": seed, "version": __version__, "python": platform.python_version(),
                "spec_file": str(spec_path), "steps": step_log, "outputs": sorted(staged)}
    out_base.mkdir(parents=True, exist_ok=True)
    for name, content in staged.items():
        (out_base / name).write_text(content, encoding="utf-8")
    (out_base / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return manifest
