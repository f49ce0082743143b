"""Command-line surface: construct, detect, solve, decompose, bounds,
congen, verify, run.  JSON by default, one `key: value` line per top-level
key with --format text; --out writes to a file."""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import __version__
from . import bounds as bounds_mod
from .coloring import Coloring, PosetFamily, class_stats, validate
from .constructions import chain_overlap_check, random_chain_family
from .experiments import (CONSTRUCTIONS, build_construction, check_params, congen_trial_rows,
                          _rows_to_csv, run_experiment)
from .lattice import parse_integer, parse_subset
from .posets import build_poset, find_copy
from .solver import az_decompose, solve_min_class
from .verify import DEFAULT_SEED, verify_suite


def _render(data: dict, fmt: str) -> str:
    """JSON, or for "text" one `key: value` line per top-level key, with
    strings bare and every other value as compact JSON."""
    if fmt != "text":
        return json.dumps(data, indent=2, sort_keys=True, default=str)
    lines = []
    for key, value in sorted(data.items()):
        if not isinstance(value, str):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _claim_out(args) -> bool:
    """Open --out for appending before the command runs, so that a path it
    cannot write exits 2 at once instead of after the work; the contents are
    replaced only when the command writes.  `run` reads --out as a directory.
    Returns whether the file was made here."""
    if not args.out or args.command == "run":
        return False
    made = not os.path.lexists(args.out)
    with open(args.out, "a", encoding="utf-8"):
        pass
    return made


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(data: dict, args) -> None:
    _write(_render(data, args.format), args)


def _subsets(flag: str, raw, n: int | None = None) -> list[int]:
    """parse_subset over the items of raw, an error naming the flag."""
    try:
        return [parse_subset(v, n) for v in raw]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _json_arg(flag: str, text: str):
    """json.loads, with an integer of more digits than Python converts at
    once an error naming the flag rather than the interpreter's limit."""
    return json.loads(text, parse_int=lambda digits: parse_integer(digits, f"{flag}: integer"))


def _family_arg(value: str):
    """A family of subsets: inline JSON list or @file; literals per parse_subset."""
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            value = fh.read()
    raw = _json_arg("--family", value)
    if not isinstance(raw, list):
        raise ValueError("--family must be a JSON list of subsets")
    return _subsets("--family", raw)


def _flag(name: str) -> str:
    return "--no-materialize" if name == "materialize" else f"--{name}"


def _set(args, *flags: str) -> dict:
    """The flags given, so that each one left unset takes the library's default."""
    return {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}


# The flags each mode or op needs, and the ones it may also take; see check_params.
_DETECT_FLAGS = {"coloring": (("coloring", "forbid"), ("mode",)),
                 "family": (("family", "poset"), ("mode",))}
_BOUNDS_FLAGS = {"m": (("l",), ()), "formulaA2": (("n", "l"), ()), "entropy": (("x",), ()),
                 "c0": ((), ("tol",)), "eq": (("l", "i"), ()),
                 "known": (("n", "l", "forbid"), ("kind",))}


def _cmd_construct(args) -> int:
    report = build_construction(args.type, args.n, vars(args), _flag)
    if args.report:
        rows = [{"class": i + 1, "size": s} for i, s in enumerate(report.class_sizes)]
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_rows_to_csv(rows))
    _emit(report.to_json_dict(), args)
    return 0


def _cmd_detect(args) -> int:
    if args.coloring is not None:
        check_params("detect --coloring", _DETECT_FLAGS, "coloring", vars(args), _flag)
        with open(args.coloring, encoding="utf-8") as fh:
            col = Coloring.from_json_dict(json.load(fh))
        fam = PosetFamily.from_spec(args.forbid, args.mode)
        witness = validate(col, fam)
        out = {"verdict": "ok" if witness is None else "rainbow"}
        if witness is not None:
            out.update(sets=list(witness.sets), colors=list(witness.colors),
                       member=witness.poset.name or witness.member_index)
        _emit(out, args)
        return 0 if witness is None else 1
    check_params("detect without --coloring", _DETECT_FLAGS, "family", vars(args), _flag)
    family = _family_arg(args.family)
    poset = build_poset(args.poset)
    emb = find_copy(family, poset, args.mode)
    _emit({"found": emb is not None,
           "embedding": {str(k): v for k, v in emb.items()} if emb else None}, args)
    return 0


def _cmd_solve(args) -> int:
    fam = PosetFamily.from_spec(args.forbid, args.mode)
    res = solve_min_class(args.n, args.colors, fam, **_set(args, "kind", "budget"))
    out = res.to_json_dict()
    if res.witness is not None:
        out["witness_stats"] = list(class_stats(res.witness).sizes)
    _emit(out, args)
    return 0


def _cmd_decompose(args) -> int:
    raw = _json_arg("--families", args.families)
    if not isinstance(raw, list) or not all(isinstance(fam, list) for fam in raw):
        raise ValueError("--families must be a JSON list of lists of subsets")
    families = [_subsets("--families", fam, args.n) for fam in raw]
    dec = az_decompose(args.n, families)
    if dec is None:
        _emit({"found": False}, args)
        return 1
    _emit({"found": True, "chain": list(dec.chain),
           "parts": [sorted(p) for p in dec.parts]}, args)
    return 0


def _cmd_bounds(args) -> int:
    op = args.op
    check_params(f"bounds --op {op}", _BOUNDS_FLAGS, op, vars(args), _flag)
    if op == "m":
        out = {"l": args.l, "m": bounds_mod.m_of_l(args.l)}
    elif op == "formulaA2":
        fv = bounds_mod.formula_A2(args.n, args.l)
        out = {"n": args.n, "l": args.l, "value": fv.value, "applicable": fv.applicable,
               "note": fv.condition_note}
    elif op == "entropy":
        out = {"x": args.x, "h": bounds_mod.binary_entropy(args.x)}
    elif op == "c0":
        out = bounds_mod.solve_c0(**_set(args, "tol"))
    elif op == "eq":
        res = bounds_mod.eq_inequality_check(args.l, args.i)
        out = {"l": args.l, "i": args.i, "lhs": str(res["lhs"]),
               "rhs": str(res["rhs"]), "holds": res["holds"]}
    elif op == "known":
        fv = bounds_mod.known_value(args.n, args.l, args.forbid, **_set(args, "kind"))
        out = {"value": fv.value, "applicable": fv.applicable, "source": fv.source,
               "note": fv.condition_note}
    _emit(out, args)
    return 0


def _cmd_congen(args) -> int:
    if args.report is not None and not args.trials:
        raise ValueError("congen without --trials does not read --report")
    if args.trials:
        rows = congen_trial_rows(args.n, args.k, args.l, args.trials, args.seed, _flag)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(_rows_to_csv(rows))
        rate = sum(r["condition_pass"] for r in rows) / len(rows)
        _emit({"trials": len(rows), "condition_pass_rate": rate,
               "min_class_sizes": [r["min_class_size"] for r in rows]}, args)
        return 0
    cf = random_chain_family(args.n, args.k, args.l, args.seed)
    out = cf.to_json_dict()
    out["overlap_check"] = chain_overlap_check(cf)
    _emit(out, args)
    return 0


def _cmd_verify(args) -> int:
    report = verify_suite(profile=args.profile, seed=args.seed, **_set(args, "budget"))
    if args.format == "text":
        _write(report.render_text(), args)
    else:
        _emit(report.to_json_dict(), args)
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    manifest = run_experiment(args.spec_file, outdir=args.out)
    print(_render(manifest, args.format))
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "text"), default="json")

    top = argparse.ArgumentParser(prog="rainbow-lattice",
                                  description="rainbow-subposet-free colorings of B_n")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="generate a coloring")
    p.add_argument("--type", required=True, choices=tuple(CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--total", action="store_true", default=None)
    p.add_argument("--variant", default=None, choices=("three_color", "four_color"))
    p.add_argument("--no-materialize", dest="materialize", action="store_false", default=None)
    p.add_argument("--report", default=None, help="write class sizes CSV here")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("detect", parents=[common],
                       help="find copies / validate a coloring")
    p.add_argument("--coloring", default=None, help="coloring JSON file")
    p.add_argument("--family", default=None, help="JSON list of subsets, or @file")
    p.add_argument("--poset", default=None, help="poset spec for --family mode")
    p.add_argument("--forbid", default=None, help="forbidden family for --coloring mode")
    p.add_argument("--mode", choices=("induced", "weak"), default="induced")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("solve", parents=[common], help="exact max-min class size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--mode", choices=("induced", "weak"), default="induced")
    p.add_argument("--kind", choices=("partial", "total"), default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("decompose", parents=[common],
                       help="chain decomposition of cross-comparable families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--families", required=True, help="JSON list of lists of subsets")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("bounds", parents=[common], help="closed forms and checks")
    p.add_argument("--op", required=True,
                   choices=("m", "formulaA2", "entropy", "c0", "eq", "known"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--forbid", default=None)
    p.add_argument("--kind", choices=("partial", "total"), default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("congen", parents=[common],
                       help="random chain families and trial batches")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--report", default=None, help="write per-trial CSV here")
    p.set_defaults(fn=_cmd_congen)

    p = sub.add_parser("verify", parents=[common], help="run the claim battery")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("run", parents=[common], help="run an experiment spec file")
    p.add_argument("spec_file")
    p.set_defaults(fn=_cmd_run)

    args = top.parse_args(argv)
    with warnings.catch_warnings():
        # one line per library warning, without Python's source location and echo
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        made = False
        try:
            made = _claim_out(args)
            return args.fn(args)
        except (ValueError, OSError) as exc:  # a missing or unreadable path, or a directory
            if made:
                os.remove(args.out)
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
