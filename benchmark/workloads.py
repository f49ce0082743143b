"""The four workloads: their inputs, their operations and the checks on
every output.

A workload builds its inputs once per set-up from the library it is given
and the benchmark seed.  One round runs the workload's whole operation
list; every round attempts the same operations.  Checks never look at
elapsed time and never compare against a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb

import checkers as K

# ---------------------------------------------------------------------------
# poset shapes, defined here rather than read back from the library


def _shape(spec: str):
    """(size, strict relations) of a builtin poset name."""
    kind, k = spec[0], int(spec[1:]) if spec[1:].isdigit() else None
    if spec == "D2":
        return 4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)})
    if kind == "A":
        return k, frozenset()
    if kind == "P":
        return k, frozenset((i, j) for i in range(k) for j in range(i + 1, k))
    if kind == "V":
        return k + 1, frozenset((0, i) for i in range(1, k + 1))
    if kind == "W":
        return k + 1, frozenset((i, 0) for i in range(1, k + 1))
    raise ValueError(f"unknown shape {spec!r}")


def shapes(spec: str):
    return [_shape(tok) for tok in spec.split(",")]


def fingerprint(assign) -> bytes:
    """Digest of a color assignment, to recognise an output already checked."""
    return hashlib.blake2b(array("q", assign).tobytes(), digest_size=16).digest()


def derive(seed: int, *parts) -> int:
    """A 31-bit seed derived from the benchmark seed and a label."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") % 2 ** 31


# ---------------------------------------------------------------------------
# published values


def a2_closed_form(n: int) -> int:
    """f(n,2,A2) for n >= 4: 2^(n/2) - 1 for even n, 2^((n-1)/2) + 1 for odd n."""
    return 2 ** (n // 2) - 1 if n % 2 == 0 else 2 ** (n // 2) + 1


def published_value(kind: str, n: int, l: int, family: frozenset) -> int | None:
    """The value the literature gives for f (kind "f") or F (kind "F"), or
    None where none is published."""
    if family == {"A2"} and l == 2 and kind == "f" and n >= 4:
        return a2_closed_form(n)
    if family == {"P2"} and l == 2 and kind == "f" and n >= 2:
        return 2 ** (n - 2)
    if family == {"P3"} and l == 3 and kind == "F" and n >= 2:
        return 2 ** (n - 2)
    if family == {"P3", "V2", "W2"} and l == 3 and kind == "f" and n >= 3:
        return 2 ** (n - 2)
    if family == {"D2"} and l == 4 and n >= 3:
        return 2 ** (n - 2)
    if len(family) == 1 and family == {f"P{l}"} and l >= 4 and kind == "f" and n >= 2:
        return 2 ** n // l
    return None


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    kind: str
    label: str
    seconds: float = 0.0
    output: object = None
    error: str = ""
    failed: bool = False


class Workload:
    name = ""

    def __init__(self):
        # verdicts by output, kept across set-ups: every set-up with the
        # same seed builds the same inputs
        self._checked: dict = {}

    def setup(self, lib, seed: int) -> None:
        raise NotImplementedError

    def operations(self, rnd: int):
        """[(kind, label, thunk)] for round rnd; the same list every round
        apart from round-seeded inputs."""
        raise NotImplementedError

    def failed(self, op: Op) -> bool:
        """Whether the operation reported failure itself."""
        return False

    def check(self, op: Op) -> list[str]:
        raise NotImplementedError

    def check_round(self, ops) -> list[str]:
        return []

    def digest(self, op: Op):
        """What the metrics need of a checked output; the output itself is
        dropped so that memory does not grow with the number of rounds."""
        return None


# ---------------------------------------------------------------------------
# exact solves


ANTICHAIN_INSTANCES = (("f", 4, 2, "A2"), ("f", 4, 3, "A3"), ("F", 4, 3, "A3"),
                       ("f", 4, 4, "A3"), ("F", 4, 4, "A3"), ("f", 5, 5, "A5"))
GENERIC_INSTANCES = (("f", 4, 2, "P2"), ("F", 4, 3, "P3"), ("f", 4, 3, "P3"),
                     ("f", 4, 3, "V2"), ("f", 4, 3, "P3,V2,W2"))


def instance_label(inst) -> str:
    kind, n, l, spec = inst
    return f"{kind}_{n}_{l}_{spec.replace(',', '-')}"


class SolveWorkload(Workload):
    instances: tuple = ()

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        order = list(self.instances)
        random.Random(derive(seed, "order")).shuffle(order)
        self.items = [(inst, lib.coloring.PosetFamily.from_spec(inst[3], "induced"))
                      for inst in order]

    def solve(self, inst, family, budget=10 ** 9):
        kind, n, l, _ = inst
        return self.lib.solver.solve_min_class(
            n, l, family, kind="partial" if kind == "f" else "total", budget=budget)

    def operations(self, rnd: int):
        return [("solve", instance_label(inst),
                 lambda inst=inst, fam=fam: self.solve(inst, fam))
                for inst, fam in self.items]

    def failed(self, op: Op) -> bool:
        return op.output.status != "optimal"

    def digest(self, op: Op):
        return op.output.nodes_explored

    def _inst(self, label):
        return next(inst for inst in self.instances if instance_label(inst) == label)

    def check(self, op: Op) -> list[str]:
        res = op.output
        key = (op.label, res.value, None if res.witness is None else fingerprint(res.witness.assign))
        if key not in self._checked:
            self._checked[key] = self._check(self._inst(op.label), res)
        return self._checked[key]

    def _check(self, inst, res) -> list[str]:
        kind, n, l, spec = inst
        problems = []
        cap = 2 ** n // l
        if res.value > cap:
            problems.append(f"value {res.value} above floor(2^n/l) = {cap}")
        want = published_value(kind, n, l, frozenset(spec.split(",")))
        if want is not None and res.value != want:
            problems.append(f"value {res.value} != published {want}")
        if res.witness is None:
            return problems + ["no witness"]
        assign = res.witness.assign
        if len(assign) != 2 ** n:
            return problems + ["witness has the wrong length"]
        if kind == "F" and 0 in assign:
            problems.append("total solve returned a partial coloring")
        counts = K.class_counts(assign, l)
        if min(counts) != res.value:
            problems.append(f"smallest class {min(counts)} != value {res.value}")
        problems += K.check_valid_coloring(assign, l, shapes(spec))
        return problems

    def check_round(self, ops) -> list[str]:
        """Total <= partial, and forbidding fewer posets never lowers the value."""
        values = {self._inst(op.label): op.output.value for op in ops
                  if not op.failed and not op.error}
        problems = []
        for a, va in values.items():
            for b, vb in values.items():
                if a[1:3] != b[1:3]:
                    continue
                fa, fb = set(a[3].split(",")), set(b[3].split(","))
                if fa == fb and a[0] == "F" and b[0] == "f" and va > vb:
                    problems.append(f"{instance_label(a)}={va} > {instance_label(b)}={vb}")
                if a[0] == b[0] and fa < fb and vb > va:
                    problems.append(f"{instance_label(b)}={vb} > {instance_label(a)}={va}")
        return problems


class SolveAntichain(SolveWorkload):
    name = "solve-antichain"
    instances = ANTICHAIN_INSTANCES


class SolvePoset(SolveWorkload):
    name = "solve-poset"
    instances = GENERIC_INSTANCES


# ---------------------------------------------------------------------------
# construct and certify

MATERIALIZE_N = (16, 17, 18)
VALID_N = (8, 9, 10)
PLANT_N = 7
PLANTS_PER_BASE = 10
LEX_LIMIT = 20_000

# name -> (forbidden spec, colors)
BASES = {"congen": ("A3", 4), "lift3-three": ("P3,V2,W2", 3), "lift3-four": ("D2", 4),
         "p3": ("P3", 3), "chain": ("A2", 2)}
GENERATORS = ("chain", "traces", "congen", "lift3-three", "lift3-four", "p3", "pk")


def _central_prefix(l: int) -> int:
    """Least m whose central binomial coefficient reaches l."""
    m = 0
    while comb(m, m // 2) < l:
        m += 1
    return m


def expected_sizes(name: str, n: int, chains=None) -> list[int]:
    """Independent class sizes of each construction."""
    if name == "chain":
        return K.chain_interval_sizes(n, 2)
    if name == "traces":
        return [2 ** (n - _central_prefix(3))] * 3
    if name == "congen":
        return K.chain_family_recount(n, 2, chains)
    if name == "lift3-three":
        return [2 ** (n - 2)] * 3
    if name == "lift3-four":
        return [2 ** (n - 2)] * 4
    if name == "p3":
        return [2 ** (n - 2), 2 ** (n - 2), 2 ** (n - 1)]
    if name == "pk":
        return [2 ** n // 4] * 4
    raise ValueError(name)


class ConstructCertify(Workload):
    name = "construct-certify"

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.seed = seed
        self.valid = [(name, n, self.build(name, n)) for n in VALID_N for name in BASES]
        self.invalid = []
        for name in BASES:
            spec, l = BASES[name]
            members = shapes(spec)
            for j in range(PLANTS_PER_BASE):
                base = self.build(name, PLANT_N, j)[1]
                rng = random.Random(derive(seed, "plant", name, j))
                size, less = members[rng.randrange(len(members))]
                assign, planted = K.plant_copy(base.coloring.assign, PLANT_N, l, size, less, rng)
                col = lib.coloring.Coloring(PLANT_N, l, assign)
                self.invalid.append((f"{name}-{j}", name, col, base.forbidden, planted))

    def build(self, name: str, n: int, j: int = 0):
        """(chain family or None, ConstructionReport) of one generator; j
        picks one of the seeded chain families for congen."""
        c = self.lib.constructions
        if name == "chain":
            return None, c.chain_interval_coloring(n, 2)
        if name == "traces":
            return None, c.incomparable_traces(n, 3)
        if name == "congen":
            cf = c.random_chain_family(n, 3, 2, derive(self.seed, "congen", n, j))
            return cf, c.chain_family_coloring(cf, materialize=True)
        if name == "lift3-three":
            return None, c.lift3_coloring(n, "three_color")
        if name == "lift3-four":
            return None, c.lift3_coloring(n, "four_color")
        if name == "p3":
            return None, c.p3_total_coloring(n)
        if name == "pk":
            return None, c.pk_coloring(n, 4)
        raise ValueError(name)

    def operations(self, rnd: int):
        validate = self.lib.coloring.validate
        ops = [("materialize", f"{name}-{n}", lambda name=name, n=n: self.build(name, n))
               for n in MATERIALIZE_N for name in GENERATORS]
        ops += [("validate_valid", f"{name}-{n}",
                 lambda rep=built[1]: validate(rep.coloring, rep.forbidden))
                for name, n, built in self.valid]
        ops += [("validate_invalid", label, lambda col=col, fam=fam: validate(col, fam))
                for label, _, col, fam, _ in self.invalid]
        return ops

    def check(self, op: Op) -> list[str]:
        if op.kind == "materialize":
            cf, rep = op.output
            assign = None if rep.coloring is None else fingerprint(rep.coloring.assign)
            key = (op.label, tuple(rep.class_sizes), assign)
        else:
            w = op.output
            key = (op.kind, op.label, None if w is None else (w.member_index, w.sets))
        if key not in self._checked:
            self._checked[key] = self._check(op)
        return self._checked[key]

    def _check(self, op: Op) -> list[str]:
        if op.kind == "materialize":
            name, n = op.label.rsplit("-", 1)
            cf, rep = op.output
            return self._check_sizes(name, int(n), cf, rep)
        if op.kind == "validate_valid":
            name, n, (cf, rep) = next(v for v in self.valid if f"{v[0]}-{v[1]}" == op.label)
            problems = [] if op.output is None else [f"valid coloring rejected: {op.output.sets}"]
            if rep.forbidden.spec_string() != BASES[name][0]:
                problems.append(f"forbidden family {rep.forbidden.spec_string()}")
            return problems + self._check_sizes(name, n, cf, rep)
        label, name, col, fam, planted = next(v for v in self.invalid if v[0] == op.label)
        w = op.output
        if w is None:
            return ["planted rainbow copy not reported"]
        members = shapes(BASES[name][0])
        if not 0 <= w.member_index < len(members):
            return [f"member index {w.member_index}"]
        return K.check_witness(col.assign, col.l, members, "induced", w.sets,
                               w.member_index, planted, LEX_LIMIT)

    def _check_sizes(self, name, n, cf, rep) -> list[str]:
        if rep.coloring is None or len(rep.coloring.assign) != 2 ** n:
            return ["coloring not materialized"]
        chains = cf.chains if cf is not None else None
        want = expected_sizes(name, n, chains)
        problems = K.check_classes(rep.coloring.assign, rep.coloring.l, want)
        if list(rep.class_sizes) != want:
            problems.append(f"reported sizes {list(rep.class_sizes)} != {want}")
        return problems


# ---------------------------------------------------------------------------
# the quick claim battery through the CLI

_SOLVE_CLAIM = re.compile(r"^solve/([fF])\((\d+),(\d+),([^)]+)\)(-lower)?$")


class VerifyQuick(Workload):
    name = "verify-quick"

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.seed = seed

    def battery_seed(self, rnd: int) -> int:
        return derive(self.seed, "battery", rnd)

    def battery(self, seed: int):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.lib.cli.main(["verify", "--profile", "quick", "--seed", str(seed)])
        return code, buf.getvalue()

    def operations(self, rnd: int):
        seed = self.battery_seed(rnd)
        return [("battery", f"seed-{seed}", lambda: self.battery(seed))]

    def failed(self, op: Op) -> bool:
        return op.output[0] != 0

    def check(self, op: Op) -> list[str]:
        problems = []
        report = json.loads(op.output[1])
        if report.get("profile") != "quick":
            problems.append(f"profile {report.get('profile')!r}")
        for e in report["entries"]:
            if not e["hard"]:
                continue
            cid, status = e["claim_id"], e["status"]
            skipped = status == "SKIPPED-budget" and e["note"] == "full profile only"
            if status != "MATCH" and not skipped:
                problems.append(f"{cid}: {status}")
            m = _SOLVE_CLAIM.match(cid)
            if m and not skipped:
                kind, n, l, fam, _ = m.groups()
                want = published_value(kind, int(n), int(l), frozenset(fam.split("+")))
                if want is not None and e["expected"] != repr(want):
                    problems.append(f"{cid}: expected {e['expected']} != published {want}")
        return problems

    def digest(self, op: Op) -> dict[str, float]:
        """Seconds per claim group, as the battery reports them."""
        out: dict[str, float] = {}
        for e in json.loads(op.output[1])["entries"]:
            group = e["claim_id"].split("/")[0]
            out[group] = out.get(group, 0.0) + e.get("seconds", 0.0)
        return out


WORKLOADS = {w.name: w for w in (SolveAntichain, SolvePoset, ConstructCertify, VerifyQuick)}
