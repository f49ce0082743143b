"""Tests of the benchmark's own checkers and tracing.

    python3 -m pytest benchmark -q

Each checker must accept a correct output and reject a deliberately wrong
one: a coloring with a planted copy, a miscounted class, a witness that is
not lexicographically least, a wrong solve value or a failed claim.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import checkers as K
import run as R
import tracing as T
import workloads as W

sys.path.insert(0, str(R.SRC))


@pytest.fixture(scope="module")
def lib():
    return R.Library()


def _planted(lib, name, n, j):
    cc = W.ConstructCertify()
    cc.lib, cc.seed = lib, 0
    base = cc.build(name, n)[1]
    spec, l = W.BASES[name]
    members = W.shapes(spec)
    rng = random.Random(j)
    size, less = members[rng.randrange(len(members))]
    assign, planted = K.plant_copy(base.coloring.assign, n, l, size, less, rng)
    return base, members, assign, planted


def test_brute_force_rejects_planted_copy(lib):
    base, members, assign, planted = _planted(lib, "lift3-three", 5, 0)
    assert K.check_valid_coloring(base.coloring.assign, 3, members) == []
    assert K.check_valid_coloring(assign, 3, members) != []


@pytest.mark.parametrize("spec", ["A2", "A3", "P3", "V2", "W2", "D2"])
def test_planter_plants_a_rainbow_copy(spec):
    size, less = W.shapes(spec)[0]
    for seed in range(20):
        assign, sets = K.plant_copy([0] * 64, 6, 4, size, less, random.Random(seed))
        assert K.is_rainbow_copy(sets, assign, size, less)
        again = K.plant_copy([0] * 64, 6, 4, size, less, random.Random(seed))
        assert again == (assign, sets)


def test_rainbow_test_needs_distinct_colors():
    size, less = W.shapes("P3")[0]
    assign = [0] * 8
    assign[0b001], assign[0b011], assign[0b111] = 1, 2, 2
    assert not K.is_rainbow_copy((0b001, 0b011, 0b111), assign, size, less)
    assign[0b111] = 3
    assert K.is_rainbow_copy((0b001, 0b011, 0b111), assign, size, less)
    assert not K.is_rainbow_copy((0b001, 0b011, 0b111), assign, *W.shapes("A3")[0])


@pytest.mark.parametrize("spec", ["A2", "A3", "P3", "V2", "D2"])
def test_lex_enumeration_matches_all_tuples(spec):
    size, less = W.shapes(spec)[0]
    for seed in range(15):
        rng = random.Random(seed)
        n = 4
        assign = [rng.randrange(5) for _ in range(1 << n)]
        colored = [s for s in range(1 << n) if assign[s]]
        want = next((t for t in combinations(colored, size)
                     if K.is_rainbow_copy(t, assign, size, less)), None)
        assert K.first_rainbow_copy(assign, size, less) == want


def test_lex_check_rejects_a_later_witness(lib):
    for j in range(20):
        _, members, assign, planted = _planted(lib, "p3", 6, j)
        least = K.least_rainbow_copy(assign, 3, members)
        if least != tuple(sorted(planted)):
            break
    else:
        pytest.fail("every planted copy was already the least")
    assert K.check_witness(assign, 3, members, "induced", least, 0, planted, None) == []
    late = K.check_witness(assign, 3, members, "induced", tuple(sorted(planted)), 0,
                           planted, None)
    assert any("not the least" in p for p in late)
    assert K.check_witness(assign, 3, members, "induced", (0, 1, 2), 0, planted, None)


def test_class_counter_rejects_miscount(lib):
    rep = lib.constructions.chain_interval_coloring(8, 2)
    sizes = K.chain_interval_sizes(8, 2)
    assert K.check_classes(rep.coloring.assign, 2, sizes) == []
    assert K.check_classes(rep.coloring.assign, 2, [sizes[0] + 1, sizes[1]]) != []
    cc = W.ConstructCertify()
    cc.lib, cc.seed = lib, 0
    cf, rep = cc.build("congen", 8)
    assert cc._check_sizes("congen", 8, cf, rep) == []
    rep.class_sizes = (rep.class_sizes[0] - 1,) + tuple(rep.class_sizes[1:])
    assert cc._check_sizes("congen", 8, cf, rep) != []


def test_solve_check_rejects_wrong_outputs(lib):
    sw = W.SolvePoset()
    inst = ("F", 4, 3, "P3")
    good = lib.constructions.p3_total_coloring(4).coloring
    ok = SimpleNamespace(value=4, witness=good, status="optimal")
    assert sw._check(inst, ok) == []
    assert sw._check(inst, SimpleNamespace(value=5, witness=good, status="optimal"))
    assign, _ = K.plant_copy(good.assign, 4, 3, *W.shapes("P3")[0], random.Random(1))
    bad = SimpleNamespace(value=4, witness=SimpleNamespace(assign=assign), status="optimal")
    assert sw._check(inst, bad)
    ops = [W.Op("solve", "F_4_3_P3", output=SimpleNamespace(value=4)),
           W.Op("solve", "f_4_3_P3", output=SimpleNamespace(value=3))]
    assert sw.check_round(ops)


def test_solve_check_rejects_a_value_off_the_closed_form(lib):
    sw = W.SolveAntichain()
    inst = ("f", 4, 2, "A2")
    rep = lib.constructions.chain_interval_coloring(4, 2)
    assert sw._check(inst, SimpleNamespace(value=3, witness=rep.coloring)) == []
    assert sw._check(inst, SimpleNamespace(value=2, witness=rep.coloring))


def test_battery_check_rejects_mismatch_and_wrong_expectation():
    entry = {"claim_id": "solve/f(4,4,P4)", "expected": "4", "computed": "4",
             "status": "MATCH", "hard": True, "note": ""}
    report = {"profile": "quick", "entries": [entry]}
    op = W.Op("battery", "x", output=(0, json.dumps(report)))
    vq = W.VerifyQuick()
    assert vq.check(op) == []
    entry["expected"] = entry["computed"] = "5"
    assert vq.check(W.Op("battery", "x", output=(0, json.dumps(report))))
    entry.update(expected="4", computed="3", status="MISMATCH")
    assert vq.check(W.Op("battery", "x", output=(0, json.dumps(report))))


def test_tracing_tells_callers_apart_and_restores(lib):
    tracer = T.Tracer()
    original = lib.solver.embed_poset
    fam = lib.coloring.PosetFamily.from_spec("P2")
    with T.installed(tracer):
        lib.solver.solve_min_class(3, 2, fam, kind="partial")
    assert lib.solver.embed_poset is original
    totals = tracer.totals()
    assert totals["posets.embed_poset@solver"]["calls"] > 0
    assert totals["posets.embed_poset@coloring"]["calls"] > 0
    solve = totals["solver.solve_min_class@solver"]
    assert 0 <= solve["self_s"] <= solve["s"]


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((Path(R.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(R.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(R.END_TO_END_UNITS.values())
    units = R.per_layer_units()
    assert [m["name"] for m in spec["per_layer"]] == list(units)
    assert [m["unit"] for m in spec["per_layer"]] == list(units.values())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
