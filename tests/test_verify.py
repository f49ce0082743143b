"""The verification battery: determinism, flag policy, report shape."""

import json
from dataclasses import replace

import pytest

from rainbow_lattice import verify
from rainbow_lattice.constructions import pk_coloring
from rainbow_lattice.verify import (DEFAULT_SEED, _certified_min, _congen_trend_claim,
                                    verify_suite)


@pytest.fixture(scope="module")
def quick_report():
    return verify_suite("quick", seed=DEFAULT_SEED)


def _strip_runtime(report):
    return json.dumps(report.to_json_dict(include_runtime=False), sort_keys=True)


def test_quick_profile_passes_and_is_deterministic(quick_report):
    again = verify_suite("quick", seed=DEFAULT_SEED)
    assert quick_report.ok and again.ok
    assert _strip_runtime(quick_report) == _strip_runtime(again)


def test_flagged_claims_report_but_do_not_fail(quick_report):
    by_id = {e.claim_id: e for e in quick_report.entries}
    for cid in ("solve/f(2,2,A2)", "solve/f(3,2,A2)", "numeric/c0-root-interval",
                "order/sandwich-n2"):
        entry = by_id[cid]
        assert not entry.hard
        assert entry.status == "MISMATCH"   # the recorded discrepancies
    assert quick_report.ok


def test_quick_skips_heavy_claims(quick_report):
    by_id = {e.claim_id: e for e in quick_report.entries}
    for cid in ("solve/f(5,3,A3)", "solve/f(5,3,P3)", "congen/overlap-trend"):
        assert by_id[cid].status == "SKIPPED-budget" and by_id[cid].hard
    # the forward-checked search makes these cheap enough to run every time
    for cid in ("solve/f(4,2,A2)", "solve/f(4,2,P2)", "solve/f(5,2,A2)", "solve/f(5,2,P2)"):
        assert by_id[cid].status == "MATCH" and by_id[cid].hard


def test_construct_claims_expect_the_known_values(quick_report):
    # known_value where a theorem covers the instance, else formula_min
    # (traces at (3, 3) and (6, 4))
    by_id = {e.claim_id: e for e in quick_report.entries}
    want = {"construct/chain-values": (3, 5, 7, 3), "construct/lift3-three": (2, 4, 8, 16),
            "construct/lift3-four": (2, 4, 8, 16), "construct/p3-total": (1, 2, 4, 8, 16),
            "construct/pk": (4, 3, 8), "construct/traces": (4, 1, 4, 4)}
    for cid, values in want.items():
        entry = by_id[cid]
        assert (entry.expected, entry.computed, entry.status) == (values, values, "MATCH"), cid


def test_certified_min_checks_totality_and_the_size_account():
    rep = pk_coloring(5, 5)  # five classes of 6 sets, 2 of the 32 uncolored
    assert _certified_min(rep, "partial") == 6
    assert _certified_min(rep, "total") == "invalid"
    assert _certified_min(replace(rep, class_sizes=(6, 6, 6, 6, 7)), "partial") == "invalid"


def test_every_entry_carries_a_source(quick_report):
    assert all(e.source for e in quick_report.entries)


def test_text_rendering(quick_report):
    text = quick_report.render_text()
    assert "RESULT: PASS" in text
    assert "solve/f(3,3,P3+V2+W2)" in text


def test_overlap_trend_holds_for_every_seed():
    # the paired one-sided test tolerates 100-trial sampling noise: the
    # old per-batch monotone check failed 16 of these 40 seeds
    for seed in range(1, 41):
        expected, computed, status, note = _congen_trend_claim(seed, True, 0)
        assert computed is expected is True and status is None, (seed, note)


def test_overlap_trend_catches_a_falling_rate(monkeypatch):
    # a pass rate that drops from 1 to about 1/2 past n = 30 must fail
    def falling(cf):
        return {"pass": cf.n <= 30 or not cf.chains[0][1] & 1}

    monkeypatch.setattr(verify, "chain_overlap_check", falling)
    assert _congen_trend_claim(DEFAULT_SEED, True, 0)[1] is False
