"""The verification battery: determinism, flag policy, report shape."""

import json

import pytest

from rainbow_lattice import verify
from rainbow_lattice.verify import DEFAULT_SEED, _congen_trend_claim, verify_suite


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
