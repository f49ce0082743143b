"""The verification battery: determinism, flag policy, report shape."""

import json

import pytest

from rainbow_lattice.verify import DEFAULT_SEED, verify_suite


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
    assert by_id["solve/f(5,2,P2)"].status == "SKIPPED-budget"
    assert by_id["congen/overlap-trend"].status == "SKIPPED-budget"
    # the forward-checked search makes these cheap enough to run every time
    for cid in ("solve/f(4,2,A2)", "solve/f(4,2,P2)", "solve/f(5,2,A2)"):
        assert by_id[cid].status == "MATCH" and by_id[cid].hard


def test_every_entry_carries_a_source(quick_report):
    assert all(e.source for e in quick_report.entries)


def test_text_rendering(quick_report):
    text = quick_report.render_text()
    assert "RESULT: PASS" in text
    assert "solve/f(3,3,P3+V2+W2)" in text
