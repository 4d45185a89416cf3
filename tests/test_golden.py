"""Pinned outputs: trace CSVs, split_ids, result JSONs and one budget report
must match the golden fixture.

Regenerate the fixture with `python tests/make_golden.py` only in a change
that deliberately alters trajectories or artifacts.
"""

import json

import pytest

from make_golden import (
    FIXTURE,
    budget_report_digest,
    budget_report_key,
    digests,
    golden_configs,
)

FIXTURE_DATA = json.loads(FIXTURE.read_text())
PINNED = FIXTURE_DATA["runs"]
PINNED_JSON = FIXTURE_DATA["result_json"]
CONFIGS = golden_configs()


def test_fixture_covers_every_golden_run():
    stems = sorted(c.stem for c in CONFIGS)
    assert sorted(PINNED) == stems
    assert sorted(PINNED_JSON) == stems


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_trajectory_matches_golden(config):
    expected = dict(PINNED[config.stem], result_json_sha256=PINNED_JSON[config.stem])
    assert digests(config) == expected


def test_budget_report_matches_golden():
    pinned = FIXTURE_DATA["budget_reports"]
    assert pinned == {budget_report_key(): budget_report_digest()}
