"""Pinned trajectories: trace CSVs and split_ids must match the golden fixture.

Regenerate the fixture with `python tests/make_golden.py` only in a change
that deliberately alters trajectories.
"""

import json

import pytest

from make_golden import FIXTURE, digests, golden_configs

PINNED = json.loads(FIXTURE.read_text())["runs"]
CONFIGS = golden_configs()


def test_fixture_covers_every_golden_run():
    assert sorted(PINNED) == sorted(c.stem for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_trajectory_matches_golden(config):
    assert digests(config) == PINNED[config.stem]
