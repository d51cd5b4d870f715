from __future__ import annotations

import pytest

from groundplan import evaluate
from groundplan.seeds import dataset_episode_seed, episode_seed


@pytest.mark.parametrize("args, expected", [
    ((0, 0, 0, 0), 0),
    ((3, 1, 2, 4), 53_182_820),
    ((1000, 7, 1, 1), 7_385_005_967),
    ((2**62, 5, 3, 9), 4_611_686_018_474_369_147),
])
def test_online_episode_seed_is_frozen(args, expected):
    assert episode_seed(*args) == expected
    assert evaluate.episode_seed(*args) == expected


@pytest.mark.parametrize("args, expected", [
    ((0, 0, 0), 0),
    ((5, 2, 1), 5_020_030),
    ((2000, 7, 0), 2_000_076_049),
    ((2**62, 3, 4), 4_611_686_018_427_417_929),
])
def test_dataset_episode_seed_is_frozen(args, expected):
    assert dataset_episode_seed(*args) == expected
