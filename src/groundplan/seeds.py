"""The two episode-seed mixers.

Both map loop indices to a simulator episode seed with stable integer
arithmetic, which avoids Python's hash randomization. Their constants
differ, and both formulas are frozen: a change to either changes every
output derived from the seeds it produces.
"""

from __future__ import annotations


def episode_seed(seed: int, variation_index: int, run: int, episode: int) -> int:
    """Episode seed of `evaluate.eval_online`.

    Frozen: changing it changes the OnlineResult of every evaluation seed.
    """
    return (seed * 7_368_787 + variation_index * 104_729
            + run * 15_485_863 + episode) % (2**63)


def dataset_episode_seed(seed: int, variation_index: int, episode_index: int) -> int:
    """Oracle-episode seed of dataset generation in `datasets`.

    Long-horizon generation also picks each pair's joiner template with it.
    Frozen: changing it changes the bytes of every generated dataset.
    """
    return (seed * 1_000_003 + variation_index * 10_007 + episode_index) % (2**63)
