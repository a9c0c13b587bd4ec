"""Deterministic RNG stream derivation.

All randomness in the toolkit flows from a single integer seed. Subsystems
derive child streams from it by fixed string labels, so any subset of the
work (one trial cell, one builtin's constants) can be regenerated in
isolation and parallel execution cannot change results.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError, typed


def _label_entropy(label: str) -> int:
    # blake2s rather than hash(): stable across processes and platforms.
    return int.from_bytes(hashlib.blake2s(label.encode("utf-8")).digest()[:8], "big")


def check_seed(seed: int) -> int:
    typed(seed, int, "seed", ConfigError)
    if seed < 0:  # numpy's SeedSequence takes no negative entropy
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def substream(seed: int, *labels: str) -> np.random.Generator:
    """Return a Generator for (seed, labels), independent across label tuples."""
    entropy = [int(check_seed(seed))] + [_label_entropy(lab) for lab in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
