"""Named random substreams.

Every stage of a run (data generation, rollout sampling, trade tie-breaks,
bootstrap resampling) draws from its own generator derived from the single
global seed plus a stable label, so stages are reproducible independently
of one another and of execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it with the module, not at the first generator


def _label_words(label: int | str) -> tuple[int, ...]:
    """Map a label to uint32 words usable in a SeedSequence spawn key."""
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"integer substream labels must be nonnegative, got {label}")
        value = int(label)
        words = []
        while True:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
            if value == 0:
                return tuple(words)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def substream(seed: int, *labels: int | str) -> np.random.Generator:
    """Generator for the substream named by `labels` under the global `seed`.

    The same (seed, labels) pair always yields the same stream, on any
    platform, regardless of what other substreams were consumed.
    """
    key: list[int] = []
    for label in labels:
        key.extend(_label_words(label))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def replicate_seeds(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw `n` independent child seeds from `rng` in one call.

    Used for per-replicate bootstrap generators: results do not depend on
    how replicates are later chunked or shared out among worker processes.
    """
    return rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
