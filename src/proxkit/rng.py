"""Splittable, counter-based random streams.

All randomness in the toolkit flows through :class:`RandomStream`, a thin
wrapper around numpy's Philox counter-based generator. Philox is fully
specified by its 128-bit key, so two streams built from the same
``(seed, stream_id)`` pair produce identical draws on every platform, and
distinct ``stream_id`` values give statistically independent streams.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    Parameters
    ----------
    seed : int
        64-bit base seed shared by an experiment.
    stream_id : int
        64-bit substream identifier; distinct ids are independent.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = self.seed | (self.stream_id << 64)
        self._bitgen = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bitgen)

    def split(self, stream_id: int) -> "RandomStream":
        """New independent stream with the same seed."""
        return RandomStream(self.seed, stream_id)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def choice(self, n, size, replace=False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def sign(self, size=None) -> np.ndarray:
        """Uniform +/-1 draws."""
        return 2.0 * self.integers(0, 2, size=size) - 1.0
