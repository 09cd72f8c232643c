"""Deterministic random streams with reproducible forking.

All randomness in the package flows through :class:`Rng` so that a run is
fully determined by one master seed.  The generator is counter-based
(Philox), which numpy guarantees to produce identical streams across
platforms and BLAS builds.  ``fork`` derives an independent child stream;
because children are derived from the parent's spawn counter, the sequence
of ``fork`` calls (not wall-clock timing or thread scheduling) fixes every
downstream draw.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class Rng:
    """Seeded random stream.

    Parameters
    ----------
    seed:
        Non-negative integer master seed, or a ``numpy.random.SeedSequence``
        (used internally by :meth:`fork`).
    """

    algorithm = "philox4x64"

    def __init__(self, seed: "int | np.random.SeedSequence"):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
            self.seed = seed.entropy
        else:
            seed = int(seed)
            if seed < 0:
                raise ConfigError(f"seed must be >= 0, got {seed}")
            self.seed = seed
            self._seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def fork(self) -> "Rng":
        """Spawn an independent child stream (parent advances its spawn counter)."""
        return Rng(self._seq.spawn(1)[0])

    def normal(self, shape: "int | tuple[int, ...]" = ()) -> np.ndarray:
        """Standard normal draws, float64."""
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape: "int | tuple[int, ...]" = ()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def bernoulli(self, p_true: float, shape: "int | tuple[int, ...]" = ()) -> np.ndarray:
        """Boolean array, elementwise True with probability ``p_true``."""
        if not 0.0 <= p_true <= 1.0:
            raise ConfigError(f"bernoulli probability must be in [0, 1], got {p_true}")
        return self._gen.random(shape) < p_true

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, algorithm={self.algorithm})"
