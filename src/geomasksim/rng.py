"""Deterministic, splittable random streams for reproducible simulations.

Streams are backed by numpy's counter-based Philox generator keyed with the
pair ``(seed, stream_id)``, so an identical pair yields an identical draw
sequence on every platform and under any thread or process layout.

Stream ids are derived from ``(purpose, theta_index, rep_index)`` through a
fixed 64-bit mixing function (the splitmix64 finalizer) so that a run is
reproducible from its seed alone. The mixing constants are part of the
output contract and must not change:

    word = (purpose << 56) | (theta_index << 28) | rep_index
    stream_id = splitmix64(word)

with splitmix64 the bijective finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Because the finalizer is a bijection and the purpose/index packing is
injective (indices < 2**28), distinct triples always map to distinct
stream ids.

Philox is counter-based, so a stream is exactly its (key, counter) pair
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC '11). ``RngStream.generator`` builds a fresh generator at the start
of a stream; ``GeneratorPool`` instead re-keys generators it already has
(key (seed, stream_id), counter 0, empty buffer): the same bits, without
building a new bit generator per replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily on first use; every run draws from it)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Philox counter and output buffer of a stream's start (an empty buffer is
# one whose read position is at its end).
_ZERO4 = np.zeros(4, dtype=np.uint64)
_BUFFER_SIZE = 4

_INDEX_BITS = 28
#: bound of theta_index and rep_index, so of a run's replications per cell
MAX_INDEX = 1 << _INDEX_BITS

# Purpose codes for the word layout above. REPLICATION is the stream behind
# derive_stream(); the others key internal generation stages of the harness.
PURPOSE_REPLICATION = 1
PURPOSE_POPULATION = 2
PURPOSE_CHOICES = 3
PURPOSE_EFF_TRUE = 4
PURPOSE_EFF_MASKED = 5


def splitmix64(value: int) -> int:
    """Bijective 64-bit mixing function (the splitmix64 output finalizer)."""
    z = value & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class RngStream:
    """One deterministic draw sequence, identified by (seed, stream_id)."""

    seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= _MASK64:
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def position(self, gen: np.random.Generator) -> np.random.Generator:
        """Re-key a Philox-backed ``gen`` to the start of this stream; it then
        draws exactly what a fresh ``generator()`` draws."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": np.array([self.seed, self.stream_id], dtype=np.uint64)},
            "buffer": _ZERO4,
            "buffer_pos": _BUFFER_SIZE,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen


class GeneratorPool:
    """Philox generators reused from one replication to the next.

    ``positioned(streams)`` returns one generator per stream, each at the
    start of its stream, re-keying pooled generators and building new ones
    only when the pool is short. The generators it returns are valid until
    the next ``positioned`` call, which re-keys them.
    """

    def __init__(self):
        self._generators: list[np.random.Generator] = []

    def positioned(self, streams: list[RngStream]) -> list[np.random.Generator]:
        self._generators += [s.generator() for s in streams[len(self._generators):]]
        return [s.position(gen) for s, gen in zip(streams, self._generators)]


def _stream_for(seed: int, purpose: int, theta_index: int, rep_index: int) -> RngStream:
    if not 0 <= theta_index < MAX_INDEX:
        raise ValueError(f"theta_index out of range [0, 2**{_INDEX_BITS}): {theta_index}")
    if not 0 <= rep_index < MAX_INDEX:
        raise ValueError(f"rep_index out of range [0, 2**{_INDEX_BITS}): {rep_index}")
    word = (purpose << 56) | (theta_index << _INDEX_BITS) | rep_index
    return RngStream(seed=seed, stream_id=splitmix64(word))


def derive_stream(seed: int, theta_index: int, rep_index: int) -> RngStream:
    """Stream owned by one (theta grid cell, replication) pair."""
    return _stream_for(seed, PURPOSE_REPLICATION, theta_index, rep_index)


def population_stream(seed: int) -> RngStream:
    """Stream that generates the base population coordinates."""
    return _stream_for(seed, PURPOSE_POPULATION, 0, 0)


def choices_stream(seed: int) -> RngStream:
    """Stream that generates the binary choices (drawn once, never again)."""
    return _stream_for(seed, PURPOSE_CHOICES, 0, 0)


def efficiency_true_stream(seed: int, rep_index: int) -> RngStream:
    """Stream for one regenerated true-coordinate replication."""
    return _stream_for(seed, PURPOSE_EFF_TRUE, 0, rep_index)


def efficiency_masked_stream(seed: int, theta_index: int, rep_index: int) -> RngStream:
    """Stream for one regenerated-and-masked replication."""
    return _stream_for(seed, PURPOSE_EFF_MASKED, theta_index, rep_index)

