"""Deterministic splittable random streams.

Every experiment derives all randomness from one integer seed. Substreams
are keyed by a path of labels (strings or small ints), mapped to Philox
counter-based generators through SeedSequence spawn keys, so replica k of
experiment s always sees the same stream regardless of scheduling or of
how many draws other replicas consumed.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import CapacityError, ValidationError

# cap on one experiment's array of per-replica results
REPLICA_BYTES = 1 << 27


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValidationError(f"stream path ints must be nonnegative, got {part}")
        return int(part)
    if isinstance(part, str):
        # stable across runs and platforms, unlike hash()
        return zlib.crc32(part.encode("utf-8"))
    raise ValidationError(f"stream path parts must be str or int, got {type(part).__name__}")


def substream(seed: int, *path) -> np.random.Generator:
    """Return the generator for (seed, *path). Same args, same stream."""
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    key = tuple(_key_part(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def check_replicas(replicas: int, values: int) -> None:
    """Replica count check shared by every replica loop: at least 2 for a
    standard error, and a (replicas, values) float64 result array within
    REPLICA_BYTES."""
    if replicas < 2:
        raise ValidationError(f"need replicas >= 2, got {replicas}")
    if 8 * replicas * values > REPLICA_BYTES:
        raise CapacityError(f"{replicas} replicas of {values} values exceed the "
                            f"{REPLICA_BYTES >> 20} MiB replica result budget")
