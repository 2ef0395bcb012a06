"""Deterministic splittable random streams and the replica loop.

Every experiment derives all randomness from one integer seed. Substreams
are keyed by a path of labels (strings or small ints), mapped to Philox
counter-based generators through SeedSequence spawn keys, so replica k of
experiment s always sees the same stream regardless of scheduling or of
how many draws other replicas consumed. `replicate` is the one loop over
seeded replicas, threaded by SPINCHAOS_THREADS, and `mean_se` the one
disorder average with its standard error.
"""

from __future__ import annotations

import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.random as npr  # numpy 2 loads it lazily: import it with the package

from .errors import CapacityError, ValidationError, _integer

# cap on one experiment's array of per-replica results
REPLICA_BYTES = 1 << 27


def _key_part(part) -> int:
    if isinstance(part, str):
        # stable across runs and platforms, unlike hash()
        return zlib.crc32(part.encode("utf-8"))
    if (part := _integer(part, "non-str stream path part")) < 0:
        raise ValidationError(f"stream path ints must be nonnegative, got {part}")
    return part


def substream(seed: int, *path) -> np.random.Generator:
    """Return the generator for (seed, *path). Same args, same stream."""
    if (seed := _integer(seed, "seed")) < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    key = tuple(_key_part(p) for p in path)
    ss = npr.SeedSequence(entropy=seed, spawn_key=key)
    return npr.Generator(npr.Philox(ss))


def check_replicas(replicas: int, values: int) -> None:
    """Replica count check shared by every replica loop: at least 2 for a
    standard error, and a (replicas, values) float64 result array within
    REPLICA_BYTES."""
    if _integer(replicas, "replicas") < 2:
        raise ValidationError(f"need replicas >= 2, got {replicas}")
    if 8 * replicas * values > REPLICA_BYTES:
        raise CapacityError(f"{replicas} replicas of {values} values exceed the "
                            f"{REPLICA_BYTES >> 20} MiB replica result budget")


def threads() -> int:
    """Worker count of the replica loop: SPINCHAOS_THREADS, default 1."""
    raw = os.environ.get("SPINCHAOS_THREADS", "1")
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val < 1:
        raise ValidationError(f"SPINCHAOS_THREADS must be an integer >= 1, got {raw!r}")
    return val


def replicate(one, replicas: int, values: int, seed: int, *path) -> np.ndarray:
    """(replicas, values) array whose row k is one(substream(seed, *path, k)).

    Each replica builds its generator inside its own task and rows are
    stored by index, so the result does not depend on the thread count.
    """
    check_replicas(replicas, values)
    out = np.empty((replicas, values))
    workers = threads()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = (pool.map if workers > 1 else map)(
            lambda k: one(substream(seed, *path, k)), range(replicas))
        try:
            for k, row in enumerate(rows):
                out[k] = row
        except BaseException:
            pool.shutdown(cancel_futures=True)  # a failed replica drops the queued ones
            raise
    return out


def mean_se(x: np.ndarray) -> tuple:
    """Mean over the first axis and its standard error (ddof = 1)."""
    return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(len(x))
