"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox generator whose
128-bit key encodes (global seed, replica index, module tag).  Distinct keys
give statistically independent streams, so replicas are reproducible and can
be generated in any order or in parallel without coordination.
"""

import functools
import hashlib

import numpy as np
# numpy 2 imports its random subpackage on first attribute access; every
# simulation draws from it, so it loads with this module, not on a first draw
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x):
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=256)
def tag_hash(tag):
    """Stable 64-bit hash of a module tag string."""
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream_key(seed, replica=0, tag="field"):
    """128-bit Philox key for the (seed, replica, tag) stream."""
    seed = int(seed) & _MASK64
    lane = _splitmix64((int(replica) & _MASK64) ^ tag_hash(tag))
    return (lane << 64) | seed


def make_generator(seed, replica=0, tag="field"):
    """A numpy Generator on the counter-based stream for (seed, replica, tag)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, replica, tag)))


def streams(gens, seed, start, count, tag="field"):
    """The first count of the list gens, grown as needed, on the streams
    (seed, start + j, tag): setting a held generator's state (key, counter
    0, empty buffer) gives make_generator's bits at a tenth of its cost.
    Each caller and thread keeps its own list."""
    state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
             "state": {"counter": (0,) * 4}, "has_uint32": 0, "uinteger": 0}
    for j, gen in enumerate(gens[:count]):
        key = stream_key(seed, start + j, tag)
        state["state"]["key"] = (key & _MASK64, key >> 64)
        gen.bit_generator.state = state
    gens.extend(make_generator(seed, start + j, tag)
                for j in range(len(gens), count))
    return gens[:count]
