import numpy as np
import pytest

from idcascade._rng import make_generator, stream_key, streams

from pins import assert_pinned


def test_stream_key_is_pinned():
    # a change to stream_key or tag_hash would re-seed every stream in the
    # package
    assert_pinned("rng/stream-key", [
        stream_key(0, 0, "field"), stream_key(7, 3, "cascade"),
        stream_key(2026, 12345, "verify-star"),
        stream_key(2 ** 64 - 1, 2 ** 40, "x")])


def _draws(gen):
    return (gen.standard_normal(5), gen.random(3), gen.poisson(2.5, 4),
            gen.integers(0, 2 ** 32, size=3, dtype=np.uint32),
            gen.integers(0, 7, dtype=np.uint32), gen.standard_normal(2))


@pytest.mark.parametrize("used", [0, 1, 7], ids=["fresh", "odd", "consumed"])
def test_streams_replay_make_generator(used):
    # re-keyed generators draw the bits of fresh ones, also after draws
    # that left a buffered word or a cached uint32 behind
    gens = [make_generator(1, j, "old") for j in range(3)]
    for gen in gens:
        gen.random(used)
        gen.integers(0, 5, dtype=np.uint32)
    got = streams(gens, 2026, 40, 5, "cascade")
    assert len(gens) == 5 and got[:3] == gens[:3]
    for j, gen in enumerate(got):
        want = make_generator(2026, 40 + j, "cascade")
        assert gen.bit_generator.state["state"]["key"].tolist() == \
            want.bit_generator.state["state"]["key"].tolist()
        for a, b in zip(_draws(gen), _draws(want)):
            np.testing.assert_array_equal(a, b)
    # a shorter request leaves the list as it is
    assert len(streams(gens, 3, 0, 2)) == 2 and len(gens) == 5
