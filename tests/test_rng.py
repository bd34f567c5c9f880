from idcascade._rng import stream_key


def test_stream_key_is_pinned():
    # pinned literals: a change to stream_key or tag_hash would re-seed
    # every stream in the package
    assert stream_key(0, 0, "field") == \
        249701377714357727482867985990207668224
    assert stream_key(7, 3, "cascade") == \
        205472988418983450545809767775074254855
    assert stream_key(2026, 12345, "verify-star") == \
        19603052173548541894696322146454472682
    assert stream_key(2 ** 64 - 1, 2 ** 40, "x") == \
        238910273811627127061797103981742260223
