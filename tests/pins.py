"""The suite's pinned values and assert_pinned, the one way to read them.
A row of TABLE is what one sampler path draws at a fixed (seed, replica,
stream_tag): its path, then its values in the order its test lists them
(arrays row-major), an indented line continuing the row.  A float is
spelled float.hex(), a model digest hex, a stream key or a size decimal.
"""

import re
import textwrap

import numpy as np

TABLE = """
dense/factor/1022 1022 0x1.cf1c9343a8906p+0 0x1.0e1c7152d172ep-3
    -0x1.b5134b51ccef8p-13 0x1.89495aff1edd0p-8 0x1.078925dac97d1p-12
    0x1.8c29ef91924c8p-27 -0x1.35e396c452be0p-9 -0x1.a2e42fefa39efp+0
    -0x1.a2e42fefa39efp+0 -0x1.3687a9f1af2b1p+0 -0x1.62e42fefa39efp+0
dense/factor/147 147 0x1.8f862c180385ep+0 0x1.56e73cdd70721p-3
    0x1.d57db65681c9dp-4 0x1.2853ed9c08e7ap-3 0x1.1c498ce24f44bp-2
    0x1.5fb0606aa9001p-6 -0x1.37c1c1e285dbap+0 -0x1.37c1c1e285dbap+0
    -0x1.37c1c1e285dbap+0
dense/factor/jittered 0x1.1c70a0cb6ccc4p+1 0x1.60d964242e9c1p+1 0x0.0p+0
    0x0.0p+0 0x1.3d30094815409p-22 0x0.0p+0 0x1.a39ef068df3dcp-1
    0x1.b4f938349314dp+0
dense/single 0x1.3707e9ae8f60dp+0 -0x1.59524004fd466p+1 -0x1.2041d36fbf2e7p+0
    0x1.e59017c0c162ap-1 0x1.5f5126d2c4a92p-1 -0x1.a017c34eeab2cp-1
    -0x1.371ed7452a25fp-1 0x1.1885ae81afb7bp-1
dense/refinement -0x1.a6252be5b18ffp-1 -0x1.af254849ed28dp+0
    -0x1.61580878b960bp+0 -0x1.f78317f97b120p-3 0x1.b372c50a52600p-5
    -0x1.bbb0c1d919598p-3 0x1.663b98a32c0a8p-1
circulant/batch 0x1.8e6a4d3f0b5a1p-1 0x1.444c635d67878p-1 0x1.39b529105e7d2p-2
    0x1.e668abf0ebaadp-4 0x1.a1b567209a26ap+1 0x1.fd4436b1c0a38p-1
    0x1.d409e0373707ep-1 0x1.c01f92adfec48p-1 0x1.327a8f78eec68p+0
    0x1.4d011eac44253p-4
poisson/batch 0x1.7dd216d965d8ap-2 0x1.75753984f0249p-1 0x1.f05ea86fc9337p-2
poisson/juxtaposed 0x1.307f8aab7496bp-1 0x1.02efa9bd968a8p+0
    0x1.d1a9248bb4074p+0 0x1.0087dd9b88fd9p+1 0x1.39768fcac0cb0p+0
    0x1.63f81f40402cbp-2
poisson/juxtaposed/cone-drop 0x1.307f8aab7496bp-1 0x1.02efa9bd968b0p+0
    0x1.d1a9248bb4082p+0 0x1.0087dd9b88fd6p+1 0x1.39768fcac0cbep+0
    0x1.63f81f40402d6p-2
poisson/sub-batches 0x1.9123608f1b9f4p-1 0x1.94ed46af583c8p-2
    0x1.661a5ed7ce994p-2 0x1.1da69de969d2cp+0 0x1.4503f834c227fp-3
    0x1.0f6d8c45fe702p+1 0x1.165a5ef407730p+1 0x1.dda6694a589c6p-4
    0x1.098128ba7a016p+1 0x1.08261f61fc10fp-1 0x1.d48f63ac12effp+0
    0x1.20808e622611cp+0 0x1.c497f056928eap-3 0x1.ec4df7910833cp-1
    0x1.8e9030fda4c22p-2 0x1.1a9f88c7a91bap+2 0x1.7fa869aa89ec6p+0
    0x1.53d8ef4e87178p-1 0x1.b3fc6049ec69fp-2 0x1.06484462e2924p+0
    0x1.7a8cf376abd88p-3 0x1.e61a7fe8c3ce3p-1 0x1.772da6f8dc07cp-2
    0x1.b687e92d15cecp-2 0x1.5f08ac68d756dp+0 0x1.c35a16ff4f1d2p+0
    0x1.645e8c8399fd4p-1 0x1.b30c55f953003p-2 0x1.1f6ea6375ab7bp-1
    0x1.c58815db5ed23p-2 0x1.43c1241833968p-3 0x1.1c5dbdf5c7fa8p-1
    0x1.c266933284834p-3 0x1.90ab8fbf9d606p-1 0x1.02bfd9a244f42p-2
    0x1.944322c4337f2p-2 0x1.08d6a87b43d2ep+1 0x1.0194597ff8ec4p-1
    0x1.b316eef1dcb0fp+0 0x1.868c7a15c6bf1p-2
poisson/sub-batches/juxtaposed 0x1.770de6c6b7d98p-2 0x1.3166e8fb3ce03p+0
    0x1.f44cf6c8afc44p-3 0x1.8a4720dd067f2p-1 0x1.a477fd024d8c4p-1
    0x1.d966ee75d2fa5p-1 0x1.a04264f74a9cbp-2 0x1.220f5f6584e36p-2
    0x1.2c1561c38354fp+0 0x1.50091a4bddceap+0 0x1.35fac20f69c82p+0
    0x1.084a41888fa2cp+1 0x1.9b898f47ea005p-1 0x1.0e7cf7774adbcp+0
    0x1.80b00f5e6b5b4p-3 0x1.f9fdaacdf6ad5p-1 0x1.f1b8bf6b995a1p+0
    0x1.9765c799d6ea0p-2 0x1.de5761ad87ad6p-1 0x1.94663c4c1e37bp+1
    0x1.cde9719504b91p-1 0x1.5fa56afce1e8ep+0 0x1.b116fe1749875p-3
    0x1.1d4fe43b2bf92p+0 0x1.8cd5384b06fa3p-1 0x1.e878c8e1854c5p-1
    0x1.5a555ef9ddb8fp+0 0x1.6c087d11d4611p+0
poisson/sub-batches/juxtaposed/cone-drop 0x1.770de6c6b7d9cp-2
    0x1.3166e8fb3cef6p+0 0x1.f44cf6c8afdcfp-3 0x1.8a4720dd06300p-1
    0x1.a477fd024d8c8p-1 0x1.d966ee75d311bp-1 0x1.a04264f74ab14p-2
    0x1.220f5f6584a92p-2 0x1.2c1561c383550p+0 0x1.50091a4bdddfep+0
    0x1.35fac20f69d82p+0 0x1.084a41888f6e2p+1 0x1.9b898f47ea008p-1
    0x1.0e7cf7774aea2p+0 0x1.80b00f5e6b6f0p-3 0x1.f9fdaacdf648cp-1
    0x1.f1b8bf6b995a4p+0 0x1.9765c799d6fe2p-2 0x1.de5761ad87c50p-1
    0x1.94663c4c1de69p+1 0x1.cde9719504b98p-1 0x1.5fa56afce1fa3p+0
    0x1.b116fe17499cap-3 0x1.1d4fe43b2bbfep+0 0x1.8cd5384b06fa8p-1
    0x1.e878c8e185649p-1 0x1.5a555ef9ddca2p+0 0x1.6c087d11d4180p+0
jumps/nine-atoms 0x1.64025c82b84e6p+1 0x1.6953fd438b076p+0 0x1.aca64c297e268p-3
jumps/nine-atoms/juxtaposed 0x1.e17992d416ffap-4 0x1.a06d9fec704e8p-8
    0x1.079c52a7aa537p-2
jumps/nine-atoms/juxtaposed/cone-drop 0x1.e17992d416ff9p-4 0x1.a06d9fec7048cp-8
    0x1.079c52a7aa543p-2
jumps/tabulated 0x1.648f3bcdecb4fp-4 0x1.3cb82f35aebfap-1 0x1.9004ee6bfc9fap+0
jumps/tabulated/juxtaposed 0x1.9325175390fc4p-1 0x1.c6fa248d19fa2p-2
    0x1.f7debf8d7281cp-4
jumps/tabulated/juxtaposed/cone-drop 0x1.9325175390fc8p-1 0x1.c6fa248d19e48p-2
    0x1.f7debf8d72bd4p-4
jumps/nine-atoms/total-mass 0x1.2000000000000p+2
single/atoms -0x1.ed0f53e35e563p+0 -0x1.3b9d3beb8c86bp+0 -0x1.ed0f53e35e563p+0
    -0x1.4f40b5ed9812ap+1 -0x1.62e42fefa39efp-2 -0x1.62e42fefa39efp-1 0x0.0p+0
    -0x1.bb9d3beb8c86bp+0 -0x1.bb9d3beb8c86bp+0 -0x1.0a2b23f3bab73p+0
    -0x1.bb9d3beb8c869p+0 0x1.f54daf4b96193p-3
single/tabulated -0x1.703a5f3978a94p+0 -0x1.fde384f9b495cp+1
    -0x1.1ab274ea20578p+0 0x1.28d855bc2f6fap+0 -0x1.ba98f79161ec8p-1
    -0x1.8f119d378d926p-2 -0x1.e152ef319c82ap-2 -0x1.9984fd183fa55p+0
    -0x1.7eaac82e76508p+1 -0x1.785ccdfcce9e0p-4 0x1.cd0e480ee1b7cp-2
    0x1.829617cd77172p-2
single/hybrid -0x1.7856bd6e6042cp-1 -0x1.b67fc67c29780p-2 -0x1.e8cb00cb18caep-1
    -0x1.414579bd28d0cp-1 -0x1.cbcbc7d96d5fbp-3 -0x1.c2176ebb467d4p-4
    -0x1.c6ab17e294d5ep-1 -0x1.2571af8d3e814p-3 -0x1.3b8768d5a8239p+0
    -0x1.254750ebf3550p+0 -0x1.0664892ed7760p+0 0x1.025b0dbe0636bp-1
star/atoms 0x1.c073c26ffe706p-2 0x1.047f7a5b68817p-3 0x1.4fc1b946ddfb6p-1
    0x1.2a734f5b6ffbep-1 0x1.3d1a845126fbcp-3 0x1.a3b22798957aap-4
model/digest ae21889734175c3245e2550c0531b284 9f79c9520d4f1a2140cf08dda7b34460
    b3e05391544263a0a3e9fd43a0f2d384 383c27b771004b42f73caefed7a2e7f3
rng/stream-key 249701377714357727482867985990207668224
    205472988418983450545809767775074254855
    19603052173548541894696322146454472682
    238910273811627127061797103981742260223
"""
PINS = {row.split()[0]: row.split()[1:]
        for row in re.split(r"\n(?=\S)", TABLE.strip())}


def _text(value):
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return value.hex() if isinstance(value, bytes) else float(value).hex()


def assert_pinned(path, values):
    """Check values (floats, digests, keys, or strings in the table's
    spelling) against the row path of PINS, exactly.  A /cone-drop row was
    recorded when each juxtaposed copy dropped the points in its own
    interval cone, and is matched at 1e-12 relative: a point that had
    flipped sides would move a value by a whole jump, a rounding far less.
    On a mismatch fail with the path, the old row and the new one, ready
    to paste.

    The rule: a row changes only in a commit that says why the draw
    moved, exactly in law.  Once the path has its law test (ROADMAP item
    15), that test must pass unchanged in the same commit.
    """
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    new, old = [_text(v) for v in values], PINS[path]
    near = path.endswith("/cone-drop")
    if near and len(new) == len(old):
        a, b = (np.array([float.fromhex(t) for t in ts]) for ts in (new, old))
        same = bool(np.all(np.abs(a - b) <= 1e-12 * np.abs(b)))
    else:
        same = new == old
    if not same:
        how = "at 1e-12 relative" if near else "bit for bit"
        old, new = (textwrap.fill(" ".join([path, *texts]), 79,
                                  subsequent_indent="    ",
                                  break_long_words=False,
                                  break_on_hyphens=False)
                    for texts in (old, new))
        raise AssertionError(
            f"pinned row {path!r} moved ({how}); re-pin only in a commit "
            f"that says why the draw moved, exactly in law.\nold:\n{old}\n"
            f"new:\n{new}")
