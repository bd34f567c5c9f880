import math
import tracemalloc

import numpy as np
import pytest

from idcascade import cones, field
from idcascade._rng import make_generator
from idcascade.cascade import BatchSimulator, build_realization, refine
from idcascade.field import (
    CirculantGaussianSampler,
    GaussianFieldSampler,
    GridSpec,
    HybridFieldSampler,
    JumpSampler,
    JuxtaposedGaussianSampler,
    JuxtaposedPoissonSampler,
    PoissonFieldSampler,
    _chol_with_jitter,
    _gram_objects,
    _shadow_index_range,
    field_kind,
    footprint_areas,
    make_sampler,
    sample_field,
    truncated_model,
)
from idcascade.levy import (
    AtomicJumps,
    TabulatedJumps,
    build_model,
    levy_exponent,
    lognormal_model,
    single_atom_model,
)


def test_grid_basic_properties():
    g = GridSpec((0.0, 2.0), 4, 3)
    assert g.length == 2.0
    assert g.eps == 2.0 / 16
    assert g.n_cells == 16
    assert g.n_points == 48
    assert g.spacing == pytest.approx(2.0 / 48)
    assert g.carried_levels == (1, 2, 3, 4)
    assert GridSpec((0.0, 1.0), 5, 2, 0).carried_levels == ()
    pts = g.eval_points()
    assert pts[0] == pytest.approx(g.spacing / 2)
    assert pts[-1] == pytest.approx(2.0 - g.spacing / 2)


def test_grid_interval_is_a_float_tuple():
    g = GridSpec([0, 1], 4, 2)
    ref = GridSpec((0.0, 1.0), 4, 2)
    assert g.interval == (0.0, 1.0)
    assert all(type(v) is float for v in g.interval)
    assert g == ref and hash(g) == hash(ref)
    model = single_atom_model(-0.4, 0.8, sigma2=0.2)
    a = build_realization(model, g, seed=3, replica=1)
    make_sampler.cache_clear()
    b = build_realization(model, ref, seed=3, replica=1)
    np.testing.assert_array_equal(a.cell_masses, b.cell_masses)
    for lev in ref.carried_levels:
        np.testing.assert_array_equal(a.weights[lev], b.weights[lev])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((1.0, 1.0), 4)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), 0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), 4, 2, 7)


def test_gaussian_gram_matches_region_oracle():
    g = GridSpec((0.0, 1.0), 3, 2, 2)
    sam = GaussianFieldSampler(g, 0.7)
    cov = sam.chol @ sam.chol.T
    pts = g.eval_points()

    # point-point entries are pair areas
    for i, j in [(0, 0), (0, 5), (3, 11), (7, 15)]:
        want = 0.7 * cones.area_pair((0.0, 1.0), pts[i], pts[j], g.eps)
        assert cov[i, j] == pytest.approx(want, abs=1e-9)

    # point-cell and cell-cell entries against the quadrature oracle
    b1 = g.cell_bounds(1)
    cell0 = cones.IntervalCone(*b1[0])
    base = cones.IntervalCone(0.0, 1.0)
    o = g.n_points
    want = 0.7 * cones.region_area(
        (cones.PointCone(pts[3], g.eps) & cell0) - base)
    assert cov[3, o] == pytest.approx(want, abs=1e-8)
    b2 = g.cell_bounds(2)
    cell10 = cones.IntervalCone(*b2[0])
    want = 0.7 * cones.region_area((cell0 & cell10) - base)
    assert cov[o, o + 2] == pytest.approx(want, abs=1e-8)

    # means enforce mean-one weights object by object
    areas = np.concatenate([
        np.full(g.n_points, cones.area_local_cone((0.0, 1.0), g.eps)),
        [cones.area_cell((0.0, 1.0), tuple(b)) for b in b1],
        [cones.area_cell((0.0, 1.0), tuple(b)) for b in b2],
    ])
    assert np.allclose(sam.mean, -0.5 * 0.7 * areas)


def test_gaussian_field_is_mean_one():
    g = GridSpec((0.0, 1.0), 5, 2, 0)
    sam = GaussianFieldSampler(g, 0.6)
    rng = np.random.default_rng(3)
    vals = sam.draw(rng, 6000)
    q = np.exp(vals)
    m = q.mean(axis=1)
    se = q.std(axis=1) / math.sqrt(q.shape[1])
    assert np.all(np.abs(m - 1.0) < 4.0 * se)


def test_circulant_covariance_matches_dense_gram():
    g = GridSpec((0.0, 1.0), 6, 2, 0)
    sam = CirculantGaussianSampler(g, 0.7)
    assert g.n_points == 128 and sam.size == 256
    # row k of the map applied to the identity is column k of the factor
    factor = sam.draw_rows(np.eye(sam.size)) - sam.mean
    cov = factor.T @ factor
    objs = _gram_objects(g)
    gram = 0.7 * footprint_areas(g.length, objs, objs)
    assert np.abs(cov - gram).max() <= 1e-13 * gram.max()
    assert 0.0 < sam.health["min_eigenvalue_ratio"] < 1.0


def test_circulant_mean_matches_dense_mean():
    g = GridSpec((0.0, 1.0), 6, 2, 0)
    dense = GaussianFieldSampler(g, 0.7)
    circ = CirculantGaussianSampler(g, 0.7)
    np.testing.assert_allclose(np.full(g.n_points, circ.mean), dense.mean,
                               rtol=1e-15)
    f = circ.sample(make_generator(3, 0, "t"))
    assert f.point_log.shape == (g.n_points,) and f.cell_log == {}
    with pytest.raises(ValueError):
        CirculantGaussianSampler(GridSpec((0.0, 1.0), 6, 2, 1), 0.7)


@pytest.mark.parametrize("rows", [2, 5])
def test_circulant_blocks_replay_single_draws_bitwise(rows, monkeypatch):
    # blocks of a few rows cross the chunk bounds; every replica keeps the
    # bits of its own sample(rng)
    grid = GridSpec((0.0, 1.0), 6, 2, 0)
    sam = CirculantGaussianSampler(grid, 0.5)
    monkeypatch.setattr(field, "CIRCULANT_BLOCK_VALUES", rows * sam.size)
    want = np.array([sam.sample(make_generator(5, i, "t")).point_log
                     for i in range(40)])
    for width in (1, 3, 37):
        got = np.vstack([sam.point_logs([make_generator(5, i, "t") for i in
                                         range(s, min(s + width, 40))])
                         for s in range(0, 40, width)])
        np.testing.assert_array_equal(got, want)


def test_circulant_batch_memory_is_its_output_plus_two_blocks():
    sam = CirculantGaussianSampler(GridSpec((0.0, 1.0), 10, 4, 0), 0.5)
    assert sam.grid.n_points == 4096
    rngs = [make_generator(2, i, "t") for i in range(500)]
    block = field.CIRCULANT_BLOCK_VALUES // sam.size * (sam.size + 2) * 8
    tracemalloc.start()
    try:
        out = sam.point_logs(rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of spectra and one of transforms, the FFT's one-row work
    # buffer and 16 KiB of small objects; the spectra and transforms of
    # all 500 rows at once would add 98 MB
    assert peak < out.nbytes + 2 * block + 8 * sam.size + 16384


def test_dense_build_memory_is_the_gram_plus_one_panel():
    grid = GridSpec((0.0, 1.0), 8, 2, None)
    block = field.FOOTPRINT_BLOCK_VALUES * 8
    tracemalloc.start()
    try:
        sam = GaussianFieldSampler(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = sam.dim
    assert dim == 512 + 510
    panel = 8 * dim * field.CHOLESKY_BLOCK
    # the Gram, factored in place, and either a panel of the factorization
    # or a block's kernel temporaries, and 16 KiB of small objects.  The
    # Gram and a separate factor, as np.linalg.cholesky returns, traced
    # about 2 dim^2 doubles; its LAPACK work copy is malloc'd outside
    # Python's allocators, so tracemalloc does not see it
    assert peak < 8 * dim * dim + panel + 2 * block + 16384


def _relative_error(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_blocked_cholesky_matches_lapack(block, monkeypatch):
    # a cell-carrying dense grid, a non-dyadic one and a 3-copy juxtaposed
    # Gram, each factored in place at this block width
    model = lognormal_model(0.5)
    keys = ((GridSpec((0.0, 1.0), 8, 2, None), 1),
            (GridSpec((0.1, 0.4), 4, 3, 2), 1),
            (GridSpec((0.1, 0.4), 4, 3, 2), 3))
    grams = []
    real = field._chol_with_jitter

    def spy(cov):
        grams.append(cov.copy())
        chol, jitter = real(cov)
        assert chol is cov
        return chol, jitter

    monkeypatch.setattr(field, "_chol_with_jitter", spy)
    monkeypatch.setattr(field, "CHOLESKY_BLOCK", block)
    # a cached sampler for these keys would skip the build, and one built
    # under the patch must not outlive it
    field.make_sampler.cache_clear()
    try:
        samplers = [make_sampler(g, model, k) for g, k in keys]
    finally:
        field.make_sampler.cache_clear()
    assert len(grams) == 3
    assert max(len(g) for g in grams) < 4096
    for sam, gram in zip(samplers, grams):
        assert sam.health == {"cholesky_jitter": 0.0}
        assert _relative_error(sam.chol, np.linalg.cholesky(gram)) <= 1e-13
        assert not np.triu(sam.chol, 1).any()


def test_failed_factorization_is_restored_from_the_upper_triangle(
        monkeypatch):
    # positive definite in its first two block columns, then a rank-one
    # block decoupled from them, then a block coupled to the first ones:
    # the first attempt fails in block column 2, after blocks 0 and 1 have
    # been overwritten by their factor
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    pd = m @ m.T + np.eye(6)
    cov = np.zeros((8, 8))
    keep = [0, 1, 2, 3, 6, 7]
    cov[np.ix_(keep, keep)] = pd
    cov[4:6, 4:6] = 1.0
    np.linalg.cholesky(cov[:4, :4])
    scale = float(np.mean(np.diag(cov)))
    # the jitter ladder of plain LAPACK factorizations
    for want in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        try:
            ref = np.linalg.cholesky(cov + want * scale * np.eye(8))
            break
        except np.linalg.LinAlgError:
            pass
    assert want == 1e-14
    monkeypatch.setattr(field, "CHOLESKY_BLOCK", 2)
    with pytest.warns(RuntimeWarning, match="relative jitter 1e-14"):
        chol, jitter = _chol_with_jitter(cov.copy())
    assert jitter == want
    assert _relative_error(chol, ref) <= 1e-13
    assert not np.triu(chol, 1).any()
    # no jitter helps an indefinite matrix: the error reports the smallest
    # eigenvalue of the restored matrix
    cov[4:6, 4:6] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"min eigenvalue -1\.000e\+00"):
        _chol_with_jitter(cov)


@pytest.mark.parametrize("rows", [1, 7])
def test_footprint_blocks_leave_the_dense_bits_unchanged(rows, monkeypatch):
    # the block of rows changes neither the dense factors, cell-carrying
    # and on a non-dyadic interval, nor a refinement's three Grams nor the
    # juxtaposed factor
    grids = (GridSpec((0.0, 1.0), 5, 2, None), GridSpec((0.1, 0.4), 4, 3, 2))
    model = lognormal_model(0.5)

    def arrays():
        out = []
        for g in grids:
            sam = GaussianFieldSampler(g, 0.5)
            out += [sam.chol, sam.mean]
        r = build_realization(model, grids[1], seed=3, replica=1)
        fine = refine(r, 2, make_generator(3, 1, "refine"))
        jux = JuxtaposedGaussianSampler(grids[1], 0.5, 3)
        return out + [fine.field.point_log, *fine.field.cell_log.values(),
                      jux.chol, jux.mean]

    # a cached sampler for this key would skip the build, and one built
    # under the patch must not outlive it
    field.make_sampler.cache_clear()
    try:
        want = arrays()
        # rows of the first Gram; the other matrices get other row counts
        dim = GaussianFieldSampler(grids[0], 0.5).dim
        assert field.FOOTPRINT_BLOCK_VALUES >= dim * dim
        monkeypatch.setattr(field, "FOOTPRINT_BLOCK_VALUES", rows * dim)
        field.make_sampler.cache_clear()
        got = arrays()
    finally:
        field.make_sampler.cache_clear()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_make_sampler_dispatches_gaussian_by_grid():
    model = lognormal_model(0.5)
    assert field.CIRCULANT_MIN_POINTS == 2048
    points_only = GridSpec((0.0, 1.0), 10, 2, 0)
    assert isinstance(make_sampler(points_only, model),
                      CirculantGaussianSampler)
    # too few points, or cells carried: the dense factor
    for grid in (GridSpec((0.0, 1.0), 10, 1, 0),
                 GridSpec((0.0, 1.0), 10, 2, 1)):
        assert type(make_sampler(grid, model)) is GaussianFieldSampler
    # a hybrid's Gaussian part is picked alike
    for grid, gauss in ((points_only, CirculantGaussianSampler),
                        (GridSpec((0.0, 1.0), 10, 2, 1),
                         GaussianFieldSampler)):
        hybrid = make_sampler(grid, single_atom_model(-0.4, 0.8, sigma2=0.2))
        assert isinstance(hybrid, HybridFieldSampler)
        assert type(hybrid.gauss) is gauss


def test_negative_embedding_eigenvalue_falls_back_to_dense(monkeypatch):
    real = field._embedding_spectrum

    def negative(row):
        lam = real(row)
        lam[-1] = -1e-3 * lam.max()
        return lam

    monkeypatch.setattr(field, "CIRCULANT_MIN_POINTS", 64)
    monkeypatch.setattr(field, "_embedding_spectrum", negative)
    g = GridSpec((0.0, 1.0), 6, 1, 0)
    # a cached sampler for this key would skip the dispatch, and one built
    # under the patch must not outlive it
    field.make_sampler.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="negative eigenvalue"):
            sam = make_sampler(g, lognormal_model(0.5))
    finally:
        field.make_sampler.cache_clear()
    assert type(sam) is GaussianFieldSampler
    assert sam.health == {"cholesky_jitter": 0.0}


def test_make_sampler_shares_one_read_only_sampler():
    g = GridSpec((0.0, 1.0), 3, 2)
    model = lognormal_model(0.5)
    dense = make_sampler(g, model)
    assert make_sampler(GridSpec([0, 1], 3, 2), lognormal_model(0.5)) is dense
    assert BatchSimulator(model, g).sampler is make_sampler(g, model)
    circ = make_sampler(GridSpec((0.0, 1.0), 10, 2, 0), model)
    atom = make_sampler(g, single_atom_model(-0.5, 1.0))
    tab = make_sampler(g, build_model(0.0, TabulatedJumps(
        (-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)))
    jux = make_sampler(g, model, n_intervals=3)
    assert make_sampler(g, model, 3) is jux
    assert jux.point_logs([make_generator(1, 0, "t")]).shape == (1, 3, 16)
    for arr in (dense.chol, dense.mean, circ.weights, atom.jumps.locations,
                atom.jumps.cum, tab.jumps._x, tab.jumps._d, tab.jumps._pieces,
                tab.jumps._cum, jux.chol, jux.mean):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 1.0
    # juxtaposition has no hybrid sampler
    with pytest.raises(ValueError, match="juxtaposition"):
        make_sampler(g, single_atom_model(-0.4, 0.8, sigma2=0.2),
                     n_intervals=3)


def test_make_sampler_key_ignores_argument_spelling():
    g = GridSpec((0.0, 1.0), 3, 2)
    model = lognormal_model(0.5)
    make_sampler.cache_clear()
    first = make_sampler(g, model)
    assert make_sampler(g, model, 1) is first
    assert make_sampler(g, model, n_intervals=1) is first
    info = make_sampler.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_array_valued_jump_model_gets_a_sampler():
    g = GridSpec((0.0, 1.0), 4, 2)
    arr = build_model(0.2, AtomicJumps(np.array([-0.4]), np.array([0.8])))
    ref = build_model(0.2, AtomicJumps((-0.4,), (0.8,)))
    a = make_sampler(g, arr).sample(make_generator(5, 0, "field"))
    make_sampler.cache_clear()
    b = make_sampler(g, ref).sample(make_generator(5, 0, "field"))
    np.testing.assert_array_equal(a.point_log, b.point_log)


def test_cholesky_jitter_is_warned():
    v = np.arange(1.0, 5.0)[:, None]
    with pytest.warns(RuntimeWarning, match="relative jitter"):
        chol, jitter = _chol_with_jitter(v @ v.T)
    assert jitter > 0
    assert np.abs(chol @ chol.T - v @ v.T).max() < 1e-6


def test_refinement_keeps_its_bits():
    # recorded before the conditioning Gram took its jitter in place; every
    # factor here is below CHOLESKY_BLOCK, so it is LAPACK's own
    g = GridSpec((0.1, 0.4), 4, 3, 2)
    r = build_realization(lognormal_model(0.5), g, seed=3, replica=1)
    fine = refine(r, 1, make_generator(3, 1, "refine"))
    assert fine.field.point_log.size < field.CHOLESKY_BLOCK
    np.testing.assert_array_equal(
        fine.field.point_log[::19],
        [float.fromhex(h) for h in (
            "-0x1.385013bc872a0p-2", "-0x1.ca877134dfba7p+0",
            "-0x1.aa558794676f0p+0", "-0x1.2ef0d29d8d0dcp-4",
            "0x1.730069ba8d740p-1", "-0x1.41bae93b7b0d6p-1")])
    assert fine.total_mass == float.fromhex("0x1.8becb9e51dcedp-1")


def test_dense_point_logs_draw_only_the_point_normals():
    g = GridSpec((0.0, 1.0), 4, 2)
    sam = GaussianFieldSampler(g, 0.5)
    rngs = [make_generator(8, j, "t") for j in range(3)]
    batch = sam.point_logs(rngs)
    for j, r in enumerate(rngs):
        # the stream stopped after n_points normals
        ref = make_generator(8, j, "t").standard_normal(g.n_points + 1)
        assert r.standard_normal() == ref[-1]
        single = sam.sample(make_generator(8, j, "t")).point_log
        np.testing.assert_allclose(batch[j], single, rtol=1e-12)


def test_poisson_field_matches_bruteforce_points():
    model = single_atom_model(-math.log(2.0), 1.0)
    g = GridSpec((0.25, 1.75), 4, 3)
    rng = make_generator(99, 5, "field-test")
    f = sample_field(g, model, rng)
    x, y, jump = f.points_x, f.points_y, f.points_jump
    assert x.size > 0
    drift = -(math.exp(-math.log(2.0)) - 1.0)  # -(e^loc - 1) * mass

    pts = g.eval_points()
    area_pt = cones.area_local_cone(g.interval, g.eps)
    for k in (0, 7, 23, g.n_points - 1):
        t = pts[k]
        inside = (x - 0.5 * y <= t) & (t < x + 0.5 * y)
        want = drift * area_pt + jump[inside].sum()
        assert f.point_log[k] == pytest.approx(want, abs=1e-12)

    for lev in (1, 3):
        bounds = g.cell_bounds(lev)
        area_cell = cones.area_cell(g.interval, tuple(bounds[0]))
        for i in (0, len(bounds) - 1):
            a, b = bounds[i]
            covered = (x - 0.5 * y <= a) & (b <= x + 0.5 * y)
            want = drift * area_cell + jump[covered].sum()
            assert f.cell_log[lev][i] == pytest.approx(want, abs=1e-12)


def test_poisson_field_is_mean_one():
    model = single_atom_model(-math.log(2.0), 1.0)
    g = GridSpec((0.0, 1.0), 5, 2, 0)
    sam = PoissonFieldSampler(g, model)
    rng = np.random.default_rng(17)
    acc = np.zeros(g.n_points)
    acc2 = np.zeros(g.n_points)
    n = 4000
    for _ in range(n):
        pl, _ = sam.evaluate(*sam.draw_points(rng))
        w = np.exp(pl)
        acc += w
        acc2 += w * w
    m = acc / n
    se = np.sqrt(np.maximum(acc2 / n - m * m, 0.0) / n)
    assert np.all(np.abs(m - 1.0) < 4.0 * se)


TABULATED = build_model(0.0, TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4),
                                            2.0, 3.0))
HYBRID = single_atom_model(-0.4, 0.8, sigma2=0.2)
TWO_ATOMS = build_model(0.0, AtomicJumps((-0.7, 0.3), (1.0, 0.5)))
# about 0.7 expected points per replica on the grid below: many get none
SPARSE = single_atom_model(-0.5, 0.02)


@pytest.mark.parametrize("slots", [None, 600], ids=["default", "small"])
@pytest.mark.parametrize("model", [TABULATED, HYBRID, TWO_ATOMS, SPARSE],
                         ids=["tabulated", "hybrid", "two-atoms", "sparse"])
def test_poisson_batches_replay_single_draws_bitwise(model, slots,
                                                     monkeypatch):
    # a batch maps all its replicas' uniforms at once, in sub-batches of
    # POISSON_BATCH_SLOTS (600: a few replicas each); every replica keeps
    # the bits of its own sample(rng).  The hybrid's dense Gaussian part
    # moves in the last ulp with the batch width, so its Poisson part is
    # compared, drawn after the point normals as in the hybrid.
    if slots is not None:
        monkeypatch.setattr(field, "POISSON_BATCH_SLOTS", slots)
    grid = GridSpec((0.0, 1.0), 5, 2, 0)
    if field_kind(model) == "hybrid":
        sam, lead = HybridFieldSampler(grid, model).poisson, grid.n_points
    else:
        sam, lead = PoissonFieldSampler(grid, model), 0

    def gen(i):
        r = make_generator(3, i, "batch")
        r.standard_normal(lead)
        return r

    singles = [sam.sample(gen(i)) for i in range(40)]
    want = np.array([f.point_log for f in singles])
    for width in (1, 3, 37):
        got = np.vstack([sam.point_logs([gen(i) for i in range(
            s, min(s + width, 40))]) for s in range(0, 40, width)])
        np.testing.assert_array_equal(got, want)
    if model is SPARSE:
        assert sum(f.points_x.size == 0 for f in singles) > 5


@pytest.mark.parametrize("slots", [None, 2000], ids=["default", "small"])
def test_juxtaposed_poisson_batches_are_width_invariant(slots, monkeypatch):
    if slots is not None:
        monkeypatch.setattr(field, "POISSON_BATCH_SLOTS", slots)
    sam = JuxtaposedPoissonSampler(GridSpec((0.1, 0.4), 5, 2, 0),
                                   single_atom_model(-math.log(2.0), 1.0), 3)
    rngs = [make_generator(4, i, "jux") for i in range(40)]
    want = np.array([sam.point_logs([r])[0] for r in rngs])
    for width in (3, 37):
        rngs = [make_generator(4, i, "jux") for i in range(40)]
        got = np.concatenate([sam.point_logs(rngs[s:s + width])
                              for s in range(0, 40, width)])
        np.testing.assert_array_equal(got, want)


def test_poisson_rejects_gaussian_part():
    with pytest.raises(ValueError):
        PoissonFieldSampler(GridSpec(), lognormal_model(0.5))


def test_field_kind_dispatch():
    assert field_kind(lognormal_model(0.3)) == "gaussian"
    assert field_kind(single_atom_model(-0.7, 1.0)) == "poisson"
    assert field_kind(single_atom_model(-0.7, 1.0, sigma2=0.2)) == "hybrid"


def test_sample_field_auto_routes_and_is_reproducible():
    model = single_atom_model(-0.7, 1.0, sigma2=0.2)
    g = GridSpec((0.0, 1.0), 4, 2)
    a = sample_field(g, model, make_generator(5, 0, "t"))
    b = sample_field(g, model, make_generator(5, 0, "t"))
    assert a.kind == "gaussian+poisson"
    np.testing.assert_array_equal(a.point_log, b.point_log)
    c = sample_field(g, model, make_generator(5, 1, "t"))
    assert not np.array_equal(a.point_log, c.point_log)


def test_truncated_model_stays_normalized():
    nu = AtomicJumps((-1.2, -0.05, 0.4), (0.5, 3.0, 0.2))
    model = build_model(0.1, nu)
    for substitute in (False, True):
        eff = truncated_model(model, 0.1, substitute)
        assert abs(levy_exponent(eff, 0.0)) < 1e-12
        assert abs(levy_exponent(eff, 1.0)) < 1e-12
        kept = eff.nu
        assert isinstance(kept, AtomicJumps)
        assert all(abs(x) >= 0.1 for x in kept.locations)
    sub = truncated_model(model, 0.1, True)
    drop = truncated_model(model, 0.1, False)
    assert sub.sigma2 == pytest.approx(drop.sigma2 + 3.0 * 0.05 ** 2)
    with pytest.raises(ValueError):
        truncated_model(model, 1.5)
    with pytest.raises(ValueError):
        truncated_model(build_model(0.0, AtomicJumps((-0.01,), (1.0,))), 0.1)


def test_hybrid_field_is_mean_one():
    model = single_atom_model(-math.log(2.0), 0.6, sigma2=0.3)
    g = GridSpec((0.0, 1.0), 5, 1, 0)
    rng = np.random.default_rng(23)
    n = 4000
    acc = np.zeros(g.n_points)
    acc2 = np.zeros(g.n_points)
    for _ in range(n):
        f = sample_field(g, model, rng)
        w = np.exp(f.point_log)
        acc += w
        acc2 += w * w
    m = acc / n
    se = np.sqrt(np.maximum(acc2 / n - m * m, 0.0) / n)
    assert np.all(np.abs(m - 1.0) < 4.0 * se)


def test_jump_sampler_tabulated_cdf():
    nu = TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)
    js = JumpSampler(nu)
    rng = np.random.default_rng(31)
    draws = js.from_uniforms(js.uniforms(rng, 60_000))
    total = nu.total_mass()
    for q in (-1.2, -0.5, 0.0, 0.3, 0.7):
        want = nu.integrate_weighted(lambda t, q=q: 1.0 if t <= q else 0.0)
        got = float(np.mean(draws <= q))
        assert got == pytest.approx(want / total, abs=0.01)


def test_shadow_index_range_half_open():
    # grid on [0,1), spacing 1/8, eval points at (k+.5)/8
    x = np.array([0.5])
    y = np.array([0.25])
    k0, k1 = _shadow_index_range(x, y, 0.0, 0.125, 8)
    # shadow [0.375, 0.625) holds t_3 = 0.4375 and t_4 = 0.5625
    assert (k0[0], k1[0]) == (3, 5)
    # a shadow boundary exactly on an eval point: left-closed, right-open
    x = np.array([0.3125])
    y = np.array([0.375])
    k0, k1 = _shadow_index_range(x, y, 0.0, 0.125, 8)
    # shadow [0.125, 0.5): t_1=0.1875, t_2, t_3=0.4375 in; t_4=0.5625 out
    assert (k0[0], k1[0]) == (1, 4)
