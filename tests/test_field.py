import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from idcascade import cones, field
from idcascade._rng import make_generator
from idcascade.cascade import BatchSimulator, build_realization
from idcascade.checks import normalization_defect
from idcascade.field import (
    CirculantGaussianSampler,
    GaussianFieldSampler,
    GridSpec,
    HybridFieldSampler,
    PoissonFieldSampler,
    _chol_with_jitter,
    _gram_objects,
    _points_below,
    covered_sums,
    field_kind,
    footprint_areas,
    make_sampler,
    poisson_points,
    truncated_model,
)
from idcascade.levy import (
    AtomicJumps,
    TabulatedJumps,
    ZeroJumps,
    build_model,
    lognormal_model,
    single_atom_model,
)

from pins import assert_pinned


def filled(sam, rngs):
    """The (len(rngs), *sam.shape) point values sam.blocks(rngs, out)
    writes into out."""
    out = np.full((len(rngs),) + sam.shape, np.nan)
    for _ in sam.blocks(rngs, out):
        pass
    return out


def lower_factor(panels):
    """The square lower factor whose row panels are panels: panel rows
    a..e-1 hold columns 0..e-1, a diagonal block's zeros above its
    diagonal included, and the rest above the diagonal is zero."""
    dim = panels[-1].shape[1]
    out = np.zeros((dim, dim))
    for p in panels:
        e = p.shape[1]
        out[e - len(p):e, :e] = p
    return out


def run_blas_threads(script, threads=1):
    """The finished process of script run by a fresh interpreter with
    threads BLAS threads, checked to have exited 0: the bit pins were
    recorded at one thread, and a dense batch product takes its bits from
    the BLAS thread count."""
    pkg_root = str(Path(field.__file__).resolve().parents[1])
    n = str(threads)
    env = dict(os.environ, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n,
               MKL_NUM_THREADS=n, PYTHONPATH=os.pathsep.join(
                   filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


class UnitNormals:
    """A generator whose standard normals are the unit vector e_k."""

    def __init__(self, k):
        self.k = k

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = 0.0
        out[self.k] = 1.0
        return out


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
        np.testing.assert_array_equal(np.exp(a.field.cell_log[lev]),
                                      np.exp(b.field.cell_log[lev]))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((1.0, 1.0), 4)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), 0)
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0), 4, 2, 7)


@pytest.mark.parametrize("fraction, count", [
    (0.0, 0), (0.5, 8), (1.0, 16),
    (0.3, None), (1.5, None), (2.0 ** -5, None)])
def test_leaf_count_takes_whole_cells_of_the_grid(fraction, count):
    g = GridSpec((0.0, 1.0), 4, 2)
    if count is None:
        with pytest.raises(ValueError, match="leaf cells"):
            g.leaf_count(fraction)
    else:
        assert g.leaf_count(fraction) == count


def test_gaussian_gram_matches_region_oracle():
    g = GridSpec((0.0, 1.0), 3, 2, 2)
    sam = GaussianFieldSampler(g, 0.7)
    chol = lower_factor(sam.panels)
    cov = chol @ chol.T
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
    # the values drawn from the unit normals e_k are column k of the factor
    factor = filled(sam, [UnitNormals(k) for k in range(sam.size)]) - sam.mean
    cov = factor.T @ factor
    objs = _gram_objects(g)
    gram = 0.7 * footprint_areas(g.length, objs, objs)
    assert np.abs(cov - gram).max() <= 1e-13 * gram.max()
    assert 0.0 < sam.health["min_eigenvalue_ratio"] < 1.0


@pytest.mark.parametrize("copies", [2, 3, 4])
@pytest.mark.parametrize("grid", [GridSpec((0.0, 1.0), 4, 2, 0),
                                  GridSpec((0.1, 0.4), 4, 3, 0)],
                         ids=["dyadic", "non-dyadic"])
def test_juxtaposed_dense_law_is_each_copys_own(grid, copies):
    # drawn as the hull less each copy's cell of it, the copies' points
    # have the law of each copy's own local cones: the overlap of two
    # points' cones outside their copies' interval cones
    sam = GaussianFieldSampler(grid, 0.7, copies)
    n, eps = grid.n_points, grid.eps
    edges = [grid.interval[0] + i * grid.length for i in range(copies + 1)]
    t = (edges[0] + (np.arange(copies * n) + 0.5)
         * ((edges[-1] - edges[0]) / (copies * n))).reshape(copies, n)
    copy = list(zip(edges, edges[1:]))
    mean = sam.mean[:copies * n].reshape(copies, n) \
        - sam.mean[copies * n:, None]
    want = [-0.35 * cones.area_local_cone(iv, eps) for iv in copy]
    np.testing.assert_allclose(mean, np.repeat([want], n, 0).T, rtol=1e-13)
    # the values drawn from the unit normals e_k, less the mean, are
    # column k of the implied factor
    factor = (filled(sam, [UnitNormals(k) for k in range(sam.dim)])
              - mean).reshape(sam.dim, -1)
    cov = factor.T @ factor
    gram = np.block([[
        np.array([[cones.area_pair(a, s, u, eps) for u in t[j]]
                  for s in t[i]]) if i == j else
        cones.area_cross(a, b, t[i][:, None], t[j][None, :], eps)
        for j, b in enumerate(copy)] for i, a in enumerate(copy)])
    gram *= 0.7
    assert np.abs(cov - gram).max() <= 1e-13 * gram.max()


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
        got = np.vstack([filled(sam, [make_generator(5, i, "t") for i in
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
        out = filled(sam, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of spectra and one of transforms, the FFT's one-row work
    # buffer and 16 KiB of small objects; the spectra and transforms of
    # all 500 rows at once would add 98 MB
    assert peak < out.nbytes + 2 * block + 8 * sam.size + 16384


def test_dense_build_memory_is_the_lower_panels_plus_one_panel():
    grid = GridSpec((0.0, 1.0), 8, 2, None)
    block = field.BLOCK_VALUES * 8
    tracemalloc.start()
    try:
        sam = GaussianFieldSampler(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim, b = sam.dim, field.CHOLESKY_BLOCK
    assert dim == 512 + 510
    # the lower triangle in row panels of b rows, each holding its
    # diagonal block whole, the last one also the dim % b rows left over
    # with the b x (dim % b) zeros above them
    lower = 8 * (dim * (dim + 1) // 2 + dim * b // 2 + b * (dim % b))
    assert sum(p.nbytes for p in sam.panels) <= lower
    panel = 8 * dim * b
    # the Gram's panels, factored in place, and either a panel of the
    # factorization or a block's kernel temporaries, and 16 KiB of small
    # objects.  The square Gram held 8 dim^2 bytes, 8.4 MB against these
    # panels' 4.8 MB; a separate factor, as np.linalg.cholesky returns,
    # traced about 2 dim^2 doubles, and its LAPACK work copy is malloc'd
    # outside Python's allocators, so tracemalloc does not see it
    assert peak < lower + panel + 2 * block + 16384


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

    def spy(fill, dim):
        filled_into = []

        def traced(panels):
            fill(panels)
            filled_into.append(panels)
            grams.append(lower_factor(panels))

        chol, jitter = real(traced, dim)
        assert chol is filled_into[-1]
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
        chol = lower_factor(sam.panels)
        assert _relative_error(chol, np.linalg.cholesky(gram)) <= 1e-13
        assert not np.triu(chol, 1).any()


def test_inverse_solves_keep_the_factor_accurate(monkeypatch):
    # the rows below each diagonal block are multiplied by that block's
    # explicit inverse: gauss-single's 1022 objects, 3 juxtaposed copies
    # of a non-dyadic grid (147) and a 2046-object grid.  Here LL^T
    # reproduced the Gram to 1.2e-15, 3.6e-16 and 1.2e-15 of its largest
    # entry, where LU solves of each panel read 1.5e-15, 3.6e-16 and
    # 1.6e-15
    grams = []
    real = field._chol_with_jitter

    def spy(fill, dim):
        def traced(panels):
            fill(panels)
            grams.append(lower_factor(panels))
        return real(traced, dim)

    monkeypatch.setattr(field, "_chol_with_jitter", spy)
    for grid, copies in ((GridSpec((0.0, 1.0), 8, 2, None), 1),
                         (GridSpec((0.1, 0.4), 4, 3, 2), 3),
                         (GridSpec((0.0, 1.0), 9, 2, None), 1)):
        sam = GaussianFieldSampler(grid, 0.5, copies)
        gram = grams[-1] + np.tril(grams[-1], -1).T
        chol = lower_factor(sam.panels)
        assert sam.dim > field.CHOLESKY_BLOCK
        assert _relative_error(chol @ chol.T, gram) <= 1e-14
        assert _relative_error(chol, np.linalg.cholesky(gram)) <= 1e-12


def lower_fill(cov):
    """A fill for _chol_with_jitter: cov's lower triangle into its row
    panels, whose assembled square (lower_factor) is then np.tril(cov)."""
    def fill(panels):
        for p in panels:
            e = p.shape[1]
            np.copyto(p, cov[e - len(p):e, :e], where=np.tri(
                len(p), e, e - len(p), dtype=bool))
    return fill


def test_failed_factorization_is_refilled(monkeypatch):
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
        panels, jitter = _chol_with_jitter(lower_fill(cov.copy()), 8)
    chol = lower_factor(panels)
    assert jitter == want
    assert _relative_error(chol, ref) <= 1e-13
    assert not np.triu(chol, 1).any()
    assert_pinned("dense/factor/jittered", chol[np.tril_indices(8)][::5])
    # no jitter helps an indefinite matrix: the error reports the smallest
    # eigenvalue of the refilled matrix
    cov[4:6, 4:6] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"min eigenvalue -1\.000e\+00"):
        _chol_with_jitter(lower_fill(cov), 8)


@pytest.mark.parametrize("rows", [1, 7])
def test_footprint_blocks_leave_the_dense_bits_unchanged(rows, monkeypatch):
    # the block of rows changes neither the dense factors, cell-carrying
    # and on a non-dyadic interval, nor the juxtaposed factor
    grids = (GridSpec((0.0, 1.0), 5, 2, None), GridSpec((0.1, 0.4), 4, 3, 2))

    def arrays():
        out = []
        for g in grids:
            sam = GaussianFieldSampler(g, 0.5)
            out += [lower_factor(sam.panels), sam.mean]
        jux = GaussianFieldSampler(grids[1], 0.5, 3)
        return out + [lower_factor(jux.panels), jux.mean]

    # a cached sampler for this key would skip the build, and one built
    # under the patch must not outlive it
    field.make_sampler.cache_clear()
    try:
        want = arrays()
        # rows of the first Gram; the other matrices get other row counts
        dim = GaussianFieldSampler(grids[0], 0.5).dim
        assert field.BLOCK_VALUES >= dim * dim
        monkeypatch.setattr(field, "BLOCK_VALUES", rows * dim)
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
    # a batch draws on the cached sampler of the grid's points alone
    points = GridSpec((0.0, 1.0), 3, 2, 0)
    assert BatchSimulator(model, g).sampler is make_sampler(points, model)
    circ = make_sampler(GridSpec((0.0, 1.0), 10, 2, 0), model)
    atom = make_sampler(g, single_atom_model(-0.5, 1.0))
    tab = make_sampler(g, build_model(0.0, TabulatedJumps(
        (-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)))
    jux = make_sampler(g, model, n_intervals=3)
    assert make_sampler(g, model, 3) is jux
    assert filled(jux, [make_generator(1, 0, "t")]).shape == (1, 3, 16)
    for arr in (*dense.panels, dense.mean, circ.weights, atom.nu._x,
                atom.nu._cum, tab.nu._x, tab.nu._d, tab.nu.pieces,
                tab.nu._cum, *jux.panels, jux.mean):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 1.0
    # juxtaposed hybrid copies add their two parts' copies
    hyb = make_sampler(g, single_atom_model(-0.4, 0.8, sigma2=0.2),
                       n_intervals=3)
    assert hyb.name == "juxtaposed-hybrid" and hyb.shape == (3, 16)
    assert (hyb.gauss.shape, hyb.poisson.shape) == ((3, 16), (3, 16))


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
        panels, jitter = _chol_with_jitter(lower_fill(v @ v.T), 4)
    chol = lower_factor(panels)
    assert jitter > 0
    assert np.abs(chol @ chol.T - v @ v.T).max() < 1e-6


# The factors of 3 juxtaposed copies of a non-dyadic grid (144 points on
# their hull, 3 cells) and of gauss-single's grid (1022 objects), a single
# build, and digests of those and of 2046- and 4100-object factors' panels
DENSE_SCRIPT = inspect.getsource(lower_factor) + """if True:
    import hashlib
    import numpy as np
    from idcascade import GridSpec, lognormal_model
    from idcascade.cascade import build_realization
    from idcascade.field import GaussianFieldSampler

    def hexes(a, count):
        return [v.hex() for v in a[::max(1, len(a) // count)].tolist()]

    def digest(*arrays):
        data = b"".join(a.tobytes() for a in arrays)
        return hashlib.sha256(data).hexdigest()

    g, jux = GridSpec((0.0, 1.0), 8, 2, None), GridSpec((0.1, 0.4), 4, 3, 2)
    for path, grid, copies in (("dense/factor/147", jux, 3),
                               ("dense/factor/1022", g, 1),
                               (None, GridSpec((0.0, 1.0), 9, 2, None), 1),
                               (None, GridSpec((0.0, 1.0), 8, 4, 0), 4)):
        sam = GaussianFieldSampler(grid, 0.5, copies)
        print("panels", sam.dim, digest(*sam.panels))
        if path:
            chol = lower_factor(sam.panels)
            print(path, sam.dim, *hexes(chol[np.tril_indices(sam.dim)], 6),
                  *hexes(sam.mean, 3))
    r = build_realization(lognormal_model(0.5), g, seed=7, replica=0)
    f = r.field
    print("dense/single", *hexes(f.point_log, 4), *hexes(f.cell_log[8], 2),
          f.cell_log[1][0].hex(), r.total_mass.hex())
    print("field", digest(f.point_log, *f.cell_log.values()))
"""


@pytest.fixture(scope="module")
def dense_rows():
    return [line.split() for line in run_blas_threads(DENSE_SCRIPT).stdout
            .splitlines()]


def test_dense_factors_keep_their_bits(dense_rows):
    assert [row[1] for row in dense_rows if row[0] == "panels"] == [
        "147", "1022", "2046", "4100"]
    for path in ("dense/factor/147", "dense/factor/1022", "dense/single"):
        [row] = [row[1:] for row in dense_rows if row[0] == path]
        assert_pinned(path, row)


def test_dense_bits_ignore_the_blas_thread_count(dense_rows):
    # a 64-column diagonal block's Cholesky factor and inverse keep their
    # bits at two threads, where OpenBLAS's factor of a 128-column block
    # did not.  Dense batch products do not: a 256-column draw of all 1022
    # objects and juxtaposed Gaussian batches, RUN_CHUNK columns wide,
    # read other bytes at two threads, so the bit pins are drawn at one
    two = run_blas_threads(DENSE_SCRIPT, 2).stdout.splitlines()
    assert [line.split() for line in two] == dense_rows


def square_factor_lower(a):
    """The square left-looking blocked Cholesky factorization of a's
    lower triangle in place, CHOLESKY_BLOCK columns at a time, that the
    row panels replaced: the reference for their bits."""
    from idcascade.field import CHOLESKY_BLOCK as b
    n = len(a)
    tri = np.tri(min(b, n), dtype=bool)
    for k in range(0, n, b):
        e = min(k + b, n)
        d, lower = a[k:e, k:e], tri[:e - k, :e - k]
        if k:
            upd = a[k:, :k] @ a[k:e, :k].T
            np.subtract(d, upd[:e - k], out=d, where=lower)
            a[e:, k:e] -= upd[e - k:]
        lkk = np.linalg.cholesky(d)
        np.copyto(d, lkk, where=lower)
        if e < n:
            a[e:, k:e] = a[e:, k:e] @ np.linalg.inv(lkk).T
    return a


def test_panel_factors_have_the_square_factors_bits():
    # one panel (62 objects), exactly two (128), a last panel that takes
    # 19, 4 and 6 rows left over (3 and 4 juxtaposed copies, two carried
    # cell levels) and gauss-single's 1022 objects, whose last panel takes
    # 62.  BLAS bits may depend on the thread count, so a fresh
    # interpreter factors with one thread
    script = (inspect.getsource(lower_factor)
              + inspect.getsource(square_factor_lower) + """if True:
        import numpy as np
        from idcascade import field
        from idcascade.field import GaussianFieldSampler, GridSpec

        grams = []
        real = field._chol_with_jitter

        def spy(fill, dim):
            def traced(panels):
                fill(panels)
                grams.append(lower_factor(panels))
            return real(traced, dim)

        field._chol_with_jitter = spy
        for grid, copies in ((GridSpec((0.0, 1.0), 4, 2, None), 1),
                             (GridSpec((0.0, 1.0), 6, 2, 0), 1),
                             (GridSpec((0.1, 0.4), 4, 3, 2), 3),
                             (GridSpec((0.0, 1.0), 5, 1, 0), 4),
                             (GridSpec((0.0, 1.0), 8, 2, 2), 1),
                             (GridSpec((0.0, 1.0), 8, 2, None), 1)):
            sam = GaussianFieldSampler(grid, 0.5, copies)
            want = square_factor_lower(grams[-1])
            assert np.array_equal(lower_factor(sam.panels), want), sam.dim
            print(sam.dim, len(sam.panels[-1]))
    """)
    proc = run_blas_threads(script)
    assert proc.stdout.split() == ["62", "62", "128", "64", "147", "83",
                                   "132", "68", "518", "70", "1022", "126"]


def test_panel_draws_match_the_square_factor():
    # one panel of 62 objects, exactly two of 128, and gauss-single's 1022
    # objects (15 panels, the last one of 126 rows): a one-column draw, of
    # every object or of the points alone, has the bits of the square
    # lower factor's product, and a 256-column one its value to rounding.
    # BLAS bits depend on the thread count, so a fresh interpreter draws
    # with one thread
    script = inspect.getsource(lower_factor) + """if True:
        import numpy as np
        from idcascade import GridSpec
        from idcascade._rng import make_generator
        from idcascade.field import GaussianFieldSampler

        for grid in (GridSpec((0.0, 1.0), 4, 2, None),
                     GridSpec((0.0, 1.0), 6, 2, 0),
                     GridSpec((0.0, 1.0), 8, 2, None)):
            sam = GaussianFieldSampler(grid, 0.5)
            chol = np.tril(lower_factor(sam.panels))
            rng = make_generator(2, sam.dim, "panels")
            z = rng.standard_normal((sam.dim, 1))
            for k in (sam.dim, grid.n_points):
                want = chol[:k, :k] @ z[:k]
                want += sam.mean[:k, None]
                assert np.array_equal(sam.draw_columns(z[:k]), want), k
            z = rng.standard_normal((sam.dim, 256))
            want = chol @ z + sam.mean[:, None]
            err = np.abs(sam.draw_columns(z) - want).max()
            assert err <= 1e-13 * np.abs(want).max(), err
            print(sam.dim, len(sam.panels))
    """
    proc = run_blas_threads(script)
    assert proc.stdout.split() == ["62", "1", "128", "2", "1022", "15"]


def test_dense_blocks_draw_only_the_point_normals():
    g = GridSpec((0.0, 1.0), 4, 2)
    sam = GaussianFieldSampler(g, 0.5)
    rngs = [make_generator(8, j, "t") for j in range(3)]
    batch = filled(sam, rngs)
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
    f = make_sampler(g, model).sample(rng)
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


def test_covered_sums_keep_the_bits_of_one_sweep_per_level():
    # four replicas' points on a non-dyadic interval: each level's totals
    # from one sweep of every level are those of a sweep of its own
    g = GridSpec((0.25, 1.75), 9, 2)
    sam = make_sampler(g, single_atom_model(-math.log(2.0), 1.0))
    counts, x, y, jump = poisson_points(
        [make_generator(3, r, "field-test") for r in range(4)], sam.strips,
        sam.nu)
    widths, cells = [g.length / 2 ** lev for lev in range(10)], [
        2 ** lev for lev in range(10)]
    every = covered_sums(counts, x, y, jump, 0.25, widths, cells)
    assert [c.shape for c in every] == [(4, n) for n in cells]
    for width, n, got in zip(widths, cells, every):
        [alone] = covered_sums(counts, x, y, jump, 0.25, [width], [n])
        assert got.tobytes() == alone.tobytes()
    assert every[-1].any()
    assert covered_sums(counts, x, y, jump, 0.25, [], []) == []

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
    # BLOCK_VALUES slots (600: a few replicas each); every replica keeps
    # the bits of its own sample(rng).  The hybrid's dense Gaussian part
    # moves in the last ulp with the batch width, so its Poisson part is
    # compared, drawn after the point normals as in the hybrid.
    if slots is not None:
        monkeypatch.setattr(field, "BLOCK_VALUES", slots)
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
        got = np.vstack([filled(sam, [gen(i) for i in range(
            s, min(s + width, 40))]) for s in range(0, 40, width)])
        np.testing.assert_array_equal(got, want)
    if model is SPARSE:
        assert sum(f.points_x.size == 0 for f in singles) > 5


@pytest.mark.parametrize("slots", [None, 2000], ids=["default", "small"])
def test_juxtaposed_poisson_batches_are_width_invariant(slots, monkeypatch):
    if slots is not None:
        monkeypatch.setattr(field, "BLOCK_VALUES", slots)
    sam = PoissonFieldSampler(GridSpec((0.1, 0.4), 5, 2, 0),
                              single_atom_model(-math.log(2.0), 1.0), 3)
    rngs = [make_generator(4, i, "jux") for i in range(40)]
    want = np.array([filled(sam, [r])[0] for r in rngs])
    for width in (3, 37):
        rngs = [make_generator(4, i, "jux") for i in range(40)]
        got = np.concatenate([filled(sam, rngs[s:s + width])
                              for s in range(0, 40, width)])
        np.testing.assert_array_equal(got, want)


SAMPLERS = [  # name, model, grid, copies: each sampler make_sampler gives
    ("dense", lognormal_model(0.5), GridSpec((0.1, 0.4), 4, 2), 1),
    ("juxtaposed-dense", lognormal_model(0.5), GridSpec((0.1, 0.4), 4, 2, 0),
     3),
    ("circulant", lognormal_model(0.5), GridSpec((0.0, 1.0), 9, 4, 0), 1),
    ("poisson", TWO_ATOMS, GridSpec((0.1, 0.4), 4, 2), 1),
    ("juxtaposed-poisson", TWO_ATOMS, GridSpec((0.1, 0.4), 4, 2, 0), 3),
    ("hybrid", HYBRID, GridSpec((0.1, 0.4), 4, 2), 1),
    ("juxtaposed-hybrid", HYBRID, GridSpec((0.1, 0.4), 4, 2, 0), 3),
]


@pytest.mark.parametrize("name,model,grid,copies", SAMPLERS,
                         ids=[s[0] for s in SAMPLERS])
def test_every_sampler_draws_batches_with_blocks(name, model, grid, copies):
    sam = make_sampler(grid, model, copies)
    assert sam.name == name
    assert sam.shape == ((grid.n_points,) if copies == 1 else
                         (copies, grid.n_points))

    def gens():
        return [make_generator(7, i, "t") for i in range(5)]

    out = np.full((5,) + sam.shape, np.nan)
    for s, vals in sam.blocks(gens(), out):
        assert np.shares_memory(vals, out)
    assert np.isfinite(out).all()
    # without out, each block is C-contiguous, with the same bits
    for s, vals in sam.blocks(gens()):
        assert vals.flags.c_contiguous
        np.testing.assert_array_equal(vals, out[s:s + len(vals)])
    assert s + len(vals) == 5
    if copies > 1:
        # one class per noise kind: juxtaposed copies are the one-copy
        # sampler's class, and draw only batches
        one = make_sampler(grid, model)
        assert type(sam) is type(one) and name == "juxtaposed-" + one.name
        with pytest.raises(ValueError, match="blocks"):
            sam.sample(make_generator(7, 0, "t"))


@pytest.mark.parametrize("model", [lognormal_model(0.5), TWO_ATOMS],
                         ids=["gaussian", "poisson"])
def test_make_sampler_needs_a_copy(model):
    with pytest.raises(ValueError, match="n_intervals must be >= 1"):
        make_sampler(GridSpec((0.0, 1.0), 3, 2, 0), model, 0)


def test_poisson_rejects_gaussian_part():
    with pytest.raises(ValueError):
        PoissonFieldSampler(GridSpec(), lognormal_model(0.5))


def test_field_kind_dispatch():
    assert field_kind(lognormal_model(0.3)) == "gaussian"
    assert field_kind(single_atom_model(-0.7, 1.0)) == "poisson"
    assert field_kind(single_atom_model(-0.7, 1.0, sigma2=0.2)) == "hybrid"


def test_single_draws_auto_route_and_are_reproducible():
    model = single_atom_model(-0.7, 1.0, sigma2=0.2)
    g = GridSpec((0.0, 1.0), 4, 2)
    a = make_sampler(g, model).sample(make_generator(5, 0, "t"))
    b = make_sampler(g, model).sample(make_generator(5, 0, "t"))
    np.testing.assert_array_equal(a.point_log, b.point_log)
    c = make_sampler(g, model).sample(make_generator(5, 1, "t"))
    assert not np.array_equal(a.point_log, c.point_log)


def test_truncated_model_stays_normalized():
    nu = AtomicJumps((-1.2, -0.05, 0.4), (0.5, 3.0, 0.2))
    model = build_model(0.1, nu)
    for substitute in (False, True):
        eff = truncated_model(model, 0.1, substitute)
        assert normalization_defect(eff) < 1e-12
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


def test_truncation_keeps_a_tabulated_measure_only_with_mass():
    # every jump below the cutoff: the kept measure has no mass, so it is
    # ZeroJumps, tail rates or not, and a pure-jump model loses all its
    # randomness unless the dropped jumps are substituted.  The dropped
    # variance in closed form: the cubics t^2 * density on the grid, and
    # e^(a t) (t^2/a - 2t/a^2 + 2/a^3) on each tail up to the cutoff
    grid = 5 / 96 + 7 / 375
    tails = (0.625 - 0.73 * math.exp(-0.2)
             + 0.5 * (0.16 / 3 + 0.8 / 9 + 2 / 27
                      - math.exp(-0.6) * (0.12 + 1.2 / 9 + 2 / 27)))
    for rates, dropped in (((None, None), grid), ((2.0, 3.0), grid + tails)):
        nu = TabulatedJumps((-0.5, 0.0, 0.4), (1.0, 2.0, 0.5), *rates)
        model = build_model(0.0, nu)
        sub = truncated_model(model, 0.6, substitute=True)
        assert sub.nu == ZeroJumps()
        assert sub.sigma2 == pytest.approx(dropped, rel=1e-13)
        with pytest.raises(ValueError, match="removed all randomness"):
            truncated_model(model, 0.6)
        # a cutoff inside the grid keeps the big jumps and the tails
        kept = truncated_model(model, 0.3).nu
        assert isinstance(kept, TabulatedJumps)
        assert (kept.left_rate, kept.right_rate) == rates
        assert kept.grid_density[kept.grid_x.index(-0.3)] > 0
    with pytest.raises(ValueError, match="zero total mass"):
        TabulatedJumps((-1.0, 1.0), (0.0, 0.0), 2.0, 3.0)


def test_hybrid_field_is_mean_one():
    model = single_atom_model(-math.log(2.0), 0.6, sigma2=0.3)
    g = GridSpec((0.0, 1.0), 5, 1, 0)
    rng = np.random.default_rng(23)
    n = 4000
    acc = np.zeros(g.n_points)
    acc2 = np.zeros(g.n_points)
    sam = make_sampler(g, model)
    for _ in range(n):
        f = sam.sample(rng)
        w = np.exp(f.point_log)
        acc += w
        acc2 += w * w
    m = acc / n
    se = np.sqrt(np.maximum(acc2 / n - m * m, 0.0) / n)
    assert np.all(np.abs(m - 1.0) < 4.0 * se)


def test_jump_sampler_tabulated_cdf():
    # nu((-inf, q]) in closed form: the left tail (1/2) e^(2 (q + 1)),
    # then trapezoids of the linear density, then the right tail's mass
    # (0.4 / 3) e^(-3 (q - 0.5)) short of the total
    nu = TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0)
    rng = np.random.default_rng(31)
    draws = nu.from_uniforms(nu.uniforms(rng, 60_000))
    total = nu.total_mass()
    cdf = {-1.2: 0.5 * math.exp(-0.4), -0.5: 0.5 + 0.5 * (1.0 + 1.5) / 2,
           0.0: 2.0, 0.3: 2.0 + 0.3 * (2.0 + 1.04) / 2,
           0.7: total - 0.4 / 3.0 * math.exp(-0.6)}
    for q, want in cdf.items():
        got = float(np.mean(draws <= q))
        assert got == pytest.approx(want / total, abs=0.01)


def shadow_index_range(x, y, lo, spacing, count):
    """The evaluation points [k0, k1) under the shadows of (x, y)."""
    return (_points_below(x - 0.5 * y, lo, spacing, count),
            _points_below(x + 0.5 * y, lo, spacing, count))


def test_shadow_index_range_half_open():
    # grid on [0,1), spacing 1/8, eval points at (k+.5)/8
    x = np.array([0.5])
    y = np.array([0.25])
    k0, k1 = shadow_index_range(x, y, 0.0, 0.125, 8)
    # shadow [0.375, 0.625) holds t_3 = 0.4375 and t_4 = 0.5625
    assert (k0[0], k1[0]) == (3, 5)
    # a shadow boundary exactly on an eval point: left-closed, right-open
    x = np.array([0.3125])
    y = np.array([0.375])
    k0, k1 = shadow_index_range(x, y, 0.0, 0.125, 8)
    # shadow [0.125, 0.5): t_1=0.1875, t_2, t_3=0.4375 in; t_4=0.5625 out
    assert (k0[0], k1[0]) == (1, 4)


ATOM = single_atom_model(-math.log(2.0), 1.0)


def replay_strip_map(rng, strips, nu):
    """One generator's points, each mapped by its own strip's sample,
    the strip picked by searchsorted: the reference for the batch map."""
    mass = np.array([s.mass() for s in strips])
    n = rng.poisson(nu.total_mass() * mass.sum())
    which = (np.searchsorted(np.cumsum(mass) / mass.sum(), rng.random(n))
             if len(strips) > 1 else np.zeros(n, np.int64))
    u = rng.random((n, 3))
    x, y = np.full((2, n), np.nan)
    for i, s in enumerate(strips):
        sel = which == i
        x[sel], y[sel] = s.sample(*u[sel].T)
    return which, u, x, y, nu.from_uniforms(nu.uniforms(rng, n))


@pytest.mark.parametrize("strips", [
    cones.sampling_domain((0.0, 1.0), 2.0 ** -6),     # fan heaviest
    cones.sampling_domain((0.0, 1.0), 0.5),           # flank heaviest
    cones.sampling_domain((0.1, 1.3), 0.3 * 2.0 ** -5),  # juxtaposed hull
    [cones.DomainStrip("fan", (0.0, 1.0), 2.0 ** -6, 2.0 ** -4)],  # below L
], ids=["levels-6", "levels-1", "hull", "refinement"])
@pytest.mark.parametrize("nu", [ATOM.nu, TABULATED.nu],
                         ids=["atom", "tabulated"])
def test_batch_points_are_each_strips_own_map(strips, nu):
    # every point goes through the heaviest strip's sample, then the
    # other strips' points again through theirs: each point must end up
    # with its own strip's (x, y), log-branch fan points included, in
    # batches that reuse one set of work arrays
    rngs = [make_generator(12, i, "strips") for i in range(30)]
    work = {}
    got = [field.poisson_points(rngs[s:s + 7], strips, nu, work)
           for s in range(0, 30, 7)]
    counts, x, y, jump = (np.concatenate(a) for a in zip(*got))
    ref = [replay_strip_map(make_generator(12, i, "strips"), strips, nu)
           for i in range(30)]
    which, u, *want = (np.concatenate(a) for a in zip(*ref))
    assert counts.tolist() == [len(r[0]) for r in ref]
    for a, b in zip((x, y, jump), want):
        np.testing.assert_array_equal(a, b)
    # each strip drew points, and fan points on the log branch
    assert set(which.tolist()) == set(range(len(strips)))
    for i, s in enumerate(strips):
        if s.kind == "fan":
            m_log = math.log(s.y_hi / s.y_lo)
            m_inv = s.interval[1] - s.interval[0]
            m_inv = m_inv / s.y_lo - m_inv / s.y_hi
            log_branch = u[which == i, 1] * (m_log + m_inv) < m_log
            assert log_branch.sum() > 3


@pytest.mark.parametrize("copies", [1, 4])
def test_poisson_batch_memory_is_its_output_plus_one_sub_batch(copies):
    grid = GridSpec((0.0, 1.0), 10, 4, 0)
    sam = PoissonFieldSampler(grid, ATOM, copies)
    rngs = [make_generator(2, i, "t") for i in range(60)]
    points = sam._batch * ATOM.nu.total_mass() * sum(
        s.mass() for s in sam.strips)
    diff = sam._batch * copies * (grid.n_points + 1) * 8
    tracemalloc.start()
    try:
        out = filled(sam, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rngs) > 4 * sam._batch
    # one sub-batch's difference array, its points' work arrays (strip
    # and jump uniforms, shadow ends, indices: 89 bytes a point, an eighth
    # more once grown), what the map allocates (the points, jumps, table
    # indices and strip-map temporaries: about 40 bytes a point) and
    # 16 KiB of small objects, whatever the copies; with index arrays of
    # every copy at once, gathered to the kept ranges, a sub-batch of 4
    # copies peaked at about 230 bytes a point
    assert peak < out.nbytes + diff + 170 * points + 16384
