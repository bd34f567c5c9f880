import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from idcascade import cascade, field
from idcascade._rng import make_generator
from idcascade.cascade import (
    BatchSimulator,
    StarDecomposition,
    build_realization,
    decompose_star,
    juxtaposed_total_masses,
    masses_from_point_log,
    model_digest,
    read_binary_masses,
    realization_to_binary,
    realization_to_csv,
    sample_area_logs,
    sample_scale_log,
    scaled_mass_samples,
    simulate_prefix_masses,
    simulate_total_masses,
    write_masses_binary,
)
from idcascade.field import FieldSample, GridSpec, make_sampler
from idcascade.levy import (AtomicJumps, TabulatedJumps, build_model,
                            lognormal_model, single_atom_model)
from idcascade.moments import juxtaposed_pair_moment

from pins import assert_pinned

LOGN = lognormal_model(0.5)
ATOM = single_atom_model(-math.log(2.0), 1.0)
HYBRID = single_atom_model(-0.4, 0.8, sigma2=0.2)
NINE_ATOMS = build_model(0.0, AtomicJumps(
    (-1.2, -0.9, -0.6, -0.3, -0.1, 0.1, 0.3, 0.5, 0.8),
    (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)))
TABULATED = build_model(0.0, TabulatedJumps((-1.0, 0.0, 0.5), (1.0, 2.0, 0.4),
                                            2.0, 3.0))


def test_build_realization_masses_consistent():
    g = GridSpec((0.0, 1.0), 5, 2)
    r = build_realization(LOGN, g, seed=42, replica=3)
    assert r.cell_masses.size == 32
    assert r.total_mass == pytest.approx(r.cell_masses.sum())
    assert (g.leaf_count(0.5), g.leaf_count(1.0)) == (16, 32)
    with pytest.raises(ValueError):
        g.leaf_count(0.3)
    # same (seed, replica) reproduces; different replica differs
    r2 = build_realization(LOGN, g, seed=42, replica=3)
    np.testing.assert_array_equal(r.cell_masses, r2.cell_masses)
    r3 = build_realization(LOGN, g, seed=42, replica=4)
    assert not np.array_equal(r.cell_masses, r3.cell_masses)


def test_degenerate_model_warns():
    g = GridSpec((0.0, 1.0), 3, 1)
    # the sampler is cached after the first call; the warning still fires
    # on every call
    for replica in (0, 1):
        with pytest.warns(UserWarning, match="degenerate"):
            build_realization(lognormal_model(2.5), g, seed=0,
                              replica=replica)


@pytest.mark.parametrize("model,kind", [(LOGN, "gaussian"), (ATOM, "poisson"),
                                        (HYBRID, "hybrid")])
def test_star_identity_is_exact(model, kind):
    g = GridSpec((0.0, 1.0), 5, 2)
    assert field.field_kind(model) == kind
    for replica in range(5):
        r = build_realization(model, g, seed=7, replica=replica)
        for level in (1, 2, 3, 4):  # each sub-cascade keeps a level
            star = decompose_star(r, level)
            recon = star.reconstruct_total()
            assert recon == pytest.approx(r.total_mass, rel=1e-12)
            assert len(star.subs) == 2 ** level
            for sub in star.subs:
                assert sub.grid.levels == g.levels - level
                assert sub.total_mass > 0


def test_star_requires_carried_level_and_field():
    g = GridSpec((0.0, 1.0), 5, 2, 0)
    r = build_realization(LOGN, g, seed=1)
    with pytest.raises(ValueError, match="carry"):
        decompose_star(r, 1)
    g2 = GridSpec((0.0, 1.0), 5, 2)
    for level in (0, 5, 9):  # 5 would leave the sub-cascades no level
        with pytest.raises(ValueError, match="level out of range"):
            decompose_star(build_realization(LOGN, g2, seed=1), level)


def test_star_subcascades_renormalize_weights():
    r = build_realization(ATOM, GridSpec((0.0, 1.0), 4, 2), seed=9)
    star = decompose_star(r, 1)
    # child cell weights divided by the parent weight
    weights = {lev: np.exp(v) for lev, v in r.field.cell_log.items()}
    for i, sub in enumerate(star.subs):
        block = weights[2].reshape(2, -1)[i]
        np.testing.assert_allclose(np.exp(sub.field.cell_log[1]),
                                   block / weights[1][i], rtol=1e-13)


@pytest.mark.parametrize("model", [LOGN, ATOM, HYBRID],
                         ids=["LOGN", "ATOM", "HYBRID"])
def test_star_split_subtracts_the_cell_noise_exactly(model):
    r = build_realization(model, GridSpec((0.0, 1.0), 5, 2), seed=13,
                          replica=2)
    cell_log = r.field.cell_log
    for k in (1, 2):
        star = decompose_star(r, k)
        np.testing.assert_array_equal(star.weights, np.exp(cell_log[k]))
        points = r.field.point_log.reshape(2 ** k, -1)
        for i, sub in enumerate(star.subs):
            np.testing.assert_array_equal(sub.field.point_log,
                                          points[i] - cell_log[k][i])
            assert set(sub.field.cell_log) == set(range(1, 6 - k))
            for lev, vals in sub.field.cell_log.items():
                np.testing.assert_array_equal(
                    vals, cell_log[lev + k].reshape(2 ** k, -1)[i]
                    - cell_log[k][i])


def star_by_cell(realization, level):
    """decompose_star as a loop over the level's cells, each sub-cascade
    reduced on its own: the reference for the split's bits."""
    g, f = realization.grid, realization.field
    cell_vals = f.cell_log[level]
    per_cell = f.point_log.reshape(2 ** level, -1)
    subs = []
    for i, bounds in enumerate(g.cell_bounds(level)):
        sub_grid = g.rescaled(bounds, level_drop=level)
        sub_cells = {lev: f.cell_log[lev + level].reshape(2 ** level, -1)[i]
                     - cell_vals[i] for lev in sub_grid.carried_levels}
        subs.append(cascade._realization(realization.model, FieldSample(
            sub_grid, per_cell[i] - cell_vals[i], sub_cells)))
    return StarDecomposition(level, np.exp(cell_vals), subs)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("model", [LOGN, ATOM, HYBRID],
                         ids=["LOGN", "ATOM", "HYBRID"])
@pytest.mark.parametrize("oversample", [1, 3, 8])
def test_star_split_keeps_the_bits_of_a_loop_over_cells(model, oversample):
    g = GridSpec((0.0, 1.0), 6, oversample)
    r = build_realization(model, g, seed=17, replica=1)
    for level in range(1, g.levels):
        star, want = decompose_star(r, level), star_by_cell(r, level)
        assert (star.level, len(star.subs)) == (level, len(want.subs))
        assert same_bits(star.weights, want.weights)
        for sub, ref in zip(star.subs, want.subs):
            assert sub.grid == ref.grid
            assert same_bits(sub.field.point_log, ref.field.point_log)
            assert sub.field.cell_log.keys() == ref.field.cell_log.keys()
            for lev, vals in ref.field.cell_log.items():
                assert same_bits(sub.field.cell_log[lev], vals)
            assert same_bits(sub.cell_masses, ref.cell_masses)
            assert same_bits(sub.total_mass, ref.total_mass)
        assert same_bits(star.reconstruct_total(), want.reconstruct_total())


@pytest.mark.parametrize("model", [LOGN, ATOM, single_atom_model(-0.4, 0.8, sigma2=0.2)])
def test_batch_chunking_is_invisible(model):
    g = GridSpec((0.0, 1.0), 4, 2, 0)
    sim = BatchSimulator(model, g)
    # chunks() overwrites the array it yields with the next chunk
    a = np.vstack([pl.copy() for _, pl in sim.chunks(5, 13, chunk=3)])
    b = np.vstack([pl.copy() for _, pl in sim.chunks(5, 13, chunk=16)])
    c = np.vstack([pl.copy() for _, pl in sim.chunks(5, 13, chunk=3)])
    # same chunking replays bit-identically; a different chunk size only
    # moves the BLAS accumulation order, so it agrees to the last ulp or so
    np.testing.assert_array_equal(a, c)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("model,cell_levels",
                         [(LOGN, None), (ATOM, None), (HYBRID, 0),
                          (HYBRID, None)],
                         ids=["gaussian", "poisson", "hybrid", "hybrid-cells"])
def test_simulate_total_masses_matches_single_builds(model, cell_levels):
    grid = GridSpec((0.0, 1.0), 4, 2, cell_levels)
    singles = [build_realization(model, grid, seed=11, replica=i).total_mass
               for i in range(4)]
    # the batch on a points-only grid and on the single builds' grid
    for batch_grid in (GridSpec((0.0, 1.0), 4, 2, 0), grid):
        z = simulate_total_masses(model, batch_grid, 11, 4)
        for i in range(4):
            assert z[i] == pytest.approx(singles[i], rel=1e-12)


def test_circulant_batches_replay_single_builds_bitwise():
    # numpy's FFT transforms each row on its own, so on the embedding path
    # neither the chunk width nor a single build moves a bit
    grid = GridSpec((0.0, 1.0), 10, 2, 0)
    sim = BatchSimulator(LOGN, grid)
    assert sim.sampler.name == "circulant"
    singles = np.array([build_realization(LOGN, grid, seed=5,
                                          replica=i).field.point_log
                        for i in range(40)])
    for chunk in (1, 3, 37):
        batch = np.vstack([pl.copy() for _, pl in sim.chunks(5, 40, chunk)])
        np.testing.assert_array_equal(batch, singles)


def test_circulant_hybrid_batches_replay_single_builds_bitwise():
    # the hybrid's Gaussian part is the embedding here: its M normals come
    # before the jumps on every path, so no bit moves
    grid = GridSpec((0.0, 1.0), 10, 2, 0)
    sim = BatchSimulator(HYBRID, grid)
    assert sim.sampler.gauss.name == "circulant"
    singles = np.array([build_realization(HYBRID, grid, seed=6,
                                          replica=i).field.point_log
                        for i in range(12)])
    for chunk in (1, 5, 12):
        batch = np.vstack([pl.copy() for _, pl in sim.chunks(6, 12, chunk)])
        np.testing.assert_array_equal(batch, singles)


BLOCKED = [  # model, grid, copies, replicas: each exceeds its block + 1
    (LOGN, GridSpec((0.0, 1.0), 10, 2, 0), 1, 40),       # circulant, 8
    (ATOM, GridSpec((0.0, 1.0), 10, 4, 0), 1, 20),       # Poisson, 12
    (ATOM, GridSpec((0.0, 1.0), 8, 4, 0), 2, 30),        # 2 copies, 25
    (ATOM, GridSpec((0.0, 1.0), 8, 4, 0), 4, 16),        # 4 copies, 12
    (HYBRID, GridSpec((0.0, 1.0), 10, 2, 0), 1, 40),     # circulant part
    (LOGN, GridSpec((0.1, 0.4), 4, 3, None), 1, 12),     # dense: the chunk
    (LOGN, GridSpec((0.1, 0.4), 4, 3, 0), 3, 12),        # juxtaposed dense
]


def leaf_masses(sim, seed, replicas):
    """(cells, totals, spans): total_masses' totals, the leaf masses its
    each consumer saw, copied into one array, and the (start, rows) of
    each block in the order they came."""
    cells = np.empty((replicas, *sim.sampler.shape[:-1], sim.grid.n_cells))
    spans = []

    def each(start, block):
        cells[start:start + len(block)] = block
        spans.append((start, len(block)))
    return cells, sim.total_masses(seed, replicas, each=each), spans


@pytest.mark.parametrize("model,grid,copies,replicas", BLOCKED,
                         ids=["circulant", "poisson", "juxtaposed-poisson-2",
                              "juxtaposed-poisson-4", "hybrid-circulant",
                              "dense", "juxtaposed-dense"])
def test_masses_are_the_reduced_chunks_bit_for_bit(model, grid, copies,
                                                   replicas, monkeypatch):
    sim = BatchSimulator(model, grid, n_intervals=copies)
    rngs = [make_generator(3, i, "t") for i in range(replicas)]
    block = len(next(sim.sampler.blocks(rngs))[1])
    dense = sim.sampler.name in ("dense", "juxtaposed-dense")
    assert block == replicas if dense else 1 < block < replicas - 1
    for chunk in (1, 7, block - 1, block + 1, replicas + 5):
        want = [(start, *masses_from_point_log(grid, pl))
                for start, pl in sim.chunks(3, replicas, chunk)]
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        cells, z, spans = leaf_masses(sim, 3, replicas)
        # each block is seen once (in any order on a pool's workers),
        # none wider than a chunk
        spans.sort()
        assert [s for s, _ in spans] == list(np.cumsum(
            [0] + [b for _, b in spans[:-1]]))
        assert sum(b for _, b in spans) == replicas
        assert max(b for _, b in spans) <= min(chunk, block)
        # total_masses reduces the same blocks, and each sees their cells
        totals = np.concatenate([w[2] for w in want])
        assert z.shape == totals.shape and z.tobytes() == totals.tobytes()
        whole = np.concatenate([w[1] for w in want])
        assert cells.shape == whole.shape
        np.testing.assert_array_equal(cells, whole)
        # a row's masses keep their bits in a block of any width, also
        # alone, on every path: each block is C-contiguous
        for (_, pl), w in zip(sim.chunks(3, replicas, chunk), want):
            for i in range(len(pl)):
                for a, b in zip(masses_from_point_log(grid, pl[i:i + 1]),
                                w[1:]):
                    np.testing.assert_array_equal(a[0], b[i])
        if not dense:
            # and the draws keep theirs, so the chunk width is invisible
            # too; the dense paths' matrix product sees the width
            monkeypatch.setattr(cascade, "RUN_CHUNK", replicas)
            one = leaf_masses(sim, 3, replicas)
            for a, b in zip(one[:2], (cells, z)):
                np.testing.assert_array_equal(a, b)


def test_batch_rejects_a_non_positive_chunk(monkeypatch):
    sim = BatchSimulator(ATOM, GridSpec((0.0, 1.0), 4, 2, 0))
    for chunk in (0, -1):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            next(sim.chunks(1, 4, chunk))
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            sim.total_masses(1, 4, each=lambda start, cells: None)
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            simulate_total_masses(ATOM, sim.grid, 1, 4)


PROGRESS_GRID = GridSpec((0.0, 1.0), 4, 2, 0)


@pytest.mark.parametrize("batch", [
    lambda progress: simulate_total_masses(
        ATOM, PROGRESS_GRID, 1, 10, progress=progress),
    lambda progress: simulate_prefix_masses(
        ATOM, PROGRESS_GRID, 1, 10, [0.5], progress=progress),
    lambda progress: juxtaposed_total_masses(
        ATOM, PROGRESS_GRID, 2, 1, 10, progress=progress),
    lambda progress: BatchSimulator(ATOM, PROGRESS_GRID).total_masses(
        1, 10, progress),
], ids=["total", "prefix", "juxtaposed", "simulator"])
def test_mass_batches_report_progress_after_each_run_chunk(batch,
                                                           monkeypatch):
    # every mass batch draws cascade.RUN_CHUNK replicas at a time
    monkeypatch.setattr(cascade, "RUN_CHUNK", 3)
    done = []
    batch(done.append)
    assert done == [3, 6, 9, 10]


def test_batch_masses_memory_is_below_one_chunk_of_point_values(
        monkeypatch):
    grid = GridSpec((0.0, 1.0), 10, 4, 0)
    assert make_sampler(grid, LOGN).name == "circulant"
    monkeypatch.setattr(cascade, "RUN_CHUNK", 512)
    tracemalloc.start()
    try:
        simulate_total_masses(LOGN, grid, 4, 520)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk of cells (4 MB), a block of point values and the
    # circulant's spectra and transforms: about 8 MB; drawn a chunk at a
    # time, the point values alone would be the bound, 16 MB
    assert peak < 512 * grid.n_points * 8


CIRCULANT_GRID = GridSpec((0.0, 1.0), 10, 2, 0)  # 2048 points, 8-row blocks


def pooled_draws(method, workers, chunk, monkeypatch):
    """The arrays of a 100-replica circulant batch drawn by the given
    number of workers: chunks()' point values, concatenated (it
    overwrites the array it yields with the next chunk, so each is
    copied), or "masses", the leaf masses total_masses' each consumer
    sees on the workers and its totals."""
    monkeypatch.setattr(cascade, "pool_size", lambda: workers)
    sim = BatchSimulator(LOGN, CIRCULANT_GRID)
    assert sim.sampler.pooled
    if method == "masses":
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        return leaf_masses(sim, 8, 100)[:2]
    return [np.concatenate([pl.copy() for _, pl in sim.chunks(8, 100,
                                                                 chunk)])]


@pytest.mark.parametrize("chunk", [1, 7, 100], ids=["1", "7", "whole"])
@pytest.mark.parametrize("method", ["chunks", "masses"])
def test_circulant_batches_keep_their_bytes_on_two_workers(
        method, chunk, monkeypatch):
    # a whole chunk's 8 runs hold 12 or 13 rows each, more than a block
    one = pooled_draws(method, 1, chunk, monkeypatch)
    two = pooled_draws(method, 2, chunk, monkeypatch)
    assert [a.tobytes() for a in one] == [b.tobytes() for b in two]
    if method == "masses":  # and so are total_masses', on two workers
        z = BatchSimulator(LOGN, CIRCULANT_GRID).total_masses(8, 100)
        assert z.tobytes() == one[1].tobytes()


def test_circulant_totals_keep_their_pinned_values(monkeypatch):
    # numpy's FFT, unlike the dense path's matrix product, gives the same
    # bits at any BLAS thread count, chunk width and worker count
    assert make_sampler(CIRCULANT_GRID, LOGN).name == "circulant"
    for workers in (1, 2):
        monkeypatch.setattr(cascade, "pool_size", lambda: workers)
        for chunk in (1, 4, 10):
            monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
            assert_pinned("circulant/batch",
                          simulate_total_masses(LOGN, CIRCULANT_GRID, 5, 10))


@pytest.mark.parametrize("model,grid", [
    (ATOM, GridSpec((0.0, 1.0), 8, 4, 0)), (LOGN, CIRCULANT_GRID)],
    ids=["poisson", "circulant"])
def test_prefix_masses_keep_their_bytes_at_any_chunk_and_worker_count(
        model, grid, monkeypatch):
    # the prefix sums of each block, on the circulant path taken on the
    # workers, are those of the reduced point values of one whole chunk
    fractions = [0.25, 0.5, 1.0]
    cells = masses_from_point_log(grid, next(BatchSimulator(
        model, grid).chunks(4, 30, 30))[1])[0]
    want = np.cumsum(cells, axis=1)[
        :, [grid.leaf_count(f) - 1 for f in fractions]]
    for workers in (1, 2):
        monkeypatch.setattr(cascade, "pool_size", lambda: workers)
        for chunk in (1, 7, 30):
            monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
            m = simulate_prefix_masses(model, grid, 4, 30, fractions)
            assert m.tobytes() == want.tobytes()


@pytest.mark.parametrize("model,grid,copies", [
    (ATOM, GridSpec((0.0, 1.0), 6, 2, 0), 1),
    (ATOM, GridSpec((0.0, 1.0), 6, 2, 0), 2),
    (HYBRID, CIRCULANT_GRID, 1),
    (LOGN, GridSpec((0.0, 1.0), 5, 2, None), 1),
    (LOGN, GridSpec((0.0, 1.0), 5, 2, 0), 2),
], ids=["poisson", "juxtaposed-poisson", "hybrid-circulant", "dense",
        "juxtaposed-dense"])
def test_unpooled_batches_start_no_worker(model, grid, copies, monkeypatch):
    def refuse(size):
        raise AssertionError("an unpooled batch asked for workers")
    monkeypatch.setattr(cascade, "pool_size", lambda: 2)
    monkeypatch.setattr(cascade, "_worker_pool", refuse)
    sim = BatchSimulator(model, grid, n_intervals=copies)
    assert not sim.sampler.pooled
    list(sim.chunks(1, 12, 6))
    monkeypatch.setattr(cascade, "RUN_CHUNK", 6)
    sim.total_masses(1, 12, each=lambda start, cells: None)


def test_import_starts_no_thread_and_no_futures():
    pkg_root = os.path.dirname(os.path.dirname(cascade.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, threading, idcascade; "
             "print('concurrent.futures' in sys.modules, "
             "threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]


def test_two_worker_circulant_chunk_memory_is_its_output_plus_a_block_each(
        monkeypatch):
    monkeypatch.setattr(cascade, "pool_size", lambda: 2)
    sim = BatchSimulator(LOGN, GridSpec((0.0, 1.0), 10, 4, 0))
    m = sim.sampler.size
    rows = field.CIRCULANT_BLOCK_VALUES // m
    block = rows * (m + 2) * 8 + rows * m * 8  # spectra and transforms
    sim.point_log_chunk(2, 0, 500)  # the workers and their generators
    tracemalloc.start()
    try:
        out = sim.point_log_chunk(2, 500, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per worker one block and the FFT's one-row work buffer, and 16 KiB
    # of small objects each
    assert peak < out.nbytes + 2 * (block + 8 * m + 16384)


@pytest.mark.parametrize("model,copies,replicas",
                         [(LOGN, 1, 600), (ATOM, 1, 600), (ATOM, 4, 200)],
                         ids=["circulant", "poisson", "juxtaposed-poisson-4"])
def test_total_masses_hold_no_chunk_of_leaf_masses(model, copies, replicas,
                                                    monkeypatch):
    grid = GridSpec((0.0, 1.0), 10, 4, 0)  # 4096 points, 1024 leaf cells
    peaks = {}
    monkeypatch.setattr(cascade, "pool_size", lambda: 2)
    for chunk in (2000, 16):
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        sim = BatchSimulator(model, grid, n_intervals=copies)
        sim.total_masses(1, replicas)  # generators, work arrays
        tracemalloc.start()
        try:
            out = sim.total_masses(2, replicas)
            peaks[chunk] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    workers = cascade.pool_size() if sim.sampler.pooled else 1
    rngs = [make_generator(3, i, "t") for i in range(64)]
    rows = len(next(sim.sampler.blocks(rngs))[1])
    # a block's point values, their exp and its leaf masses, and on the
    # circulant path its spectra, its transforms and the FFT's one-row
    # work buffer; a chunk of leaf masses is 8 KiB per replica and copy
    block = 8 * rows * copies * (2 * grid.n_points + grid.n_cells)
    if sim.sampler.name == "circulant":
        m = sim.sampler.size
        block += 8 * rows * (2 * m + 2) + 8 * m
    work = sum(a.nbytes for a in vars(sim._local).get("work", {}).values())
    # at chunk 16 each of two workers' 8 runs is half a block wide
    assert abs(peaks[2000] - peaks[16]) < workers * block
    # and the calling thread's work arrays, 16 KiB of small objects each
    assert peaks[2000] < out.nbytes + workers * (block + 16384) + work


def each_block(grid, seed):
    BatchSimulator(ATOM, grid).total_masses(
        seed, 512, each=lambda start, cells: None)


def prefix_masses(grid, seed):
    simulate_prefix_masses(ATOM, grid, seed, 512, [0.25, 0.5])


@pytest.mark.parametrize("consume", [each_block, prefix_masses],
                         ids=["each-block", "prefix-masses"])
def test_a_consumer_of_leaf_masses_holds_no_chunk(consume, monkeypatch):
    grid = GridSpec((0.0, 1.0), 13, 1, 0)  # 8192 points and leaf cells
    peaks = {}
    for chunk in (256, 8):
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        tracemalloc.start()
        try:
            consume(grid, 2)
            peaks[chunk] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rngs = [make_generator(3, i, "t") for i in range(64)]
    rows = len(next(make_sampler(grid, ATOM).blocks(rngs))[1])
    # a fresh simulator's generators and Poisson work arrays (about 4
    # MB) and one sub-batch's point values and leaf masses at either
    # chunk, and 248 more generators at chunk 256; a chunk of leaf
    # masses would add 16.8 MB
    assert peaks[256] - peaks[8] < 8 * rows * (grid.n_points + grid.n_cells)


@pytest.mark.parametrize("model", [LOGN, ATOM], ids=["circulant", "poisson"])
def test_a_chunks_consumer_holds_one_chunk_of_point_values(model,
                                                           monkeypatch):
    grid = GridSpec((0.0, 1.0), 10, 4, 0)  # 4096 points, 1024 leaf cells
    peaks = {}
    monkeypatch.setattr(cascade, "pool_size", lambda: 2)
    sim = BatchSimulator(model, grid)
    for _ in sim.chunks(1, 256, 256):  # generators, work arrays
        pass
    for chunk in (128, 256):
        tracemalloc.start()
        try:
            # the benchmark's loop, keeping none of the masses
            for _, pl in sim.chunks(2, 512, chunk):
                masses_from_point_log(grid, pl)
            peaks[chunk] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one more chunk of point values, and of leaf masses while it is
    # reduced: 1.25 times the 4.2 MB by which a chunk of point values
    # grows; holding the previous chunk during a draw makes it twice that
    step = 128 * grid.n_points * 8
    assert step < peaks[256] - peaks[128] < 1.5 * step


def test_point_log_chunk_rejects_an_out_it_cannot_fill_block_by_block():
    sim = BatchSimulator(ATOM, GridSpec((0.0, 1.0), 4, 2, 0))
    shape = (3,) + sim.sampler.shape
    for out in (np.empty(shape, np.float32),      # not float64
                np.empty(shape[::-1]).T,          # not C-contiguous
                np.empty((4,) + shape[1:])):      # not the chunk's shape
        with pytest.raises(ValueError, match="C-contiguous float64"):
            sim.point_log_chunk(1, 0, 3, out)
    out = np.empty(shape)
    assert sim.point_log_chunk(1, 0, 3, out) is out
    assert out.tobytes() == sim.point_log_chunk(1, 0, 3).tobytes()


@pytest.mark.parametrize("model", [LOGN, HYBRID], ids=["gaussian", "hybrid"])
def test_batches_on_a_cell_carrying_grid_draw_its_points_alone(model):
    # 2048 points and every cell level: a batch reads leaf masses alone, so
    # it draws on the circulant embedding, bit for bit as on the points
    grid = GridSpec((0.0, 1.0), 9, 4)
    sim = BatchSimulator(model, grid)
    assert sim.grid is grid
    assert getattr(sim.sampler, "gauss", sim.sampler).name == "circulant"
    z = sim.total_masses(3, 40)
    points = BatchSimulator(model, GridSpec((0.0, 1.0), 9, 4, 0))
    assert z.tobytes() == points.total_masses(3, 40).tobytes()


def test_deep_circulant_total_mass_has_mean_one():
    # 65,536 points: far past what a dense factor could hold
    z = simulate_total_masses(LOGN, GridSpec((0.0, 1.0), 16, 1, 0), 16,
                              300)
    pull = abs(z.mean() - 1.0) / (z.std(ddof=1) / math.sqrt(z.size))
    assert pull < 3.0


def test_hybrid_point_values_do_not_depend_on_cell_levels():
    points_only = build_realization(HYBRID, GridSpec((0.0, 1.0), 4, 2, 0),
                                    seed=11)
    all_levels = build_realization(HYBRID, GridSpec((0.0, 1.0), 4, 2),
                                   seed=11)
    np.testing.assert_array_equal(all_levels.field.points_x,
                                  points_only.field.points_x)
    np.testing.assert_array_equal(all_levels.field.points_jump,
                                  points_only.field.points_jump)
    # the two grids' Cholesky factors agree only to rounding
    np.testing.assert_allclose(all_levels.field.point_log,
                               points_only.field.point_log, rtol=0,
                               atol=1e-12)


def test_juxtaposition_needs_two_intervals():
    for copies in (1, 0):
        with pytest.raises(ValueError, match="n_intervals must be >= 2"):
            juxtaposed_total_masses(LOGN, GridSpec((0.0, 1.0), 3, 2, 0),
                                    copies, 1, 2)


def test_poisson_draws_keep_their_pinned_values(monkeypatch):
    # Recorded with the scalar, point-by-point map from uniforms to points:
    # a seed must name the same realization on every version.
    assert_pinned("poisson/batch", simulate_total_masses(
        ATOM, GridSpec((0.0, 1.0), 8, 2, 0), 11, 3))
    # a non-dyadic base interval; every chunk width replays the same bits
    for chunk in (256, 1, 2):
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        j = juxtaposed_total_masses(ATOM, GridSpec((0.1, 0.4), 6, 2, 0), 3,
                                    11, 2)
        assert_pinned("poisson/juxtaposed", j)
    assert_pinned("poisson/juxtaposed/cone-drop", j)


def test_poisson_sub_batches_keep_their_pinned_values(monkeypatch):
    # the atom config's grid: 12 replicas per Poisson sub-batch and 3 per
    # sub-batch of 4 copies, so chunks of 1, 7 and 40 replicas cut the
    # sub-batches at different replicas, and every batch draws into work
    # arrays that earlier sub-batches and chunks used; recorded with each
    # sub-batch's arrays allocated afresh
    grid = GridSpec((0.0, 1.0), 10, 4, 0)
    for chunk in (1, 7, 40):
        monkeypatch.setattr(cascade, "RUN_CHUNK", chunk)
        assert_pinned("poisson/sub-batches",
                      simulate_total_masses(ATOM, grid, 7, 40))
    monkeypatch.setattr(cascade, "RUN_CHUNK", 3)
    j = juxtaposed_total_masses(ATOM, grid, 4, 7, 7)
    assert_pinned("poisson/sub-batches/juxtaposed", j)
    assert_pinned("poisson/sub-batches/juxtaposed/cone-drop", j)


@pytest.mark.parametrize("model,path", [(NINE_ATOMS, "jumps/nine-atoms"),
                                        (TABULATED, "jumps/tabulated")],
                         ids=["nine-atoms", "tabulated"])
def test_jump_measure_draws_keep_their_pinned_values(model, path):
    # the jump draws of a many-atom and of a tabulated measure, pinned so
    # that the measure's own tables replay the bits they had when a
    # separate sampler object held them
    assert_pinned(path, simulate_total_masses(
        model, GridSpec((0.0, 1.0), 6, 2, 0), 11, 3))
    j = juxtaposed_total_masses(model, GridSpec((0.1, 0.4), 5, 2, 0), 3,
                                11, 1)
    assert_pinned(path + "/juxtaposed", j)
    assert_pinned(path + "/juxtaposed/cone-drop", j)


CELL_GRID = GridSpec((0.0, 1.0), 3, 2, None)  # every level carried


@pytest.mark.parametrize("model,path", [(ATOM, "single/atoms"),
                                        (TABULATED, "single/tabulated"),
                                        (HYBRID, "single/hybrid")],
                         ids=["atoms", "tabulated", "hybrid"])
def test_cell_carrying_single_builds_keep_their_pinned_values(model, path):
    # every fourth point, every other cell of each carried level, the total
    r = build_realization(model, CELL_GRID, seed=5, replica=2)
    cells = [r.field.cell_log[lev][::2] for lev in CELL_GRID.carried_levels]
    assert_pinned(path, [*r.field.point_log[::4], *np.concatenate(cells),
                         r.total_mass])


def test_star_split_keeps_its_pinned_sub_cascade_totals():
    r = build_realization(ATOM, CELL_GRID, seed=5, replica=2)
    assert_pinned("star/atoms", [s.total_mass for level in (1, 2)
                                 for s in decompose_star(r, level).subs])


def test_prefix_masses_columns_are_nested():
    g = GridSpec((0.0, 1.0), 5, 2, 0)
    m = simulate_prefix_masses(LOGN, g, 3, 50, [0.25, 0.5, 1.0])
    assert m.shape == (50, 3)
    assert np.all(m[:, 0] <= m[:, 1] + 1e-15)
    assert np.all(m[:, 1] <= m[:, 2] + 1e-15)
    with pytest.raises(ValueError):
        simulate_prefix_masses(LOGN, g, 3, 5, [0.3])


@pytest.mark.parametrize("copies", [2, 4, 8])
def test_juxtaposed_copies_are_the_star_split_of_their_hull(copies):
    # the paper's random difference equation Z = 2^-k sum_i e^W_i Z_i: the
    # sub-cascades of a star split of [0, n] at level k = log2 n are n
    # cascades on juxtaposed unit intervals driven by one noise
    k = copies.bit_length() - 1
    hull = GridSpec((0.0, float(copies)), 6 + k, 2, k)
    j = juxtaposed_total_masses(ATOM, GridSpec((0.0, 1.0), 6, 2, 0), copies,
                                5, 50, stream_tag="star")
    for replica in range(50):
        r = build_realization(ATOM, hull, seed=5, replica=replica,
                              stream_tag="star")
        subs = [sub.total_mass for sub in decompose_star(r, k).subs]
        np.testing.assert_allclose(subs, j[replica], rtol=1e-12)


@pytest.mark.parametrize("model", [LOGN, ATOM, HYBRID])
def test_juxtaposed_covariance_matches_quadrature(model):
    g = GridSpec((0.0, 1.0), 6, 2, 0)
    reps = 6000
    masses = juxtaposed_total_masses(model, g, 3, 13, reps)
    assert masses.shape == (reps, 3)
    cov_quad, _ = juxtaposed_pair_moment(model, 1)
    x, y = masses[:, 0], masses[:, 1]
    prod = x * y
    est = prod.mean() - x.mean() * y.mean()
    se = prod.std() / math.sqrt(reps)
    assert abs(est - cov_quad) < 3.5 * se
    # stationarity: the two adjacent pairs agree
    est2 = (masses[:, 1] * masses[:, 2]).mean() - \
        masses[:, 1].mean() * masses[:, 2].mean()
    assert abs(est2 - cov_quad) < 3.5 * se


def test_scaled_mass_samples_validation():
    g = GridSpec((0.0, 1.0), 5, 2, 0)
    with pytest.raises(ValueError):
        scaled_mass_samples(LOGN, g, 0.3, 1, 10)
    with pytest.raises(ValueError):
        scaled_mass_samples(LOGN, g, 2.0 ** -5, 1, 10)
    # a ratio outside (0, 1] is named before any draw
    for lam in (0.0, -0.5, 2.0):
        for call in (lambda: scaled_mass_samples(LOGN, g, lam, 1, 10),
                     lambda: sample_scale_log(LOGN, lam, None)):
            with pytest.raises(ValueError,
                               match=r"scale ratio must lie in \(0, 1\]"):
                call()
    out = scaled_mass_samples(LOGN, g, 0.25, 1, 16)
    assert out.shape == (16,)
    assert np.all(out > 0)


@pytest.mark.parametrize("model", [
    ATOM, HYBRID, LOGN, build_model(0.0, TabulatedJumps(
        (-1.0, 0.0, 0.5), (1.0, 2.0, 0.4), 2.0, 3.0))],
    ids=["atom", "hybrid", "lognormal", "tabulated"])
def test_scaled_mass_samples_replay_single_scale_draws(model, monkeypatch):
    # the scale factors are drawn and summed a chunk at a time, with the
    # bits of one sample_scale_log per replica
    monkeypatch.setattr(cascade, "RUN_CHUNK", 16)
    grid = GridSpec((0.0, 1.0), 5, 2, 0)
    got = scaled_mass_samples(model, grid, 0.25, 4, 50)
    z = simulate_total_masses(model, GridSpec((0.0, 1.0), 3, 2, 0), 4, 50,
                              stream_tag="scaling-z")
    w = np.array([sample_scale_log(model, 0.25,
                                   make_generator(4, r, "scaling-w"))
                  for r in range(50)])
    np.testing.assert_array_equal(got, 0.25 * np.exp(w) * z)


def test_sample_area_logs_zero_area_and_mean_one():
    rng = make_generator(1, 0, "area")
    assert sample_area_logs(ATOM, 0.0, [rng]).tolist() == [[0.0]]
    v = sample_area_logs(ATOM, math.log(2.0), [rng], 50_000)[0]
    q = np.exp(v)
    assert abs(q.mean() - 1.0) < 4.0 * q.std() / math.sqrt(q.size)
    with pytest.raises(ValueError):
        sample_area_logs(ATOM, -1.0, [rng])


def test_model_digest_distinguishes_models():
    assert model_digest(LOGN) == model_digest(lognormal_model(0.5))
    assert model_digest(LOGN) != model_digest(lognormal_model(0.6))
    assert model_digest(ATOM) != model_digest(LOGN)
    assert len(model_digest(ATOM)) == 16


def test_model_digest_keeps_its_pinned_bytes():
    # written into every binary dump, so the bytes of each kind are fixed:
    # zero, hybrid, atoms, tabulated
    assert_pinned("model/digest", [model_digest(m) for m in (
        LOGN, HYBRID, NINE_ATOMS, TABULATED)])


def test_binary_roundtrip(tmp_path):
    r = build_realization(LOGN, GridSpec((0.0, 1.0), 5, 2), seed=2)
    path = tmp_path / "r.bin"
    realization_to_binary(r, path)
    levels, oversample, digest, masses = read_binary_masses(path)
    assert (levels, oversample) == (5, 2)
    assert digest == model_digest(LOGN)
    np.testing.assert_array_equal(masses, r.cell_masses)

    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="dump"):
        read_binary_masses(bad)
    short = tmp_path / "short.bin"
    with open(path, "rb") as fh:
        short.write_bytes(fh.read()[:-8])
    with pytest.raises(ValueError, match="length"):
        read_binary_masses(short)
    cut = tmp_path / "cut.bin"  # cut inside the header
    cut.write_bytes(b"IDCZ\x01\x00")
    with pytest.raises(ValueError, match="header cut short"):
        read_binary_masses(cut)
    blob[:4] = b"IDCZ"
    blob[4:8] = (2).to_bytes(4, "little")
    later = tmp_path / "v2.bin"
    later.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported dump version 2"):
        read_binary_masses(later)


def test_dump_cut_inside_a_value_names_its_length(tmp_path):
    path = tmp_path / "r.bin"
    realization_to_binary(
        build_realization(LOGN, GridSpec((0.0, 1.0), 3, 2), seed=2), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match="payload length does not match"):
        read_binary_masses(path)
    # a depth of 2^32 - 1 levels, rejected without computing 2 ** depth
    path.write_bytes(b"IDCZ" + struct.pack("<III", 1, 2 ** 32 - 1, 2)
                     + bytes(24))
    with pytest.raises(ValueError, match="payload length does not match"):
        read_binary_masses(path)


def test_binary_writer_rejects_masses_of_another_depth(tmp_path):
    grid = GridSpec((0.0, 1.0), 3, 2)
    path = tmp_path / "r.bin"
    for n in (0, 7, 9, 16):
        with pytest.raises(ValueError, match="masses for a grid of 8"):
            write_masses_binary(path, grid, model_digest(LOGN), np.ones(n))
    assert not path.exists()


def write_binary_by_open(path, grid, digest, masses):
    """write_masses_binary through a truncating open(path, "wb")."""
    with open(path, "wb") as fh:
        fh.write(b"IDCZ" + struct.pack("<III", 1, grid.levels,
                                       grid.oversample) + digest)
        fh.write(np.asarray(masses, dtype="<f8").tobytes())


@pytest.mark.parametrize("model", [LOGN, ATOM, HYBRID],
                         ids=["LOGN", "ATOM", "HYBRID"])
def test_binary_dumps_match_a_truncating_writer(model, tmp_path):
    got, want = tmp_path / "got.bin", tmp_path / "want.bin"
    got.write_bytes(b"x" * 4096)  # rewritten in place, then cut
    for levels in (5, 3):
        r = build_realization(model, GridSpec((0.0, 1.0), levels, 2),
                              seed=6, replica=levels)
        realization_to_binary(r, got)
        write_binary_by_open(want, r.grid, model_digest(model),
                             r.cell_masses)
        assert got.read_bytes() == want.read_bytes()


def test_exports_write_to_the_null_device():
    r = build_realization(LOGN, GridSpec((0.0, 1.0), 3, 2), seed=2)
    realization_to_csv(r, os.devnull)
    realization_to_binary(r, os.devnull)
    write_masses_binary(os.devnull, r.grid, model_digest(LOGN),
                        r.cell_masses)


def test_new_exports_get_the_permissions_of_open(tmp_path):
    r = build_realization(LOGN, GridSpec((0.0, 1.0), 3, 2), seed=2)
    writers = {"csv": realization_to_csv, "bin": realization_to_binary}
    for umask in (0o022, 0o077, 0o000):
        old = os.umask(umask)
        try:
            with open(tmp_path / f"ref-{umask}", "wb"):
                pass
            for suffix, write in writers.items():
                write(r, tmp_path / f"r-{umask}.{suffix}")
        finally:
            os.umask(old)
        want = os.stat(tmp_path / f"ref-{umask}").st_mode
        for suffix in writers:
            assert os.stat(tmp_path / f"r-{umask}.{suffix}").st_mode == want


def test_csv_export(tmp_path):
    r = build_realization(LOGN, GridSpec((0.0, 1.0), 3, 2), seed=2)
    path = tmp_path / "r.csv"
    realization_to_csv(r, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cell_index,cell_lo,cell_hi,mass"
    assert len(lines) == 1 + 8
    idx, lo, hi, mass = lines[1].split(",")
    assert (int(idx), float(lo), float(hi)) == (0, 0.0, 0.125)
    assert float(mass) == pytest.approx(r.cell_masses[0], rel=1e-15)


def test_csv_bytes_match_the_per_row_format(tmp_path):
    def per_row(r):
        edges = r.grid.cell_edges(r.grid.levels)
        return "".join(["cell_index,cell_lo,cell_hi,mass\n"] + [
            f"{i},{edges[i]:.17g},{edges[i + 1]:.17g},{m:.17g}\n"
            for i, m in enumerate(r.cell_masses)]).encode()

    # written alternately, so each grid's cached row heads are reused
    grids = (GridSpec((0.1, 0.4), 4, 2), GridSpec((0.0, 1.0), 5, 2))
    path = tmp_path / "r.csv"
    for replica in range(3):
        for g in grids:
            r = build_realization(LOGN, g, seed=4, replica=replica)
            realization_to_csv(r, path)
            assert path.read_bytes() == per_row(r)


def masses_by_definition(grid, point_log):
    """The reduction's definition, on the whole input at once: each leaf
    cell's mass is the mean of exp over its oversample points, times
    2^-levels, and the total is the sum of the cells."""
    w = np.exp(point_log)
    leaf = w.reshape(w.shape[:-1] + (grid.n_cells, grid.oversample))
    cell = leaf.mean(axis=-1) * 2.0 ** (-grid.levels)
    return cell, cell.sum(axis=-1)


@pytest.mark.parametrize("oversample", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_reduction_keeps_the_bits_of_its_definition(oversample,
                                                    monkeypatch):
    # strided adds below oversample 8 and numpy's mean from there must
    # give the definition's bits, on one row, on a batch reduced in blocks
    # of 1, 2 and all rows, and on a batch of juxtaposed copies
    grid = GridSpec((0.0, 1.0), 5, oversample, 0)
    rng = make_generator(9, oversample, "t")
    batch = rng.standard_normal((5, grid.n_points))
    copies = rng.standard_normal((4, 3, grid.n_points))
    for point_log in (batch[2], batch, copies):
        want = masses_by_definition(grid, point_log)
        for rows in (1, 2, len(point_log)):
            monkeypatch.setattr(field, "BLOCK_VALUES",
                                rows * point_log[0].size)
            got = masses_from_point_log(grid, point_log)
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(b)
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rows", [1, 3])
def test_block_reduction_keeps_the_one_shot_bits(rows, monkeypatch):
    grid = GridSpec((0.1, 0.4), 4, 3, 0)
    rngs = [make_generator(6, i, "t") for i in range(40)]
    batch = np.empty((40, grid.n_points))
    for _ in make_sampler(grid, LOGN).blocks(rngs, batch):
        pass
    # the juxtaposed dense block, the whole batch, is C-contiguous like
    # every block, so a block of any rows, also of one (rows 1 and 3
    # leave one), sums each row's totals in the same order
    (_, jux), = make_sampler(grid, LOGN, 3).blocks(rngs)
    assert jux.shape == (40, 3, grid.n_points)
    assert jux.flags.c_contiguous
    for point_log in (batch[0], batch, jux):
        monkeypatch.setattr(field, "BLOCK_VALUES",
                            rows * point_log[0].size)
        got = masses_from_point_log(grid, point_log)
        want = masses_by_definition(grid, point_log)  # the whole at once
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)


def test_batch_reduction_memory_is_its_outputs_plus_one_block():
    grid = GridSpec((0.0, 1.0), 10, 4, 0)
    point_log = make_generator(2, 0, "t").standard_normal(
        (500, grid.n_points))
    block = field.BLOCK_VALUES * 8
    tracemalloc.start()
    try:
        cell, total = masses_from_point_log(grid, point_log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block's exp, its two cell-sized products (the mean and the
    # scaled mean, 1 / oversample of a block each) and 16 KiB of small
    # objects; the exp of the whole chunk would add 16 MB
    assert peak < (cell.nbytes + total.nbytes
                   + block * (1 + 2 / grid.oversample) + 16384)
