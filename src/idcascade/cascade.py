"""Cascade realizations and their structural operations.

A realization is one field sample and the measure it induces: leaf-cell
masses and the total mass (a cell's weight is the exp of its cell noise).
The operations here are the structural facts the engine exists to verify:

* star decomposition: the measure restricted to a level-k cell factors into
  the cell weight times an independent rescaled copy of the whole cascade;
* refinement: field.py extends a realization's field downward in scale
  without touching the noise already drawn;
* juxtaposition: cascades on adjacent unit intervals driven by one shared
  noise field, giving a stationary dependent sequence of masses;
* exact scaling: the mass of [0, lam] equals in law lam * exp(W) * Z' with
  W the noise of a fixed single region and Z' an independent copy at the
  matched relative truncation.
"""

import functools
import hashlib
import itertools
import json
import math
import os
import stat
import struct
import threading
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import field
from .levy import NoiseModel, ZeroJumps, jump_drift, mean_slope
from .field import FieldSample, GridSpec, _scratch, make_sampler
from ._rng import make_generator, streams


def model_digest(model):
    """16-byte stable digest of a model's defining data."""
    blob = json.dumps([model.sigma2, model.nu.digest_fields()],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).digest()[:16]


@dataclass
class Realization:
    """One cascade sample: its field draw, the masses it induces and its
    provenance.  Its kind is field.field_kind(model)."""

    model: NoiseModel
    field: FieldSample
    cell_masses: np.ndarray            # leaf-level masses, length 2^levels
    total_mass: float
    seed: Optional[int] = None
    replica: Optional[int] = None

    @property
    def grid(self):
        return self.field.grid


def _leaf_masses(grid, w, cell, total):
    """Leaf masses into cell and their sums into total, from w, the exp
    of point values: each leaf's mean of its oversample values, times
    2^-levels, with the bits of numpy's mean.  Below oversample 8 that
    mean adds a leaf's values in order, and strided adds straight into
    cell do the same without its temporaries (and several times faster
    than its reduction over a short last axis)."""
    m = grid.oversample
    if 1 < m < 8:
        np.add(w[..., 0::m], w[..., 1::m], out=cell)
        for j in range(2, m):
            cell += w[..., j::m]
        cell /= m
    else:
        np.mean(w.reshape(w.shape[:-1] + (grid.n_cells, m)), axis=-1,
                out=cell)
    cell *= 2.0 ** (-grid.levels)
    np.add.reduce(cell, axis=-1, out=total)


def masses_from_point_log(grid, point_log):
    """Leaf masses and total from point noise values (any leading shape).

    A batch is reduced in blocks of about field.BLOCK_VALUES values along
    its leading axis, each a slice of the caller's array: a block's exp
    is written into one buffer that every block reuses, and its leaf
    masses and totals straight into the output (_leaf_masses).  The
    samplers' batches are C-contiguous, and such a batch reduces each row
    to the same bits on its own, so the blocks keep the bits of the whole
    batch at once.
    """
    if point_log.ndim == 1:
        cell, total = np.empty(grid.n_cells), np.empty(())
        _leaf_masses(grid, np.exp(point_log), cell, total)
        return cell, total[()]
    cell = np.empty(point_log.shape[:-1] + (grid.n_cells,))
    total = np.empty(point_log.shape[:-1])
    step = max(1, field.BLOCK_VALUES // math.prod(point_log.shape[1:]))
    buf = np.empty((min(step, len(point_log)),) + point_log.shape[1:])
    for a in range(0, len(point_log), step):
        rows = slice(a, a + step)
        w = np.exp(point_log[rows], out=buf[:len(total[rows])])
        _leaf_masses(grid, w, cell[rows], total[rows])
    return cell, total


def _realization(model, sample, seed=None, replica=None):
    """The Realization of a field sample, its masses from
    masses_from_point_log."""
    cell, total = masses_from_point_log(sample.grid, sample.point_log)
    return Realization(model, sample, cell, float(total), seed, replica)


def build_realization(model, grid, *, seed, replica=0, stream_tag="cascade"):
    """Simulate one realization from the stream of (seed, replica)."""
    if mean_slope(model) >= 0:
        warnings.warn("structure-function slope at 1 is nonnegative: the "
                      "cascade limit is degenerate; fine-level masses will "
                      "collapse", stacklevel=2)
    rng = make_generator(seed, replica, stream_tag)
    return _realization(model, make_sampler(grid, model).sample(rng), seed,
                        replica)


# ---------------------------------------------------------------------------
# batched simulation
# ---------------------------------------------------------------------------


# The pool that pooled batches draw on (BatchSimulator), as (size,
# executor): started by the first batch that needs a second worker, and
# again at another size.
_pool = None

# Replicas per chunk of every mass batch (total_masses and the functions
# on it).  Only the dense paths' bits depend on it, through the product's
# width.
RUN_CHUNK = 256


# Runs per worker that a pooled chunk is split into, taken by the workers
# in turn: a worker whose CPU is busy with other work takes fewer.  At
# 4096 points, chunks of 500, on a 2-vCPU host with a busy loop pinned to
# one CPU, two workers drew 2703 replicas/s at 1 run each, fewer than one
# thread's 3200, and 3568 and 3608 at 4 and 8 (medians of 8 runs); on an
# idle host 1, 2, 4 and 8 tied (4446-4769 over 10).
RUNS_PER_WORKER = 4


def usable_cpus():
    """The CPUs this process may run on, in increasing order."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity calls on this platform
        return list(range(os.cpu_count() or 1))


def pool_size():
    """Workers of a pooled batch: every usable CPU.  Restrict the CPUs
    through the process's affinity (taskset, say) to use fewer."""
    return len(usable_cpus())


def _pin(cpus, counter):
    # each worker takes the next usable CPU where the platform allows it.
    # In 24 batches of 2000 replicas at 4096 points on a 2-vCPU KVM host,
    # two unpinned workers fell to 3072-4025 replicas/s in 3, as if on
    # one CPU; pinned, none drew fewer than 4703 (medians 5571-5837)
    try:
        os.sched_setaffinity(0, {cpus[next(counter) % len(cpus)]})
    except (AttributeError, OSError):
        pass


def _worker_pool(size):
    global _pool
    if _pool is None or _pool[0] != size:
        from concurrent.futures import ThreadPoolExecutor
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (size, ThreadPoolExecutor(size, "idcascade-worker", _pin,
                                          (usable_cpus(), itertools.count())))
    return _pool[1]


class BatchSimulator:
    """Chunked replica simulation with one stream per replica.

    Each replica draws from its own counter-based stream (each thread's
    generators are re-keyed from chunk to chunk), so the values do
    not depend on how the work is chunked or which thread draws it: bit
    for bit on the circulant and Poisson paths, and to the last ulp on
    the dense Gaussian path, whose matrix product changes its BLAS kernel
    with the chunk width.  total_masses() draws RUN_CHUNK replicas at a
    time, so a dense-path replica has the bits of a chunk of RUN_CHUNK, or
    of the batch's last, shorter chunk; chunks() takes its width.  With
    n_intervals > 1 each replica is n_intervals adjacent copies of the
    grid driven by one noise.  A batch reads leaf masses alone, so
    whatever cells the grid carries it draws on the sampler of its points
    (make_sampler at cell_levels = 0).

    A chunk is drawn a sampler block at a time (the sampler's blocks):
    a block of CIRCULANT_BLOCK_VALUES normals, a Poisson sub-batch, or,
    on the dense paths, whose bits depend on the width, the whole chunk.
    total_masses() reduces each block's leaf masses into one block-sized
    work array of the drawing thread, shows them to its each consumer
    and keeps only the totals: at any depth and chunk it holds its
    output and, per worker, one block of leaf masses and one of point
    values (on the dense paths also the matrix product that block is
    copied from, C-contiguous like every block); at levels 16,
    oversample 1 and chunks of 256, 9.2 MB traced, where a chunk of leaf
    masses is 134 MB.  chunks() yields (start, point_log) in order, each
    chunk drawn into one buffer that the next overwrites: a consumer
    holds one chunk of point values, not two (1.07 GB, not 2.14 GB, at
    levels 16, oversample 4 and chunks of 512).

    A pooled sampler's chunk (only the circulant embedding's) is split
    into RUNS_PER_WORKER contiguous runs of replicas per worker
    (pool_size: every usable CPU of the process's affinity), which
    the workers take in turn; each worker draws a run with its own
    generators and work arrays and writes or reduces it into its rows of
    the chunk's output, calling each on its own blocks.  numpy's FFT and
    the normal fills release the GIL, and each row keeps its bits in any
    run, so the outputs do not depend on the worker count.  Each worker
    holds a block of spectra and one of transforms, 2^15 normals each:
    0.5 MB at 4096 points.  At 4096 points, chunks of 500, two pinned workers on a
    2-vCPU host drew 5582 replicas/s against 3438 on one thread (medians
    of 10 paired runs), for 2.4% more peak RSS (85.5 against 83.6 MB).
    The other samplers draw on the calling thread.  The Poisson draws
    hold the GIL in many small numpy calls: on the same host, in chunks
    of 256, verify's scaling_ks draws at 1024 points took 0.67 s on two
    workers against 0.46 s on one, and 2000 replicas at 4096 points
    0.289 s against 0.319 s (medians of 12 and 20 alternating runs).
    The dense product's bits depend on its width, and BLAS may run
    threads of its own.
    """

    def __init__(self, model, grid, *, stream_tag="cascade", n_intervals=1):
        self.model = model
        self.grid = grid
        self.stream_tag = stream_tag
        self.sampler = make_sampler(replace(grid, cell_levels=0), model,
                                    n_intervals)
        # per thread: the generators to re-key and the sampler's work arrays
        self._local = threading.local()

    def _draw_run(self, seed, start, lo, hi, out, each):
        """Replicas start + lo .. start + hi on this thread's generators
        and work arrays into rows lo .. hi of out: their point values, or
        with each their totals, each(start + row, cells) seeing a block's
        leaf masses before the next block overwrites their work array."""
        local = vars(self._local)
        rngs = streams(local.setdefault("gens", []), seed, start + lo,
                       hi - lo, self.stream_tag)
        work = local.setdefault("work", {})
        if each is None:
            for _ in self.sampler.blocks(rngs, out[lo:hi], work):
                pass
            return
        shape = (*self.sampler.shape[:-1], self.grid.n_cells)
        for s, vals in self.sampler.blocks(rngs, None, work):
            cells = _scratch(work, "cells", len(vals), shape)
            _leaf_masses(self.grid, np.exp(vals, out=vals), cells,
                         out[lo + s:lo + s + len(vals)])
            each(start + lo + s, cells)

    def _draw(self, seed, start, count, out, each=None):
        """_draw_run over the chunk's count replicas: RUNS_PER_WORKER
        contiguous runs per worker for a pooled sampler, all waited for,
        else one run on this thread."""
        size = pool_size() if self.sampler.pooled else 1
        runs = min(count, RUNS_PER_WORKER * size) if size > 1 else 1
        if runs <= 1:
            self._draw_run(seed, start, 0, count, out, each)
            return
        bounds = [count * i // runs for i in range(runs + 1)]
        pool = _worker_pool(size)
        futures = [pool.submit(self._draw_run, seed, start, lo, hi, out,
                               each) for lo, hi in zip(bounds, bounds[1:])]
        for done in futures:  # no run is left drawing when one raises
            done.exception()
        for done in futures:
            done.result()

    def point_log_chunk(self, seed, start, count, out=None):
        """(count, n_points) noise values for replicas start..start+count,
        (count, n_intervals, n_points) with n_intervals > 1: the sampler's
        blocks, written into out, C-contiguous float64 like every block
        (so that their masses keep their bits), or into a new array."""
        shape = (count,) + self.sampler.shape
        if out is None:
            out = np.empty(shape)
        elif (out.dtype != np.float64 or out.shape != shape
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 array "
                             f"of shape {shape}")
        self._draw(seed, start, count, out)
        return out

    @staticmethod
    def _spans(replicas, chunk, progress):
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        for start in range(0, replicas, chunk):
            count = min(chunk, replicas - start)
            yield start, count
            if progress is not None:
                progress(start + count)

    def chunks(self, seed, replicas, chunk=512, progress=None):
        """(start, point_log) per chunk of replicas, drawn into the leading
        rows of one buffer that the next chunk overwrites; progress(done)
        is called after the caller is done with a chunk."""
        buf = None
        for start, count in self._spans(replicas, chunk, progress):
            if buf is None:  # once _spans has checked the chunk
                buf = np.empty((min(chunk, replicas),) + self.sampler.shape)
            yield start, self.point_log_chunk(seed, start, count, buf[:count])

    def total_masses(self, seed, replicas, progress=None, each=None):
        """Total masses, (replicas,) or (replicas, n_intervals), drawn
        RUN_CHUNK replicas at a time; each(start, cells), if given, sees
        each block's leaf masses, (rows, n_cells) or (rows, n_intervals,
        n_cells), on the thread that drew them (on a pooled sampler's
        workers at once) before it draws its next block."""
        out = np.empty((replicas, *self.sampler.shape[:-1]))
        each = each or (lambda start, cells: None)
        for start, count in self._spans(replicas, RUN_CHUNK, progress):
            self._draw(seed, start, count, out[start:start + count], each)
        return out


def simulate_total_masses(model, grid, seed, replicas, *,
                          stream_tag="cascade", progress=None):
    """Total masses of independent replicas, one counter stream each."""
    return BatchSimulator(model, grid, stream_tag=stream_tag).total_masses(
        seed, replicas, progress)


def simulate_prefix_masses(model, grid, seed, replicas, fractions, *,
                           stream_tag="cascade", progress=None):
    """Masses of [lo, lo + f*length] for each dyadic fraction f, per replica."""
    counts = [grid.leaf_count(f) for f in fractions]
    out = np.empty((replicas, len(counts)))

    def prefix(start, cells):
        np.cumsum(cells, axis=1, out=cells)  # prefix sums in place
        for i, k in enumerate(counts):
            out[start:start + len(cells), i] = cells[:, k - 1] if k else 0.0
    BatchSimulator(model, grid, stream_tag=stream_tag).total_masses(
        seed, replicas, progress, prefix)
    return out


# ---------------------------------------------------------------------------
# star decomposition
# ---------------------------------------------------------------------------


@dataclass
class StarDecomposition:
    """Masses over level-k cells split as weight times rescaled sub-cascade.

    For each level-k cell: total = 2^-k * sum_i weight[i] * sub_total[i],
    and each sub-realization has the law of a fresh cascade on its cell at
    relative truncation level (levels - k), independent of its weight.
    """

    level: int
    weights: np.ndarray
    subs: List[Realization]

    def reconstruct_total(self):
        return float(2.0 ** (-self.level) *
                     np.sum(self.weights * [s.total_mass for s in self.subs]))


def decompose_star(realization, level):
    """Split a realization at dyadic level k into weights and sub-cascades.

    The sub-cascade noise is the pathwise difference between each point's
    or descendant cell's value and its ancestor cell's value, which is
    exactly the noise of the point's local cone (or the cell's region)
    relative to the cell.  The level's sub-cascades are reduced in one
    batch, each sub's arrays rows of the level's arrays, with the bits
    each has reduced alone (masses_from_point_log).
    """
    g = realization.grid
    if not 1 <= level < g.levels:
        raise ValueError("level out of range")
    f = realization.field
    if level not in f.cell_log:
        raise ValueError(f"realization does not carry level {level} weights")
    cell_vals = f.cell_log[level]
    ancestors = cell_vals[:, None]
    points = f.point_log.reshape(2 ** level, -1) - ancestors
    edges = g.cell_edges(level).tolist()
    sub_grids = [g.rescaled(b, level_drop=level) for b in zip(edges, edges[1:])]
    cells = {lev: f.cell_log[lev + level].reshape(2 ** level, -1) - ancestors
             for lev in sub_grids[0].carried_levels}
    masses, totals = masses_from_point_log(sub_grids[0], points)
    subs = [Realization(realization.model, FieldSample(
        sub_grid, points[i], {lev: c[i] for lev, c in cells.items()}),
        masses[i], float(totals[i]))
        for i, sub_grid in enumerate(sub_grids)]
    return StarDecomposition(level, np.exp(cell_vals), subs)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def refine(realization, extra_levels, rng):
    """Extend a realization by extra dyadic levels, reusing its noise.

    The already-drawn noise (heights >= eps) is kept; only the band between
    the new and old truncation heights is fresh, and the refined field is
    drawn in field.py (field.refine_field).  With extra_levels = 0 the
    realization is returned as is.
    """
    if extra_levels < 0:
        raise ValueError("extra_levels must be >= 0")
    if extra_levels == 0:
        return realization
    g = realization.grid
    fine = GridSpec(g.interval, g.levels + extra_levels, g.oversample,
                    None if g.cell_levels is None else
                    (g.cell_levels + extra_levels if g.cell_levels == g.levels
                     else g.cell_levels))
    f = field.refine_field(realization.model, realization.field, fine, rng)
    return _realization(realization.model, f, realization.seed,
                        realization.replica)


# ---------------------------------------------------------------------------
# juxtaposition: adjacent intervals driven by one noise field
# ---------------------------------------------------------------------------


def juxtaposed_total_masses(model, grid, n_intervals, seed, replicas, *,
                            stream_tag="juxtapose", progress=None):
    """(replicas, n_intervals) total masses of adjacent copies of grid
    sharing one noise, n_intervals >= 2."""
    if n_intervals < 2:
        raise ValueError("n_intervals must be >= 2")
    return BatchSimulator(model, grid, stream_tag=stream_tag,
                          n_intervals=n_intervals).total_masses(
        seed, replicas, progress)


# ---------------------------------------------------------------------------
# exact scaling
# ---------------------------------------------------------------------------


def sample_area_logs(model, area, rngs, size=1):
    """(len(rngs), size) draws of the noise of one fixed region of the
    given area, row j from rngs[j] with the bits of a batch of rngs[j]
    alone: the building block of the scale-factor law, whose exp has mean
    one for any normalized model.  The batch's jumps are mapped and
    summed at once, so reduceat groups every sum alike."""
    if area < 0:
        raise ValueError("area must be nonnegative")
    val = np.zeros((len(rngs), size))
    if area > 0 and model.sigma2 > 0:
        val += [r.normal(-0.5 * model.sigma2 * area,
                         math.sqrt(model.sigma2 * area), size=size)
                for r in rngs]
    nu = model.nu
    if area > 0 and not isinstance(nu, ZeroJumps):
        counts = np.array([r.poisson(nu.total_mass() * area, size=size)
                           for r in rngs])
        totals = counts.sum(axis=1)
        u = [nu.uniforms(r, n) for r, n in zip(rngs, totals)]
        jumps = np.insert(nu.from_uniforms(np.concatenate(u, axis=1)),
                          np.cumsum(totals), 0.0)
        seg = counts.copy()
        seg[:, -1] += 1  # a generator's 0.0 ends its last sum
        val += jump_drift(nu) * area + np.add.reduceat(
            jumps, np.cumsum(seg) - seg.ravel()).reshape(seg.shape) * (
                counts > 0)
    return val


def _scale_area(lam):
    """The area log(1/lam) of the region whose noise W relates masses
    across scale ratio lam, which must lie in (0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("scale ratio must lie in (0, 1]")
    return math.log(1.0 / lam)


def sample_scale_log(model, lam, rng):
    """log of the random factor relating masses across scale ratio lam.

    The factor exp(W) has W the noise of one fixed region of area
    log(1/lam); lam = 1 gives W = 0 exactly.
    """
    return float(sample_area_logs(model, _scale_area(lam), [rng])[0, 0])


def scaled_mass_samples(model, grid, lam, seed, replicas, *,
                        stream_tag="scaling"):
    """Independent draws of lam * exp(W) * Z' at matched truncation.

    Z' is simulated at level levels - log2(1/lam) so its relative truncation
    matches the prefix mass mu([0, lam]) read off a level-`levels` grid.
    """
    area = _scale_area(lam)
    k = math.log2(1.0 / lam)
    if abs(k - round(k)) > 1e-9:
        raise ValueError("scale ratio must be a dyadic power")
    k = round(k)
    if k >= grid.levels:
        raise ValueError("scale ratio too small for the grid depth")
    sub = GridSpec(grid.interval, grid.levels - k, grid.oversample)
    z = simulate_total_masses(model, sub, seed, replicas,
                              stream_tag=stream_tag + "-z")
    w = np.empty(replicas)
    gens = []
    for start, count in BatchSimulator._spans(replicas, RUN_CHUNK, None):
        rngs = streams(gens, seed, start, count, stream_tag + "-w")
        w[start:start + count] = sample_area_logs(model, area, rngs)[:, 0]
    return lam * np.exp(w) * z


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_MAGIC = b"IDCZ"


def _write_file(path, data):
    """Write the bytes data as the whole content of the file at path,
    made with open(path, "wb")'s permissions if it is new.  An existing
    file is overwritten in place, with one write, and then cut to
    len(data) if it is a regular file (not os.devnull, say): on ext4 on
    a 2-vCPU VM a 2 KB rewrite took 6-10 us so, and 90 us through the
    truncation and block reallocation of open(path, "wb").  Neither this
    nor open syncs to disk.  An overwrite interrupted by a crash can
    leave the new bytes ahead of the old file's tail, but never an empty
    file, where a truncating open could leave one."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


@functools.lru_cache(maxsize=8)
def _csv_template(grid):
    """The CSV text of a grid's leaf masses, a %.17g slot for each mass."""
    edges = grid.cell_edges(grid.levels).tolist()
    return "cell_index,cell_lo,cell_hi,mass\n" + "".join(
        f"{i},{lo:.17g},{hi:.17g},%.17g\n"
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])))


def realization_to_csv(realization, path):
    """Leaf masses as delimited text with 17 significant digits."""
    text = _csv_template(realization.grid) % tuple(
        realization.cell_masses.tolist())
    _write_file(path, text.encode())


def write_masses_binary(path, grid, digest, masses):
    """Compact dump: magic, version, levels, oversample, model digest,
    then leaf masses as little-endian float64."""
    header = _MAGIC + struct.pack(
        "<III", 1, grid.levels, grid.oversample) + digest
    if len(masses) != 2 ** grid.levels:
        raise ValueError(f"{len(masses)} masses for a grid of "
                         f"{2 ** grid.levels} leaf cells")
    _write_file(path, header + np.asarray(masses, dtype="<f8").tobytes())


def realization_to_binary(realization, path):
    write_masses_binary(path, realization.grid,
                        model_digest(realization.model),
                        realization.cell_masses)


def read_binary_masses(path):
    """Inverse of realization_to_binary: (levels, oversample, digest, masses)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError("not a cascade dump")
    if len(blob) < 32:
        raise ValueError("cascade dump header cut short")
    version, levels, oversample = struct.unpack("<III", blob[4:16])
    if version != 1:
        raise ValueError(f"unsupported dump version {version}")
    if levels >= 64 or len(blob) - 32 != 8 * 2 ** levels:
        raise ValueError("payload length does not match the header depth")
    return levels, oversample, blob[16:32], np.frombuffer(blob[32:], "<f8")
