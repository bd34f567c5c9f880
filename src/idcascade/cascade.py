"""Cascade realizations and their structural operations.

A realization turns one field sample into the measure it induces: leaf-cell
masses, per-level cell weights, and the total mass.  The operations here are
the structural facts the engine exists to verify:

* star decomposition: the measure restricted to a level-k cell factors into
  the cell weight times an independent rescaled copy of the whole cascade;
* refinement: a realization can be extended downward in scale without
  touching the noise already drawn;
* juxtaposition: cascades on adjacent unit intervals driven by one shared
  noise field, giving a stationary dependent sequence of masses;
* exact scaling: the mass of [0, lam] equals in law lam * exp(W) * Z' with
  W the noise of a fixed single region and Z' an independent copy at the
  matched relative truncation.
"""

import functools
import hashlib
import json
import math
import struct
import threading
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import cones
from .levy import (AtomicJumps, NoiseModel, TabulatedJumps, ZeroJumps,
                   mean_slope)
from .field import (FieldSample, GridSpec, PoissonFieldSampler,
                    _chol_with_jitter, _gram_objects, footprint_areas,
                    jump_law, make_sampler, poisson_points, sample_field)
from ._rng import make_generator, streams


def model_digest(model):
    """16-byte stable digest of a model's defining data."""
    nu = model.nu
    if isinstance(nu, ZeroJumps):
        desc = ["zero"]
    elif isinstance(nu, AtomicJumps):
        desc = ["atoms", list(nu.locations), list(nu.masses)]
    elif isinstance(nu, TabulatedJumps):
        desc = ["tabulated", list(nu.grid_x), list(nu.grid_density),
                nu.left_rate, nu.right_rate]
    else:
        raise TypeError(f"unknown jump measure {type(nu).__name__}")
    blob = json.dumps([model.sigma2, desc], sort_keys=True).encode()
    return hashlib.sha256(blob).digest()[:16]


@dataclass
class Realization:
    """One cascade sample on a grid: masses, weights, provenance."""

    grid: GridSpec
    model: NoiseModel
    kind: str
    cell_masses: np.ndarray            # leaf-level masses, length 2^levels
    weights: Dict[int, np.ndarray]     # level -> exp(cell noise)
    total_mass: float
    field: Optional[FieldSample] = None
    seed: Optional[int] = None
    replica: Optional[int] = None

    def mass_of_prefix(self, fraction):
        """Mass of [lo, lo + fraction * length]; fraction must be dyadic."""
        k = fraction * self.grid.n_cells
        if abs(k - round(k)) > 1e-9:
            raise ValueError("prefix must align with the leaf cells")
        return float(self.cell_masses[:round(k)].sum())


# Point values per block of a batch reduction: the exp of one block is
# the reduction's largest temporary.
REDUCE_BLOCK_VALUES = 2 ** 16


def _leaf_masses(grid, point_log):
    w = np.exp(point_log)
    leaf = w.reshape(w.shape[:-1] + (grid.n_cells, grid.oversample))
    cell = leaf.mean(axis=-1) * (2.0 ** (-grid.levels))
    return cell, cell.sum(axis=-1)


def masses_from_point_log(grid, point_log, out=None):
    """Leaf masses and total from point noise values (any leading shape).

    A batch is reduced in blocks of about REDUCE_BLOCK_VALUES values along
    its leading axis, each a slice of the caller's array in the caller's
    layout, with the bits of the whole batch at once: a contiguous copy of
    a transposed view (JuxtaposedGaussianSampler's) would change the
    totals' summation order, and so would a block of one row of it, so
    every block of a batch of two or more rows has at least two.  A
    C-contiguous batch reduces each row to the same bits on its own.
    A batch's (cell, total) may be written into out.
    """
    if point_log.ndim == 1:
        return _leaf_masses(grid, point_log)
    count = len(point_log)
    cell, total = out if out is not None else (
        np.empty(point_log.shape[:-1] + (grid.n_cells,)),
        np.empty(point_log.shape[:-1]))
    step = max(2, REDUCE_BLOCK_VALUES // math.prod(point_log.shape[1:]))
    starts = range(0, max(1, count - 1), step)  # the last block takes 2+
    for a, b in zip(starts, [*starts[1:], count]):
        cell[a:b], total[a:b] = _leaf_masses(grid, point_log[a:b])
    return cell, total


def build_realization(model, grid, rng=None, *, seed=None, replica=0,
                      stream_tag="cascade"):
    """Simulate one realization; pass either an rng or a (seed, replica)."""
    if (rng is None) == (seed is None):
        raise ValueError("pass exactly one of rng or seed")
    if mean_slope(model) >= 0:
        warnings.warn("structure-function slope at 1 is nonnegative: the "
                      "cascade limit is degenerate; fine-level masses will "
                      "collapse", stacklevel=2)
    if rng is None:
        rng = make_generator(seed, replica, stream_tag)
    f = sample_field(grid, model, rng)
    cell, total = masses_from_point_log(grid, f.point_log)
    weights = {lev: np.exp(v) for lev, v in f.cell_log.items()}
    return Realization(grid, model, f.kind, cell, weights, float(total),
                       field=f, seed=seed, replica=replica)


# ---------------------------------------------------------------------------
# batched simulation
# ---------------------------------------------------------------------------


class BatchSimulator:
    """Chunked replica simulation with one stream per replica.

    Each replica draws from its own counter-based stream (each thread's
    generators are re-keyed from chunk to chunk), so the values do
    not depend on how the work is chunked: bit for bit on the circulant
    and Poisson paths, and to the last ulp on the dense Gaussian path,
    whose matrix product changes its BLAS kernel with the chunk width.
    With n_intervals > 1 each replica is n_intervals adjacent copies of
    the grid driven by one noise.

    A chunk is drawn a sampler block at a time (the sampler's blocks):
    a block of CIRCULANT_BLOCK_VALUES normals, a Poisson sub-batch, or,
    on the dense paths, whose bits depend on the width, the whole chunk.
    masses() reduces each block as it is drawn and yields (start, cells,
    totals): it holds one chunk's leaf masses and one block of point
    values.  chunks() yields (start, point_log) for callers that need
    the point values: it holds the chunk's point values, and the
    caller's previous chunk while it draws the next.
    """

    def __init__(self, model, grid, *, stream_tag="cascade", n_intervals=1):
        self.model = model
        self.grid = grid
        self.stream_tag = stream_tag
        self.sampler = make_sampler(grid, model, n_intervals)
        self._local = threading.local()  # per-thread generators to re-key

    def _streams(self, seed, start, count):
        return streams(vars(self._local).setdefault("gens", []), seed, start,
                       count, self.stream_tag)

    def point_log_chunk(self, seed, start, count):
        """(count, n_points) noise values for replicas start..start+count,
        (count, n_intervals, n_points) with n_intervals > 1."""
        return self.sampler.point_logs(self._streams(seed, start, count))

    @staticmethod
    def _spans(replicas, chunk, progress):
        for start in range(0, replicas, chunk):
            count = min(chunk, replicas - start)
            yield start, count
            if progress is not None:
                progress(start + count)

    def chunks(self, seed, replicas, chunk=512, progress=None):
        """(start, point_log) per chunk of replicas; progress(done) is
        called after the caller is done with a chunk."""
        for start, count in self._spans(replicas, chunk, progress):
            yield start, self.point_log_chunk(seed, start, count)

    def masses(self, seed, replicas, chunk=512, progress=None):
        """(start, cells, totals) per chunk: masses_from_point_log of the
        chunk's point values, reduced a sampler block at a time."""
        for start, count in self._spans(replicas, chunk, progress):
            for s, vals in self.sampler.blocks(
                    self._streams(seed, start, count)):
                if s == 0:
                    lead = (count,) + vals.shape[1:-1]
                    cells = np.empty(lead + (self.grid.n_cells,))
                    totals = np.empty(lead)
                rows = slice(s, s + len(vals))
                masses_from_point_log(self.grid, vals,
                                      out=(cells[rows], totals[rows]))
            yield start, cells, totals


def simulate_total_masses(model, grid, seed, replicas, *, chunk=512,
                          stream_tag="cascade", progress=None):
    """Total masses of independent replicas, one counter stream each."""
    sim = BatchSimulator(model, grid, stream_tag=stream_tag)
    out = np.empty(replicas)
    for start, _, totals in sim.masses(seed, replicas, chunk, progress):
        out[start:start + len(totals)] = totals
    return out


def simulate_prefix_masses(model, grid, seed, replicas, fractions, *,
                           chunk=512, stream_tag="cascade", progress=None):
    """Masses of [lo, lo + f*length] for each dyadic fraction f, per replica."""
    fractions = list(fractions)
    counts = []
    for f in fractions:
        k = f * grid.n_cells
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"fraction {f} does not align with leaf cells")
        counts.append(round(k))
    sim = BatchSimulator(model, grid, stream_tag=stream_tag)
    out = np.empty((replicas, len(fractions)))
    for start, cells, _ in sim.masses(seed, replicas, chunk, progress):
        csum = np.cumsum(cells, axis=1)
        for i, k in enumerate(counts):
            out[start:start + len(cells), i] = csum[:, k - 1] if k else 0.0
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

    The sub-cascade point noise is the pathwise difference between each
    point's value and its ancestor cell's value, which is exactly the noise
    of the point's local cone relative to the cell.
    """
    g = realization.grid
    if not 1 <= level <= g.levels:
        raise ValueError("level out of range")
    if level not in realization.weights:
        raise ValueError(f"realization does not carry level {level} weights")
    if realization.field is None:
        raise ValueError("realization was built without its field")
    cell_vals = np.log(realization.weights[level])
    point_log = realization.field.point_log
    per_cell = point_log.reshape(2 ** level, -1)
    subs = []
    bounds = g.cell_bounds(level)
    for i, (clo, chi) in enumerate(bounds):
        sub_grid = g.rescaled((clo, chi), level_drop=level)
        sub_points = per_cell[i] - cell_vals[i]
        cells, total = masses_from_point_log(sub_grid, sub_points)
        sub_weights = {}
        for lev in sub_grid.carried_levels:
            parent = lev + level
            if parent in realization.weights:
                block = realization.weights[parent].reshape(2 ** level, -1)[i]
                sub_weights[lev] = block / realization.weights[level][i]
        sub_field = FieldSample(sub_grid, realization.kind, sub_points,
                                {lev: np.log(w)
                                 for lev, w in sub_weights.items()})
        subs.append(Realization(sub_grid, realization.model,
                                realization.kind, cells, sub_weights,
                                float(total), field=sub_field))
    return StarDecomposition(level, realization.weights[level].copy(), subs)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def refine(realization, extra_levels, rng):
    """Extend a realization by extra dyadic levels, reusing its noise.

    The already-drawn noise (heights >= eps) is kept; only the band between
    the new and old truncation heights is fresh.  Atomic fields keep their
    points and add a Poisson draw on the new band.  Gaussian fields draw the
    fine-grid values conditionally on every old value and add an independent
    band field.  With extra_levels = 0 the realization is returned as is.
    """
    if extra_levels < 0:
        raise ValueError("extra_levels must be >= 0")
    if extra_levels == 0:
        return realization
    if realization.field is None:
        raise ValueError("realization was built without its field")
    g = realization.grid
    fine = GridSpec(g.interval, g.levels + extra_levels, g.oversample,
                    None if g.cell_levels is None else
                    (g.cell_levels + extra_levels if g.cell_levels == g.levels
                     else g.cell_levels))
    if realization.kind == "poisson":
        f = _refine_poisson(realization, fine, rng)
    elif realization.kind == "gaussian":
        f = _refine_gaussian(realization, fine, rng)
    else:
        raise ValueError(f"refine not implemented for kind "
                         f"{realization.kind!r}")
    cells, total = masses_from_point_log(fine, f.point_log)
    weights = {lev: np.exp(v) for lev, v in f.cell_log.items()}
    return Realization(fine, realization.model, realization.kind, cells,
                       weights, float(total), field=f,
                       seed=realization.seed, replica=realization.replica)


def _refine_poisson(realization, fine, rng):
    g = realization.grid
    old = realization.field
    strip = cones.refinement_strip(g.interval, g.eps, fine.eps)
    sampler = PoissonFieldSampler(fine, realization.model)
    _, xs, ys, jumps = poisson_points([rng], [strip], sampler.jumps)
    x = np.concatenate([old.points_x, xs])
    y = np.concatenate([old.points_y, ys])
    jump = np.concatenate([old.points_jump, jumps])
    point_log, cell_log = sampler.evaluate(x, y, jump)
    return FieldSample(fine, "poisson", point_log, cell_log,
                       points_x=x, points_y=y, points_jump=jump)


def _refine_gaussian(realization, fine, rng):
    g = realization.grid
    sigma2 = realization.model.sigma2
    L = g.length
    old = realization.field

    # conditioning objects: old points (cut at old eps) and old cells
    p = _gram_objects(g)
    x_old = np.concatenate([old.point_log] +
                           [old.cell_log[lev] for lev in g.carried_levels])

    # new objects, part above the old truncation height: fine points cut at
    # the OLD eps, plus the genuinely new cell levels cut at the old eps
    # (their regions continue below it; that part belongs to the band field).
    new_levels = [lev for lev in fine.carried_levels
                  if lev not in g.carried_levels]
    q_lo, q_hi, _ = _gram_objects(fine, new_levels)
    q = (q_lo, q_hi, np.full(q_lo.size, g.eps))

    G_pp = footprint_areas(L, p, p)
    G_qp = footprint_areas(L, q, p)
    G_qq = footprint_areas(L, q, q)
    for G in (G_pp, G_qp, G_qq):
        G *= sigma2
    mean_p = -0.5 * sigma2 * footprint_areas(L, p)
    mean_q = -0.5 * sigma2 * footprint_areas(L, q)

    solve = np.linalg.solve
    jitter = 1e-12 * float(np.mean(np.diag(G_pp)))
    np.fill_diagonal(G_pp, G_pp.diagonal() + jitter)
    w = solve(G_pp, x_old - mean_p)
    cond_mean = mean_q + G_qp @ w
    cond_cov = G_qq - G_qp @ solve(G_pp, G_qp.T)
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    chol, _ = _chol_with_jitter(cond_cov)
    above = cond_mean + chol @ rng.standard_normal(q_lo.size)

    # independent band field between the two truncation heights
    hull = (np.maximum(q_hi[:, None], q_hi[None, :]) -
            np.minimum(q_lo[:, None], q_lo[None, :]))
    band = sigma2 * cones.strip_kernel(hull, fine.eps, g.eps)
    band_mean = -0.5 * sigma2 * cones.strip_kernel(q_hi - q_lo, fine.eps,
                                                   g.eps)
    chol_band, _ = _chol_with_jitter(band)
    vals = above + band_mean + chol_band @ rng.standard_normal(q_lo.size)

    point_log = vals[:fine.n_points]
    cell_log = {}
    off = fine.n_points
    for lev in new_levels:
        cell_log[lev] = vals[off:off + 2 ** lev]
        off += 2 ** lev
    for lev in g.carried_levels:
        if lev in fine.carried_levels:
            cell_log[lev] = old.cell_log[lev].copy()
    return FieldSample(fine, "gaussian", point_log, cell_log)


# ---------------------------------------------------------------------------
# juxtaposition: adjacent intervals driven by one noise field
# ---------------------------------------------------------------------------


def juxtaposed_total_masses(model, grid, n_intervals, seed, replicas, *,
                            chunk=256, stream_tag="juxtapose", progress=None):
    """(replicas, n_intervals) total masses of adjacent copies of grid
    sharing one noise."""
    sim = BatchSimulator(model, grid, stream_tag=stream_tag,
                         n_intervals=n_intervals)
    out = np.empty((replicas, n_intervals))
    for start, _, totals in sim.masses(seed, replicas, chunk, progress):
        out[start:start + len(totals)] = totals
    return out


# ---------------------------------------------------------------------------
# exact scaling
# ---------------------------------------------------------------------------


def sample_area_log(model, area, rng, size=None):
    """Draws of the noise of one fixed region of the given area.

    The exponential of a draw has mean one for any normalized model; this
    is the scalar building block of the scale-factor law and of the
    single-region normalization checks.  With size=None returns a float.
    """
    val = sample_area_logs(model, area, [rng], 1 if size is None else size)[0]
    return float(val[0]) if size is None else val


def sample_area_logs(model, area, rngs, size=1):
    """(len(rngs), size) draws of sample_area_log, row j from rngs[j].

    Each generator makes sample_area_log's draws; the batch's jumps are
    mapped and summed at once, so reduceat groups every sum alike."""
    if area < 0:
        raise ValueError("area must be nonnegative")
    val = np.zeros((len(rngs), size))
    if area > 0 and model.sigma2 > 0:
        val += [r.normal(-0.5 * model.sigma2 * area,
                         math.sqrt(model.sigma2 * area), size=size)
                for r in rngs]
    if area > 0 and not isinstance(model.nu, ZeroJumps):
        js, drift = jump_law(model.nu)
        counts = np.array([r.poisson(js.total * area, size=size)
                           for r in rngs])
        totals = counts.sum(axis=1)
        u = [js.uniforms(r, n) for r, n in zip(rngs, totals)]
        jumps = np.insert(js.from_uniforms(np.concatenate(u, axis=1)),
                          np.cumsum(totals), 0.0)
        seg = counts.copy()
        seg[:, -1] += 1  # a generator's 0.0 ends its last sum
        val += drift * area + np.add.reduceat(
            jumps, np.cumsum(seg) - seg.ravel()).reshape(seg.shape) * (
                counts > 0)
    return val


def sample_scale_log(model, lam, rng):
    """log of the random factor relating masses across scale ratio lam.

    The factor exp(W) has W the noise of one fixed region of area
    log(1/lam); lam = 1 gives W = 0 exactly.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("scale ratio must lie in (0, 1]")
    return sample_area_log(model, math.log(1.0 / lam), rng)


def scaled_mass_samples(model, grid, lam, seed, replicas, *, chunk=512,
                        stream_tag="scaling"):
    """Independent draws of lam * exp(W) * Z' at matched truncation.

    Z' is simulated at level levels - log2(1/lam) so its relative truncation
    matches the prefix mass mu([0, lam]) read off a level-`levels` grid.
    """
    k = math.log2(1.0 / lam)
    if abs(k - round(k)) > 1e-9:
        raise ValueError("scale ratio must be a dyadic power")
    k = round(k)
    if k >= grid.levels:
        raise ValueError("scale ratio too small for the grid depth")
    sub = GridSpec(grid.interval, grid.levels - k, grid.oversample, 0)
    z = simulate_total_masses(model, sub, seed, replicas, chunk=chunk,
                              stream_tag=stream_tag + "-z")
    w = np.empty(replicas)
    gens = []
    for start in range(0, replicas, chunk):
        rngs = streams(gens, seed, start, min(chunk, replicas - start),
                       stream_tag + "-w")
        w[start:start + chunk] = sample_area_logs(
            model, math.log(1.0 / lam), rngs)[:, 0]
    return lam * np.exp(w) * z


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_MAGIC = b"IDCZ"


@functools.lru_cache(maxsize=8)
def _csv_row_heads(grid):
    """The "index,lo,hi," head of each leaf cell's CSV row."""
    edges = grid.cell_edges(grid.levels).tolist()
    return tuple(f"{i},{lo:.17g},{hi:.17g},"
                 for i, (lo, hi) in enumerate(zip(edges, edges[1:])))


def realization_to_csv(realization, path):
    """Leaf masses as delimited text with 17 significant digits."""
    heads = _csv_row_heads(realization.grid)
    body = "".join([f"{head}{m:.17g}\n" for head, m in
                    zip(heads, realization.cell_masses.tolist())])
    with open(path, "w") as fh:
        fh.write("cell_index,cell_lo,cell_hi,mass\n")
        fh.write(body)


def write_masses_binary(path, grid, digest, masses):
    """Compact dump: magic, version, levels, oversample, model digest,
    then leaf masses as little-endian float64."""
    header = _MAGIC + struct.pack(
        "<III", 1, grid.levels, grid.oversample) + digest
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(masses, dtype="<f8").tobytes())


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
    version, levels, oversample = struct.unpack("<III", blob[4:16])
    if version != 1:
        raise ValueError(f"unsupported dump version {version}")
    digest = blob[16:32]
    masses = np.frombuffer(blob[32:], dtype="<f8")
    if masses.size != 2 ** levels:
        raise ValueError("payload length does not match the header depth")
    return levels, oversample, digest, masses
