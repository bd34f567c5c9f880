"""Sampling the additive noise field on simulation grids.

A grid fixes a base interval, a dyadic depth n (the truncation height is
|interval| * 2^-n) and an oversampling factor m; the field sample holds the
noise integral over the local cone of every evaluation midpoint, plus the
noise of every dyadic cell's shared-ancestry region.

Exact samplers cover the model classes:

* Gaussian, dense: the joint law of all point and cell values is a
  Gaussian vector whose covariance is sigma2 times the overlap kernel of
  the regions, built densely and Cholesky-factored once per grid: its
  lower triangle is stored as row panels of CHOLESKY_BLOCK rows, each
  cut after its diagonal block, filled once per attempt and factored in
  place through one inverse per diagonal block, and a failed attempt
  refills it before the next jitter (_dense_law builds every such law).
  The factor's bits, and those of the one-column draws and refinements
  made with it, do not depend on the BLAS thread count; a draw of many
  columns at once may.  It serves single builds that
  carry cells, grids below CIRCULANT_MIN_POINTS points, refinement
  (refine_field, every kind's refinement) and juxtaposition: n_intervals
  adjacent copies of a grid driven by one noise, whose Gram holds the
  copies' points and their cells of the hull, dim = n_intervals *
  (n_points + 1) objects in about dim (dim + CHOLESKY_BLOCK) / 2 doubles.
* Gaussian, circulant embedding: on a points-only grid (cell_levels = 0)
  the covariance depends only on the lag, so it is a Toeplitz matrix and
  its circulant embedding of size M = 2N samples it exactly with one
  inverse real FFT of a replica's M normals, read as a weighted Hermitian
  spectrum, a block of replicas at a time.  It serves points-only grids
  of at least CIRCULANT_MIN_POINTS points, also as a hybrid's Gaussian
  part, and falls back to the dense sampler, with a RuntimeWarning, if
  an embedding eigenvalue is negative.
* Jumps (compound Poisson): the jump part is a Poisson point process on the
  union of all local cones, its jumps drawn by the jump measure itself
  (uniforms, from_uniforms); each sampled point adds its jump to exactly
  the evaluation points whose cone contains it, which is a contiguous
  index range, so evaluation is a difference-array sweep.  A batch's
  point sets are drawn, mapped and summed together (poisson_points,
  shadow_sums), a sub-batch at a time in work arrays that every
  sub-batch reuses, with the bits of one replica at a time: each
  generator fills its uniforms in place, and every point goes through
  the heaviest strip's map and only the other strips' few points
  through theirs.
* Hybrid: a model with a Gaussian part and jumps adds the two samplers.

Every kind draws n_intervals adjacent copies of a grid under one noise
as the star decomposition splits a cascade (cascade.decompose_star): as
the points of their hull H less each copy's cell of it.  For t in copy
I, cone_of(H) lies in cone_of(I), which lies in cone(t), so t's value
relative to I is its value relative to H less the noise of
cones.cell_cone(H, I), whose area is log n_intervals.

truncated_model drops the jumps smaller than a cutoff (the measure's own
truncated) and re-normalizes the drift, so the result is again an exactly
mean-one model (optionally the dropped jumps are replaced by a
variance-matched Gaussian), sampled and theorized like any other; the run
configuration applies it once.

make_sampler is the one place that turns a model, whose parts alone pick
the kind, and a number of juxtaposed intervals into a sampler; single
builds, batches, juxtaposition and the CLI all go through it.  Every
sampler draws the point values of many replicas, one generator each, a
block of replicas at a time with blocks(rngs, out=None, work=None)
(_block_slots), and every one-interval sampler draws one field with
sample(rng), consuming the generator in the same order: the Gaussian
normals of the points first, then the Poisson points, and last the
Gaussian normals of any carried cells.  So a (seed, replica, stream
tag) names one realization whichever path draws it.  Batches carry no
cells (cascade.BatchSimulator).  A single build's point values agree
with a points-only build's to rounding below CIRCULANT_MIN_POINTS
points; from there a cell-carrying one takes them from the dense factor,
a points-only one from the circulant embedding, both exact in law.  Every
sampler names itself (name) and reports its numerical health (health):
the Cholesky jitter applied or the smallest embedding eigenvalue
relative to the largest.

make_sampler keeps the sampler it built last and returns it again to the
next call with the same (grid, model, n_intervals), so repeated single
builds on one grid, as in the star checks, share one Gram and Cholesky
factorization; a call with other arguments replaces it.  Grids and
models are frozen and hashable, and no sampler changes after its
constructor: the arrays it shares (the Cholesky panels and mean, the
embedding's spectral weights, the measure's jump tables) are read-only,
so a caller that writes into one gets a ValueError instead of altering
every later draw.  Work arrays never live on a sampler: blocks draws
into the work dict of its caller, or into its own.  BatchSimulator
keeps one per thread and reduces each block into one block of leaf
masses there as it comes, so no batch holds a chunk of them.  A
fallback or jitter warning is raised when a sampler is built, not on
later calls that reuse it; the sampler's health still records it.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import cones
from .levy import ZeroJumps, build_model, jump_drift


@dataclass(frozen=True)
class GridSpec:
    """Simulation grid: base interval, dyadic depth, oversampling.

    cell_levels limits how many cell-weight levels a single build carries
    for its star decomposition and refinement (0: none, None: every level
    1..levels); each carried level enlarges a dense Gaussian Gram.  Batches
    draw the points alone whatever cell_levels says (BatchSimulator).
    """

    interval: Tuple[float, float] = (0.0, 1.0)
    levels: int = 8
    oversample: int = 4
    cell_levels: Optional[int] = None

    def __post_init__(self):
        # a tuple of floats whatever sequence was passed, so that the grid
        # hashes and equal grids share one cached sampler
        object.__setattr__(self, "interval",
                           tuple(float(v) for v in self.interval))
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("interval must have positive length")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if self.cell_levels is not None and not (
                0 <= self.cell_levels <= self.levels):
            raise ValueError("cell_levels must lie in [0, levels]")

    @property
    def length(self):
        return self.interval[1] - self.interval[0]

    @property
    def eps(self):
        return self.length * 2.0 ** (-self.levels)

    @property
    def n_cells(self):
        return 2 ** self.levels

    @property
    def n_points(self):
        return self.n_cells * self.oversample

    @property
    def spacing(self):
        return self.length / self.n_points

    def leaf_count(self, fraction):
        """Leaf cells in [lo, lo + fraction * length]: fraction * n_cells
        must be a whole number in [0, n_cells]."""
        k = fraction * self.n_cells
        if not (-1e-9 <= k <= self.n_cells + 1e-9
                and abs(k - round(k)) <= 1e-9):
            raise ValueError(f"fraction {fraction!r} is not a whole 0 to "
                             f"{self.n_cells} leaf cells")
        return round(k)

    @property
    def carried_levels(self):
        top = self.levels if self.cell_levels is None else self.cell_levels
        return tuple(range(1, top + 1))

    def eval_points(self):
        lo = self.interval[0]
        k = np.arange(self.n_points)
        return lo + (k + 0.5) * self.spacing

    def cell_edges(self, level):
        lo, hi = self.interval
        return np.linspace(lo, hi, 2 ** level + 1)

    def cell_bounds(self, level):
        e = self.cell_edges(level)
        return np.column_stack([e[:-1], e[1:]])

    def rescaled(self, interval, level_drop=0):
        return replace(self, interval=tuple(interval),
                       levels=self.levels - level_drop,
                       cell_levels=(None if self.cell_levels is None else
                                    max(0, self.cell_levels - level_drop)))

    def split(self, values, levels=None):
        """(point_log, cell_log): slices of values stacked as _gram_objects
        stacks the points, then the cells of levels (default: carried)."""
        cell_log = {}
        off = self.n_points
        for lev in self.carried_levels if levels is None else levels:
            cell_log[lev] = values[off:off + 2 ** lev]
            off += 2 ** lev
        return values[:self.n_points], cell_log


@dataclass
class FieldSample:
    """One draw of the noise field on a grid.

    point_log[k] is the noise of the local cone of evaluation point k;
    cell_log[level][i] the noise of cell i's shared-ancestry region.  Atomic
    samples keep the raw points (x, y, jump) so pathwise identities can be
    re-checked from scratch.
    """

    grid: GridSpec
    point_log: np.ndarray
    cell_log: Dict[int, np.ndarray]
    points_x: Optional[np.ndarray] = None
    points_y: Optional[np.ndarray] = None
    points_jump: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Gaussian sampler
# ---------------------------------------------------------------------------


def _gram_objects(grid, levels=None):
    """Footprints (lo, hi) and cutoffs of the objects on one grid.

    Objects are the evaluation points (degenerate footprint, truncated at
    eps) followed by the cells of the given levels, by default the carried
    ones, level by level (full footprint, no truncation: their regions
    reach down to their own length).
    """
    t = grid.eval_points()
    foot_lo = [t]
    foot_hi = [t]
    cut = [np.full(t.size, grid.eps)]
    for lev in grid.carried_levels if levels is None else levels:
        b = grid.cell_bounds(lev)
        foot_lo.append(b[:, 0])
        foot_hi.append(b[:, 1])
        cut.append(np.zeros(len(b)))
    return (np.concatenate(foot_lo), np.concatenate(foot_hi),
            np.concatenate(cut))


# Values per block of every blocked loop but the circulant one, each
# reading it here at call time:
# * fill_gram rows, a quarter of it: the kernel's temporaries (hull,
#   cutoffs, masks, gathered branch values) are a few such blocks, not a
#   few copies of the Gram.  A dense build of 1022 objects traced a peak
#   of 4.98 MB with quarter blocks against 6.28 MB with whole ones;
# * evaluation slots plus expected points of a Poisson sub-batch: 12
#   replicas of the atom config's grid (4096 points), or 3 of its 4
#   juxtaposed copies.  Drawing and reducing 500 one-copy and 100
#   four-copy replicas there in fresh processes took 0.170, 0.149, 0.138,
#   0.153 and 0.152 s at 2^14 to 2^18 (medians of 8; one BLAS thread,
#   2-vCPU x86 host): smaller sub-batches pay per call, larger ones fault
#   in larger work arrays and leave the caches;
# * point values of a batch reduction (cascade.masses_from_point_log): the
#   exp of one block is its one temporary;
# * grid values of an exact_joint_moment quadrature
#   (moments._ordered_quadrature), chunked along the outer axis, or one
#   outer node's grid where that is larger: 56^3 at degree 4.  The whole
#   grid held a traced peak of 129 MiB at degree 3 and 186 MiB at degree 4,
#   the chunks 2.5 and 8.1 MiB.
BLOCK_VALUES = 2 ** 16


def footprint_areas(L, rows, cols=None, out=None):
    """Overlap areas of footprint triples (lo, hi, cut) on one base interval.

    With cols, the matrix whose (i, j) entry is cones.overlap_kernel of the
    hull of footprints rows[i] and cols[j] above the larger cutoff, written
    into out when given: sigma2 times it is the covariance of the two noise
    values.  Without cols, the area of each row footprint's own region,
    which fixes its mean.  Every entry is computed elementwise, so its bits
    do not depend on the block of rows and columns it is computed in:
    fill_gram fills a dense Gram's row panels a block of rows at a time,
    once per factorization attempt, and refills them after a failed
    attempt (_chol_with_jitter).
    """
    lo, hi, cut = rows
    if cols is None:
        return cones.overlap_kernel(L, hi - lo, cut)
    c_lo, c_hi, c_cut = cols
    hull = (np.maximum(hi[:, None], c_hi[None, :]) -
            np.minimum(lo[:, None], c_lo[None, :]))
    cut = np.maximum(cut[:, None], c_cut[None, :])
    return cones.overlap_kernel(L, hull, cut, out=out)


def _spans(panels):
    """(a, e, panel) of each row panel of a lower factor: the panel holds
    rows a..e-1 and columns 0..e-1, so its last e - a columns are its
    diagonal block, zero above the diagonal (_chol_with_jitter)."""
    for p in panels:
        yield p.shape[1] - len(p), p.shape[1], p


def fill_gram(panels, sigma2, L, feet):
    """Write sigma2 times the overlap Gram of the footprint triple feet on
    base length L (footprint_areas) on and below the diagonal of zeroed
    row panels (_spans).

    A block of rows of a panel is filled at a time, its diagonal square
    through a small temporary.  Nothing above the diagonal is written,
    and the entries are scaled as they are filled, so the Gram holds its
    panels, about dim (dim + CHOLESKY_BLOCK) / 2 doubles, and a few blocks
    of temporaries at its peak.
    """
    n = feet[0].size
    step = max(1, BLOCK_VALUES // 4 // n)
    tri = np.tri(min(step, n), dtype=bool)
    for a0, e0, p in _spans(panels):
        for a in range(a0, e0, step):
            e = min(a + step, e0)
            rows = tuple(f[a:e] for f in feet)
            below = p[a - a0:e - a0, :a]
            footprint_areas(L, rows, tuple(f[:a] for f in feet), out=below)
            below *= sigma2
            square = footprint_areas(L, rows, rows)
            square *= sigma2
            np.copyto(p[a - a0:e - a0, a:e], square,
                      where=tri[:e - a, :e - a])


def _normal_columns(rngs, dim):
    """(dim, len(rngs)) standard normals, column j drawn from rngs[j]."""
    normals = np.empty((dim, len(rngs)))
    for j, r in enumerate(rngs):
        normals[:, j] = r.standard_normal(dim)
    return normals


def _scratch(work, key, size, shape=(), dtype=float):
    """The first size rows of work[key], a (rows, *shape) array that one
    caller reuses from call to call: allocated when first asked for, and
    only when it holds fewer than size rows again, then with an eighth
    more than asked, since what outgrows it once varies, as the points of
    a batch do."""
    buf = work.get(key)
    if buf is None or len(buf) < size:
        grow = 0 if buf is None else size // 8
        buf = work[key] = np.empty((size + grow,) + shape, dtype)
    return buf[:size]


def _block_slots(count, rows, shape, out=None, work=None):
    """(start, destination) of each block of a batch of count replicas,
    rows at a time: out[start:start + b] of a (count, *shape) out, or,
    without out, the first b rows of one (rows, *shape) buffer reused
    from block to block (work's, see _scratch, when given).

    A sampler's blocks(rngs, out=None, work=None) yields (start, values)
    this way, values holding the C-contiguous point values of
    rngs[start:start + b], each of the sampler's shape: (n_points,), or
    (n_intervals, n_points) for juxtaposed copies; a reused buffer is
    overwritten by the next block.  work is a dict of work arrays that
    one caller passes to every call, so that they are allocated once
    (_scratch), or None for a call's own.  BatchSimulator.point_log_chunk
    has the blocks fill one output, and BatchSimulator.total_masses
    reduces each as it comes into one block of leaf masses for its
    consumer, so neither a chunk's point values nor its leaf masses need
    ever exist at once; both keep one work dict per thread.

    A sampler's pooled attribute says whether BatchSimulator may split a
    batch into runs that worker threads draw at once: True only where
    each row keeps its bits in a run of any width and the draws release
    the GIL for most of their time (the circulant embedding).
    """
    rows = max(1, min(rows, count))
    if out is None:
        buf = (np.empty((rows,) + shape) if work is None else
               _scratch(work, "block", rows, shape))
    for s in range(0, count, rows):
        b = min(rows, count - s)
        yield s, (buf[:b] if out is None else out[s:s + b])


# Rows per panel of a dense lower factor (the last panel also takes the
# rows left over), and columns per block of its in-place Cholesky
# factorization.  A build in a fresh process (medians of 4 to 6
# alternating runs, one BLAS thread, 2-vCPU AVX-512 x86 host, OpenBLAS
# 0.3), by block width and by how the rows below a diagonal block are
# solved:
#
#     objects                 1022     2046     4094     4 x 1024 (4100)
#     64, one inverse         0.045 s  0.188 s  1.127 s  1.152 s
#     128, one inverse        0.050 s  0.184 s  0.916 s  0.949 s
#     128, an LU per panel    0.065 s  0.270 s  1.135 s  1.322 s
#
# 64 gives the factor the same bits at one and two BLAS threads: a
# 64-column block's Cholesky factor and inverse keep their bytes at two
# OpenBLAS threads, where a 128-column block's factor did not.  Above
# 2046 objects that costs about a fifth more build time.
CHOLESKY_BLOCK = 64


def _factor_lower(panels):
    """Left-looking blocked Cholesky factorization of the lower row panels
    (_spans) of a matrix, in place (Golub & Van Loan, Matrix Computations,
    4.2), CHOLESKY_BLOCK columns at a time: each block column is updated
    with the columns already factored by one matrix product per panel,
    its diagonal block factored by LAPACK and inverted once, and the rows
    below solved against that factor as one product with the inverse's
    transpose per panel.  A well-conditioned factor's inverse solves as
    accurately as a triangular solve (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 14), and these are: condition numbers
    of at most 31 at 1022 objects and 54 for 4 juxtaposed copies of 1024
    points.  L L^T reproduces gauss-single's Gram to 1.2e-15 of its
    largest entry, as LU solves of each panel did to 1.5e-15.

    Nothing above the diagonal is read or written.  False, with the
    panels partly overwritten, if a diagonal block is not positive
    definite.
    """
    b = CHOLESKY_BLOCK
    tri = np.tri(min(b, panels[-1].shape[1]), dtype=bool)
    for i, (a, n, p) in enumerate(_spans(panels)):
        for k in range(a, n, b):
            e = min(k + b, n)
            rows = p[k - a:]
            d, lower = rows[:e - k, k:e], tri[:e - k, :e - k]
            # the block column's rows below its diagonal block: the rest
            # of this panel, then every later panel
            below = [q[:, k:e] for q in (rows[e - k:], *panels[i + 1:])]
            if k:
                top = rows[:e - k, :k].T
                upd = rows[:, :k] @ top
                # np.linalg.cholesky reads the lower triangle alone
                np.subtract(d, upd[:e - k], out=d, where=lower)
                below[0] -= upd[e - k:]
                del upd
                for q, col in zip(panels[i + 1:], below[1:]):
                    col -= q[:, :k] @ top
            try:
                lkk = np.linalg.cholesky(d)
            except np.linalg.LinAlgError:
                return False
            np.copyto(d, lkk, where=lower)
            inv_t = np.linalg.inv(lkk).T
            for col in below:
                if len(col):
                    col[...] = col @ inv_t
    return True


def _chol_with_jitter(fill, dim):
    """(Cholesky factor, relative jitter) of the dim x dim covariance
    matrix that fill(panels) writes on and below the diagonal of zeroed
    row panels (fill_gram, _spans), factored in place: the factor
    returned is that tuple of panels.  Each panel holds CHOLESKY_BLOCK
    rows, the last one also the dim % CHOLESKY_BLOCK rows left over, up
    to the end of its diagonal block: about dim (dim + CHOLESKY_BLOCK) / 2
    doubles, half the square matrix, and the build's peak but for a few
    blocks of temporaries.  The factor's bits are those of the square
    blocked factorization with one inverse per diagonal block: each
    product is one the square one made, or the same rows of it.

    The jitter, a multiple of the mean diagonal added to the diagonal, is
    0 when the plain factorization succeeds; any other value is warned
    about, since it perturbs the law that is sampled.  A failed attempt
    leaves the panels partly overwritten, so the next one refills them
    and adds the next jitter to the diagonal.
    """
    b = CHOLESKY_BLOCK
    # the last panel also takes the dim % b rows left over.  OpenBLAS 0.3
    # on a 2-vCPU AVX-512 x86 host, one thread, gave a product of 9 rows
    # or fewer other bits than the same rows of a taller product, so a
    # panel that short would move the last bits of 4 juxtaposed copies'
    # factor (dim % b = 4) off the square factorization's
    edges = (*range(0, max(dim - b, 0) + 1, b), dim)
    panels = tuple(np.zeros((e - a, e)) for a, e in zip(edges, edges[1:]))
    fill(panels)
    diag = [p.reshape(-1)[a::e + 1] for a, e, p in _spans(panels)]
    scale = float(np.mean(np.concatenate(diag))) or 1.0
    for jitter in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        if jitter:
            fill(panels)
            for d in diag:
                d += jitter * scale
        if _factor_lower(panels):
            break
    else:
        fill(panels)
        cov = np.zeros((dim, dim))
        for a, e, p in _spans(panels):
            cov[a:e, :e] = p
        w = np.linalg.eigvalsh(cov)
        raise np.linalg.LinAlgError(
            f"covariance not positive definite (min eigenvalue {w[0]:.3e} "
            f"of scale {scale:.3e}) even with jitter 1e-8")
    if jitter:
        warnings.warn(f"covariance needed relative jitter {jitter:g} "
                      f"for its Cholesky factor", RuntimeWarning,
                      stacklevel=2)
    return panels, jitter


def _dense_law(sigma2, L, feet):
    """Read-only (mean, Cholesky panels, jitter) of the values of the
    footprints feet on base length L (fill_gram, _chol_with_jitter)."""
    mean = -0.5 * sigma2 * footprint_areas(L, feet)
    panels, jitter = _chol_with_jitter(
        lambda out: fill_gram(out, sigma2, L, feet), mean.size)
    for a in (mean, *panels):
        a.setflags(write=False)
    return mean, panels, jitter


def _lower_product(panels, x, lo, hi):
    """Rows lo..hi-1 of the lower factor whose row panels are panels
    (_spans) times x[:hi], one matrix product per panel: a row's product
    stops at its panel's last column, so of the zeros above the diagonal
    it reads only its diagonal block's."""
    out = np.empty((hi - lo,) + x.shape[1:])
    for a, e, p in _spans(panels):
        r0, r1 = max(a, lo), min(e, hi)
        if r0 < r1:
            np.matmul(p[r0 - a:r1 - a, :r1], x[:r1], out=out[r0 - lo:r1 - lo])
    return out


def _set_copies(sampler, grid, n_intervals):
    """Set the grid, shape and name of a sampler of n_intervals adjacent
    copies of grid; return their edges: lo + i L, or for one copy the
    interval itself (lo + L need not be hi)."""
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    sampler.grid = grid
    if n_intervals == 1:
        sampler.shape = (grid.n_points,)
        return list(grid.interval)
    sampler.shape = (n_intervals, grid.n_points)
    sampler.name = "juxtaposed-" + sampler.name
    lo, L = grid.interval[0], grid.length
    return [lo + i * L for i in range(n_intervals + 1)]


class GaussianFieldSampler:
    """Joint exact sampler for the Gaussian part of the noise on a grid, or
    for the point values of n_intervals adjacent copies of it.

    The Gram holds one copy's points and carried cells, or the copies'
    points (cut at eps) and footprints (cut 0) on their hull.  Its lower
    triangle lives in row panels of CHOLESKY_BLOCK rows, each cut after
    its diagonal block (panels), filled a block of rows at a time, scaled
    as it is filled, and Cholesky-factored in place (_dense_law), so the
    factor and the build's peak are about dim (dim + CHOLESKY_BLOCK) / 2
    doubles, half a square Gram.  A
    replica's point values are the first prod(shape) values, less their
    copy's value for juxtaposed copies.
    """

    name = "dense"
    pooled = False

    def __init__(self, grid, sigma2, n_intervals=1):
        if sigma2 <= 0:
            raise ValueError("Gaussian sampler needs sigma2 > 0")
        edges = _set_copies(self, grid, n_intervals)
        self.sigma2 = float(sigma2)
        L = edges[-1] - edges[0]  # the hull's length
        if n_intervals == 1:
            feet = _gram_objects(grid)
        else:  # the copies' points, spaced on their hull, then the copies
            t = replace(grid, interval=(edges[0], edges[-1]),
                        oversample=n_intervals * grid.oversample).eval_points()
            feet = [np.concatenate(f) for f in zip(
                (t, t, np.full(t.size, grid.eps)),
                (edges[:-1], edges[1:], np.zeros(n_intervals)))]
        self.dim = feet[0].size
        self.mean, self.panels, jitter = _dense_law(sigma2, L, feet)
        self.health = {"cholesky_jitter": jitter}

    def draw(self, rng, count=1):
        """(dim, count) matrix of field values, one replica per column."""
        return self.draw_columns(rng.standard_normal((self.dim, count)))

    def draw_columns(self, normals):
        """Map externally drawn standard normals (k, count) to the values of
        the first k objects (k = dim for all of them).

        The factor is lower triangular, so the leading values need only the
        leading normals: with k = n_points, the point values alone.  Each
        row panel gives its rows in one product (_lower_product).
        """
        k = normals.shape[0]
        vals = _lower_product(self.panels, normals, 0, k)
        vals += self.mean[:k, None]
        return vals

    def blocks(self, rngs, out=None, work=None):
        """One block, the whole batch: the matrix product's bits depend on
        its width (see _block_slots for the protocol); a block per call
        leaves nothing in work to reuse.

        On one interval only the point normals are drawn, the first
        n_points of the ones sample() draws, so the carried cells cost
        nothing here.  Juxtaposed copies draw every normal and subtract
        each copy's cell value from its points' values.
        """
        n = math.prod(self.shape)
        vals = self.draw_columns(_normal_columns(
            rngs, n if len(self.shape) == 1 else self.dim))
        if out is None:
            out = np.empty((len(rngs),) + self.shape)
        out[...] = vals[:n].T.reshape(out.shape)
        if len(vals) > n:
            out -= vals[n:].T[:, :, None]
        yield 0, out

    def sample(self, rng):
        """One copy's FieldSample."""
        if len(self.shape) > 1:
            raise ValueError("juxtaposed copies draw only with blocks()")
        vals = self.draw_columns(rng.standard_normal((self.dim, 1)))[:, 0]
        point_log, cell_log = self.grid.split(vals)
        return FieldSample(self.grid, point_log, cell_log)


# Points-only Gaussian grids with at least this many points use the
# circulant embedding.  Per replica, one BLAS thread on a 2-vCPU x86
# host, dense against embedding: 28 against 37 us at 512 points, 78
# against 60 at 1024 and 226 against 130 at 2048.  The threshold stays
# above that crossover, so the dense draws below it keep their bits.
CIRCULANT_MIN_POINTS = 2048


def _embedding_spectrum(row):
    """Eigenvalues of the circulant embedding of the Toeplitz row c_0..c_N.

    The embedding's first row is [c_0..c_N, c_{N-1}..c_1]; it is
    symmetric, so its rfft is real.
    """
    return np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real


# Normals per block of a circulant batch, 4 rows at 4096 points: a batch
# written into its output holds about two blocks more per worker, each in
# the worker's own heap.  At 4096 points, chunks of 500, on a 2-vCPU x86
# host, blocks of 2^14 to 2^17 normals tied on one thread (3292-3495
# replicas/s, 79.5 MB peak RSS).  On two workers 2^15 and 2^16 tied at
# 5681 replicas/s (medians of 12 paired runs), 2^14 was slower (5362
# against 5796, 5 runs), and peak RSS read 81.2, 81.6, 82.6 and 84.7 MB
# at 2^14, 2^15, 2^16 and 2^17.
CIRCULANT_BLOCK_VALUES = 2 ** 15


class CirculantGaussianSampler:
    """Exact sampler of the point values on a points-only grid by circulant
    embedding (Wood & Chan, JCGS 1994; Dietrich & Newsam, SIAM J. Sci.
    Comput. 1997).

    The point covariance sigma2 * overlap_kernel(L, |t - s|, eps) is the
    Toeplitz matrix of c_j = sigma2 * overlap_kernel(L, j * spacing, eps),
    and c_N = 0.  Its circulant embedding C of size M = 2N, a power of two
    whenever oversample is, has eigenvalues lam = rfft of its first row,
    which must be >= 0 (else the constructor raises LinAlgError).  A
    replica's M normals are the parts of a Hermitian spectrum, the DC and
    Nyquist bins real, scaled by sqrt(M lam) on those two bins and by
    sqrt(M lam / 2) on the others; its irfft has covariance C, so its
    first N entries have the point covariance exactly.  numpy's FFT
    transforms each row on its own: a batch, drawn and transformed
    CIRCULANT_BLOCK_VALUES normals at a time, has the bits of single
    draws.
    """

    name = "circulant"
    pooled = True

    def __init__(self, grid, sigma2):
        if sigma2 <= 0:
            raise ValueError("Gaussian sampler needs sigma2 > 0")
        if grid.cell_levels != 0:
            raise ValueError("circulant embedding needs a points-only grid "
                             "(cell_levels = 0)")
        self.grid = grid
        self.shape = (grid.n_points,)
        self.sigma2 = float(sigma2)
        n = grid.n_points
        kernel = cones.overlap_kernel(grid.length,
                                      grid.spacing * np.arange(n + 1),
                                      grid.eps)
        lam = _embedding_spectrum(sigma2 * kernel)
        ratio = float(lam.min() / lam.max())
        if ratio < 0:
            raise np.linalg.LinAlgError(
                f"circulant embedding has a negative eigenvalue (min/max "
                f"{ratio:.3e})")
        self.size = m = 2 * n
        # (real, imaginary) weights of bins 0..N as the float view of the
        # spectrum: normals fill 1..M, and the DC bin's moves from 1 to 0
        self.weights = np.repeat(np.sqrt(0.5 * m * lam), 2)
        self.weights[[0, m]] = np.sqrt(m * lam[[0, -1]])
        self.weights[[1, m + 1]] = 0.0
        self.weights.setflags(write=False)
        self.mean = -0.5 * sigma2 * kernel[0]
        self.health = {"min_eigenvalue_ratio": ratio}

    def _spectral_values(self, spec, out=None):
        """(rows, M) irfft of the normals in spec[:, 1:M+1] (overwritten)."""
        spec[:, 0] = spec[:, 1]
        spec *= self.weights
        return np.fft.irfft(spec.view(np.complex128), n=self.size, out=out)

    def blocks(self, rngs, out=None, work=None):
        """Blocks of CIRCULANT_BLOCK_VALUES normals (see _block_slots),
        drawn and transformed in one spectrum and one transform buffer of
        this call, not work's: kept from call to call, the two took 2 MB
        more peak memory on one thread at 4096 points, chunks of 500, and
        left it unchanged on two workers (82.7-82.9 MB against 82.6-82.7
        MB at blocks of 2^16 normals)."""
        m, n = self.size, self.grid.n_points
        rows = max(1, CIRCULANT_BLOCK_VALUES // m)
        spec = np.zeros((min(rows, len(rngs)), m + 2))
        vals = np.empty((len(spec), m))
        for s, dest in _block_slots(len(rngs), rows, self.shape, out):
            b = len(dest)
            for i, r in enumerate(rngs[s:s + b]):
                r.standard_normal(out=spec[i, 1:m + 1])
            self._spectral_values(spec[:b], vals[:b])
            np.add(vals[:b, :n], self.mean, out=dest)
            yield s, dest

    def sample(self, rng):
        """One FieldSample: row 0 of a batch of one."""
        (_, vals), = self.blocks([rng])
        return FieldSample(self.grid, vals[0], {})


# ---------------------------------------------------------------------------
# atomic (compound Poisson) sampler
# ---------------------------------------------------------------------------


def _points_below(edge, lo, spacing, count, t=None, out=None):
    """How many of the count evaluation points t_k = lo + (k + 1/2)
    spacing lie below each edge: ceil((edge - lo) / spacing - 0.5) as
    int64, clipped to [0, count].  The shadow [x - y/2, x + y/2) of a
    noise point (x, y) holds the points k0 <= k < k1, k0 and k1 being
    the points below its two ends.  The float work is done in t and the
    counts written into out when given (shadow_sums reuses both)."""
    t = np.subtract(edge, lo, out=t)
    np.divide(t, spacing, out=t)
    np.subtract(t, 0.5, out=t)
    np.ceil(t, out=t)
    out = np.empty(t.shape, np.int64) if out is None else out
    np.copyto(out, t, casting="unsafe")
    np.maximum(out, 0, out=out)
    return np.minimum(out, count, out=out)


def range_sums(i0, i1, values, diff):
    """(rows, count) totals of values[m] over the index ranges [i0[m],
    i1[m]), an index being row * (count + 1) + k.

    A difference-array sweep: each range adds at its start and subtracts
    at its end, and a cumulative sum spreads the values over the indices,
    in place: the totals are a view of diff, the caller's (rows, count +
    1) buffer to reuse, overwritten.  A range ending at count ends in its
    last column, which no total reads.
    """
    diff.fill(0.0)
    flat = diff.reshape(-1)
    np.add.at(flat, i0, values)
    np.subtract.at(flat, i1, values)
    sums = diff[:, :-1]
    return np.cumsum(sums, axis=1, out=sums)


def shadow_sums(counts, x, y, jump, lo, spacing, n, work=None):
    """(len(counts), n) jump totals at the evaluation points lo + (k +
    1/2) spacing, k < n, of each replica; replica j owns the next
    counts[j] points.

    One range_sums sweep over a difference array of every replica, whose
    shadow index ranges (_points_below) are moved into their replica's
    row in place.  Its arrays are work's (see _scratch), or fresh
    without work.
    """
    work = {} if work is None else work
    start, end, t = (_scratch(work, key, x.size)
                     for key in ("start", "end", "t"))
    k0, k1 = (_scratch(work, key, x.size, dtype=np.int64)
              for key in ("k0", "k1"))
    np.multiply(0.5, y, out=t)
    np.subtract(x, t, out=start)
    np.add(x, t, out=end)
    _points_below(start, lo, spacing, n, t, k0)
    _points_below(end, lo, spacing, n, t, k1)
    row = np.repeat(np.arange(len(counts)) * (n + 1), counts)
    k0 += row
    k1 += row
    return range_sums(k0, k1, jump, _scratch(work, "diff", len(counts),
                                             (n + 1,)))


def covered_sums(counts, x, y, jump, lo, widths, cells):
    """For each level l, the (len(counts), cells[l]) jump totals over the
    cells lo + [i, i + 1) w, w = widths[l], of the noise points whose
    shadow covers the cell whole, its range ceil((x - y/2 - lo) / w) <= i
    < floor((x + y/2 - lo) / w) with 1e-12 cells to spare; replica j owns
    the next counts[j] points.  Only the few points about a cell high or
    higher can cover one, so only they are gathered.

    One range_sums sweep over a difference array with a row per level and
    replica, as wide as the most cells: every level's ranges are written
    in one pass, and each row is summed cumulatively on its own, so a
    level's totals have the bits of a sweep of that level alone.
    """
    widths = np.array(widths, float)[:, None]
    cells = np.array(cells, np.int64)
    rise = (1.0 - 4e-12) * widths
    tall = np.flatnonzero(y >= rise.min(initial=np.inf))
    x, y = x[tall], y[tall]
    i0 = np.ceil((x - lo - 0.5 * y) / widths - 1e-12).astype(np.int64)
    i1 = np.floor((x - lo + 0.5 * y) / widths + 1e-12).astype(np.int64)
    np.clip(i0, 0, cells[:, None], out=i0)
    np.clip(i1, 0, cells[:, None], out=i1)
    lev, k = np.nonzero((y >= rise) & (i0 < i1))
    stride = cells.max(initial=0) + 1
    row = np.searchsorted(np.cumsum(counts), tall[k], side="right")
    row += lev * len(counts)
    row *= stride
    sums = range_sums(i0[lev, k] + row, i1[lev, k] + row, jump[tall[k]],
                      np.empty((len(cells) * len(counts), stride)))
    return [sums[l * len(counts):(l + 1) * len(counts), :n]
            for l, n in enumerate(cells.tolist())]


def poisson_points(rngs, strips, nu, work=None):
    """Poisson point sets with jumps of the measure nu on the union of
    one strip or two (a fan and its flank), one set per generator:
    (counts, x, y, jump), the sets concatenated in order.

    Each generator draws its count, its points' strip uniforms (with two
    strips), three uniforms per point, then its jump uniforms
    (nu.uniform_rows rows), each filled in place into one batch array (of
    work, see _scratch, or fresh).  A uniform v <= mass[0] / total picks
    strip 0, and every point is mapped by the heavier strip, then the
    points of the other strip again by it; each point is mapped
    elementwise, with the bits of one set at a time.
    """
    work = {} if work is None else work
    mass = np.array([s.mass() for s in strips])
    total = float(mass.sum())
    counts = np.array([r.poisson(nu.total_mass() * total) for r in rngs])
    size = int(counts.sum())
    pick = _scratch(work, "pick", size) if len(strips) > 1 else None
    u = _scratch(work, "u", size, (3,))
    ju = [_scratch(work, ("jump", k), size) for k in range(nu.uniform_rows)]
    o = 0
    for r, n in zip(rngs, counts.tolist()):
        if pick is not None:
            r.random(out=pick[o:o + n])
        r.random(out=u[o:o + n])
        for row in ju:
            r.random(out=row[o:o + n])
        o += n
    heavy = int(np.argmax(mass))
    x, y = strips[heavy].sample(*u.T)
    if pick is not None:
        first = pick <= mass[0] / total
        sel = np.flatnonzero(first if heavy else ~first)
        x[sel], y[sel] = strips[1 - heavy].sample(*u[sel].T)
    return counts, x, y, nu.from_uniforms(ju)


def _batch_size(strips, nu, slots):
    """Replicas per sub-batch of BLOCK_VALUES slots and expected points."""
    points = nu.total_mass() * sum(s.mass() for s in strips)
    return max(1, int(BLOCK_VALUES // (slots + points)))


class PoissonFieldSampler:
    """Exact sampler for pure-jump models with finite jump-measure mass, on
    a grid or on n_intervals adjacent copies of it under one noise.

    One point set on the sampling domain of the copies' hull gives their
    points' values on the hull (shadow_sums), less each copy's: the drift
    times log n_intervals plus the jumps of the points whose shadow covers
    the copy (covered_sums).
    """

    name = "poisson"
    pooled = False
    health = {}

    def __init__(self, grid, model, n_intervals=1):
        if model.sigma2 != 0.0:
            raise ValueError("model has a Gaussian part; use the hybrid path")
        edges = _set_copies(self, grid, n_intervals)
        self.model = model
        self.nu, self.drift = model.nu, jump_drift(model.nu)
        hull = (edges[0], edges[-1])
        self.strips = cones.sampling_domain(hull, grid.eps)
        self._base = self.drift * cones.area_local_cone(hull, grid.eps)
        self._copy_base = self.drift * cones.area_cell(hull, edges[:2])
        self._spacing = (hull[1] - hull[0]) / math.prod(self.shape)
        self._cell_area = {
            lev: cones.area_cell((0.0, grid.length),
                                 (0.0, grid.length * 2.0 ** (-lev)))
            for lev in grid.carried_levels}
        self._batch = _batch_size(self.strips, self.nu,
                                  n_intervals * (grid.n_points + 1))

    def draw_points(self, rng):
        """Poisson point set on the sampling domain: (x, y, jump) arrays."""
        return poisson_points([rng], self.strips, self.nu)[1:]

    def evaluate(self, x, y, jump):
        """One copy's field values (point_log, cell_log) of one point set."""
        g, one, levels = self.grid, [x.size], self.grid.carried_levels
        lo = g.interval[0]
        point_log = self._base + shadow_sums(
            one, x, y, jump, lo, self._spacing, g.n_points)[0]
        cells = covered_sums(one, x, y, jump, lo,
                             [g.length / 2 ** lev for lev in levels],
                             [2 ** lev for lev in levels])
        return point_log, {lev: self.drift * self._cell_area[lev] + c[0]
                           for lev, c in zip(levels, cells)}

    def sample(self, rng):
        """One copy's FieldSample."""
        if len(self.shape) > 1:
            raise ValueError("juxtaposed copies draw only with blocks()")
        x, y, jump = self.draw_points(rng)
        point_log, cell_log = self.evaluate(x, y, jump)
        return FieldSample(self.grid, point_log, cell_log,
                           points_x=x, points_y=y, points_jump=jump)

    def blocks(self, rngs, out=None, work=None):
        """Sub-batches of BLOCK_VALUES slots (see _block_slots), each
        drawn and summed in the same work arrays (poisson_points,
        shadow_sums)."""
        work = {} if work is None else work
        lo, n = self.grid.interval[0], math.prod(self.shape)
        for s, dest in _block_slots(len(rngs), self._batch, self.shape, out,
                                    work):
            counts, x, y, jump = poisson_points(
                rngs[s:s + len(dest)], self.strips, self.nu, work)
            np.add(shadow_sums(counts, x, y, jump, lo, self._spacing, n,
                               work).reshape(dest.shape),
                   self._base, out=dest)
            if len(self.shape) > 1:
                [cells] = covered_sums(counts, x, y, jump, lo,
                                       [self.grid.length], [self.shape[0]])
                cells += self._copy_base
                dest -= cells[:, :, None]
            # the points die before the next block's draw
            del x, y, jump
            yield s, dest


# ---------------------------------------------------------------------------
# hybrid sampler and model truncation
# ---------------------------------------------------------------------------


def truncated_model(model, cutoff, substitute=False):
    """Drop jumps smaller than cutoff and re-normalize the drift.

    The result is an exactly mean-one model again; with substitute=True the
    removed jumps are replaced by a Gaussian with the same variance.
    """
    if not 0.0 < cutoff <= 1.0:
        raise ValueError("cutoff must lie in (0, 1]")
    big, var_small = model.nu.truncated(cutoff)
    sigma2 = model.sigma2 + (var_small if substitute else 0.0)
    if sigma2 == 0.0 and isinstance(big, ZeroJumps):
        raise ValueError("truncation removed all randomness; lower the "
                         "cutoff or enable substitution")
    return build_model(sigma2, big)


class HybridFieldSampler:
    """Gaussian part plus jumps of a model with both, each exactly
    normalized, on a grid or on n_intervals adjacent copies of it.

    The Gaussian part is a Gaussian model's sampler (gaussian_sampler);
    the dense factor is lower triangular, so sample() can draw the cell
    normals after the jumps.
    """

    name = "hybrid"
    pooled = False

    def __init__(self, grid, model, n_intervals=1):
        if field_kind(model) != "hybrid":
            raise ValueError("hybrid sampler needs a Gaussian part and jumps")
        self.model = model
        self.gauss = gaussian_sampler(grid, model.sigma2, n_intervals)
        self.poisson = PoissonFieldSampler(grid, build_model(0.0, model.nu),
                                           n_intervals)
        _set_copies(self, grid, n_intervals)
        self.health = self.gauss.health

    def sample(self, rng):
        # The point normals, then the jumps, then the cell normals: so the
        # draws behind the point values do not depend on the carried cells.
        g, gauss = self.grid, self.gauss
        if isinstance(gauss, CirculantGaussianSampler):  # no cells
            point_log, cell_log = gauss.sample(rng).point_log, {}
            jumps = self.poisson.sample(rng)
        else:
            z_points = rng.standard_normal((g.n_points, 1))
            jumps = self.poisson.sample(rng)
            z_cells = rng.standard_normal((gauss.dim - g.n_points, 1))
            point_log, cell_log = g.split(
                gauss.draw_columns(np.concatenate([z_points, z_cells]))[:, 0])
        return FieldSample(
            g, point_log + jumps.point_log,
            {lev: v + jumps.cell_log[lev] for lev, v in cell_log.items()},
            points_x=jumps.points_x, points_y=jumps.points_y,
            points_jump=jumps.points_jump)

    def blocks(self, rngs, out=None, work=None):
        """The Gaussian part's blocks (see _block_slots), each with the
        jumps of its replicas added.

        Each generator gives its point normals first, then its Poisson
        points, as in sample(); the cell normals that sample() draws last
        are not needed, so a batch replays the single draws.
        """
        work = {} if work is None else work  # the jumps' work arrays
        for s, vals in self.gauss.blocks(rngs, out):
            for t, jumps in self.poisson.blocks(rngs[s:s + len(vals)],
                                                work=work):
                vals[t:t + len(jumps)] += jumps
            yield s, vals


def gaussian_sampler(grid, sigma2, n_intervals=1):
    """The circulant embedding for one copy of a points-only grid of at
    least CIRCULANT_MIN_POINTS points, else the dense factor; the dense
    factor too, warned, if the embedding has a negative eigenvalue."""
    if (n_intervals == 1 and grid.cell_levels == 0
            and grid.n_points >= CIRCULANT_MIN_POINTS):
        try:
            return CirculantGaussianSampler(grid, sigma2)
        except np.linalg.LinAlgError as exc:
            warnings.warn(f"{exc}; using the dense sampler", RuntimeWarning,
                          stacklevel=4)
    return GaussianFieldSampler(grid, sigma2, n_intervals)


def field_kind(model):
    """Natural sampler for a model, and its realizations' kind: gaussian,
    poisson or hybrid."""
    if isinstance(model.nu, ZeroJumps):
        return "gaussian"
    if model.sigma2 == 0.0:
        return "poisson"
    return "hybrid"


def make_sampler(grid, model, n_intervals=1):
    """The exact field sampler for a model on a grid.

    The model alone picks the sampler (field_kind): Gaussian, Poisson or
    hybrid.  A model with small jumps truncated is built first by
    truncated_model.  Every sampler has blocks(rngs, out=None) for a batch
    of point values, one generator per replica, each of the sampler's
    shape, and the one-interval samplers sample(rng) for one FieldSample.

    gaussian_sampler gives a Gaussian model or a hybrid's Gaussian part the
    circulant embedding on a points-only grid of CIRCULANT_MIN_POINTS or
    more points, else, or on a negative eigenvalue (warned), the dense one.

    With n_intervals > 1 it draws that many adjacent copies of the grid
    under one noise, of shape (n_intervals, n_points), from the same
    classes: GaussianFieldSampler, whose Gram then holds the copies'
    points and cells of their hull whatever the cell_levels,
    PoissonFieldSampler or HybridFieldSampler.

    The most recent sampler is kept and returned again to the next call
    with equal arguments, however they are spelled: by keyword or by
    position, with the default left out or given.  A fallback or jitter
    warning fires on the build only.  Its shared arrays are read-only.
    make_sampler.cache_clear() drops it and make_sampler.cache_info()
    counts the hits and misses.
    """
    return _cached_sampler(grid, model, n_intervals)


# One slot: every repeated caller (build_realization in a loop, the star
# check) reuses a single key, and a dense factor can be large (152 MB of
# panels for 4096 points at oversample 4 carrying all 2046 cells), so no
# earlier sampler is kept alive once another is built.  make_sampler
# resolves the arguments to positions first, so that each key has one
# spelling.
@functools.lru_cache(maxsize=1)
def _cached_sampler(grid, model, n_intervals):
    kind = field_kind(model)
    if kind == "gaussian":
        return gaussian_sampler(grid, model.sigma2, n_intervals)
    if kind == "poisson":
        return PoissonFieldSampler(grid, model, n_intervals)
    return HybridFieldSampler(grid, model, n_intervals)


make_sampler.cache_clear = _cached_sampler.cache_clear
make_sampler.cache_info = _cached_sampler.cache_info


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def refine_field(model, sample, fine, rng):
    """The FieldSample of model on fine, a finer grid of sample's interval,
    that keeps every value of sample: atomic fields keep their points and
    add a Poisson draw on the band between the two truncation heights,
    Gaussian ones draw the new values from their law given the old."""
    kind = field_kind(model)
    if kind == "gaussian":
        return _refine_gaussian(model, sample, fine, rng)
    if kind != "poisson":
        raise ValueError(f"refine not implemented for kind {kind!r}")
    if sample.points_x is None:
        raise ValueError("the field sample carries no Poisson points")
    g = sample.grid
    strip = cones.refinement_strip(g.interval, g.eps, fine.eps)
    sampler = PoissonFieldSampler(fine, model)
    x, y, jump = (np.concatenate(pair) for pair in zip(
        (sample.points_x, sample.points_y, sample.points_jump),
        poisson_points([rng], [strip], sampler.nu)[1:]))
    point_log, cell_log = sampler.evaluate(x, y, jump)
    return FieldSample(fine, point_log, cell_log,
                       points_x=x, points_y=y, points_jump=jump)


def _refine_gaussian(model, old, fine, rng):
    # One Gram of the old objects (points cut at the old eps, carried
    # cells) and the new ones (fine points cut at the new eps, new cell
    # levels): footprint_areas cuts each pair at the larger cutoff, so it
    # holds the noise above the old height and the band below it.  With
    # its factor [[A, 0], [B, C]], the old values fix z = A^-1 (x - mean),
    # solved forward a panel's diagonal block at a time, and the new
    # values are mean + [B C] times z and fresh normals.
    g = old.grid
    new_levels = [lev for lev in fine.carried_levels
                  if lev not in g.carried_levels]
    feet = [np.concatenate(pair) for pair in
            zip(_gram_objects(g), _gram_objects(fine, new_levels))]
    mean, panels, _ = _dense_law(model.sigma2, g.length, feet)
    x_old = np.concatenate([old.point_log] +
                           [old.cell_log[lev] for lev in g.carried_levels])
    p = x_old.size
    z = x_old - mean[:p]
    for a, e, panel in _spans(panels):
        if a >= p:
            break
        r = min(e, p)
        z[a:r] -= panel[:r - a, :a] @ z[:a]
        z[a:r] = np.linalg.solve(panel[:r - a, a:r], z[a:r])
    vals = mean[p:] + _lower_product(
        panels, np.concatenate([z, rng.standard_normal(mean.size - p)]),
        p, mean.size)
    # the fine grid carries every old level, whose cells keep their values
    point_log, cells = fine.split(vals, new_levels)
    cell_log = {lev: old.cell_log[lev].copy() for lev in g.carried_levels}
    return FieldSample(fine, point_log, {**cell_log, **cells})
