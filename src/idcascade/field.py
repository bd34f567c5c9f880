"""Sampling the additive noise field on simulation grids.

A grid fixes a base interval, a dyadic depth n (the truncation height is
|interval| * 2^-n) and an oversampling factor m; the field sample holds the
noise integral over the local cone of every evaluation midpoint, plus the
noise of every dyadic cell's shared-ancestry region.

Exact samplers cover the model classes:

* Gaussian, dense: the joint law of all point and cell values is a
  Gaussian vector whose covariance is sigma2 times the overlap kernel of
  the regions, built densely and Cholesky-factored once per grid.  It
  serves grids that carry cells, grids below CIRCULANT_MIN_POINTS points
  and refinement.  Juxtaposition, n_intervals adjacent copies of a grid
  driven by one noise, factors the Gram of the copies' points alone, with
  the cross kernel of two copies' cones off the diagonal blocks:
  (n_intervals * n_points)^2 doubles.
* Gaussian, circulant embedding: on a points-only grid (cell_levels = 0)
  the covariance depends only on the lag, so it is a Toeplitz matrix and
  its circulant embedding of size M = 2N samples it exactly with one
  inverse real FFT of a replica's M normals, read as a weighted Hermitian
  spectrum, a block of replicas at a time.  It serves points-only grids
  of at least CIRCULANT_MIN_POINTS points, also as a hybrid's Gaussian
  part, and falls back to the dense sampler, with a RuntimeWarning, if
  an embedding eigenvalue is negative.
* Atomic (compound Poisson): the jump part is a Poisson point process on the
  union of all local cones; each sampled point adds its jump to exactly the
  evaluation points whose cone contains it, which is a contiguous index
  range, so evaluation is a difference-array sweep.  Juxtaposed copies
  share one point set, drawn on the sampling domain of their hull.  A
  batch's point sets are drawn, mapped and summed together
  (poisson_points, shadow_sums), with the bits of one replica at a time.
* Hybrid: a model with a Gaussian part and jumps adds the two samplers.

truncated_model drops the jumps smaller than a cutoff and re-normalizes
the drift, so the result is again an exactly mean-one model (optionally
the dropped jumps are replaced by a variance-matched Gaussian), sampled
and theorized like any other; the run configuration applies it once.

make_sampler is the one place that turns a model, whose parts alone pick
the kind, and a number of juxtaposed intervals into a sampler; single
builds, batches, juxtaposition and the CLI all go through it.  Every
sampler draws the point values of many replicas with point_logs(rngs),
one generator per replica, a block of replicas at a time (blocks(rngs),
which a caller can also reduce block by block without the whole
batch's values), and every one-interval sampler draws one
field with sample(rng), consuming the generator in the same order: the
Gaussian normals of the points first, then the Poisson points, and last
the Gaussian normals of any carried cells.  So a (seed, replica, stream
tag) names one realization whichever path draws it.  Its point values do
not depend on the grid's cell_levels below CIRCULANT_MIN_POINTS points;
from there a points-only grid uses the circulant embedding, for a
Gaussian model and for the hybrid's Gaussian part, and a cell-carrying
grid the dense factor, both exact in law but with different bits.  Every
sampler names itself (name) and reports its numerical health (health):
the Cholesky jitter applied or the smallest embedding eigenvalue
relative to the largest.

make_sampler keeps the sampler it built last and returns it again to the
next call with the same (grid, model, n_intervals), so repeated single
builds on one grid, as in the star checks, share one Gram and Cholesky
factorization; a call with other arguments replaces it.  Grids and
models are frozen and hashable, and no sampler changes after its
constructor: the arrays it shares (the Cholesky factor and mean, the
embedding's spectral weights, the jump tables) are read-only, so a
caller that writes into one gets a ValueError instead of altering every
later draw.  A fallback or jitter warning is raised when a sampler is
built, not on later calls that reuse it; the sampler's health still
records it.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import cones
from .levy import (AtomicJumps, TabulatedJumps, ZeroJumps, build_model,
                   jump_drift)


@dataclass(frozen=True)
class GridSpec:
    """Simulation grid: base interval, dyadic depth, oversampling.

    cell_levels limits how many cell-weight levels are carried (0 disables
    cell values entirely, None carries every level 1..levels).  Carrying all
    levels is the default but inflates the Gaussian Gram matrix; the large
    batch experiments only need point values and set cell_levels = 0.
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


@dataclass
class FieldSample:
    """One draw of the noise field on a grid.

    point_log[k] is the noise of the local cone of evaluation point k;
    cell_log[level][i] the noise of cell i's shared-ancestry region.  Atomic
    samples keep the raw points (x, y, jump) so pathwise identities can be
    re-checked from scratch.
    """

    grid: GridSpec
    kind: str
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


# Entries per block of rows of a footprint_areas matrix: the kernel's
# temporaries (hull, cutoffs, masks, gathered branch values) are a few
# blocks, not a few copies of the whole Gram.
FOOTPRINT_BLOCK_VALUES = 2 ** 16


def _row_slices(out):
    """(rows, out[rows]) for successive slices of rows of a matrix,
    FOOTPRINT_BLOCK_VALUES entries at a time."""
    step = max(1, FOOTPRINT_BLOCK_VALUES // out.shape[1])
    for a in range(0, len(out), step):
        yield slice(a, a + step), out[a:a + step]


def footprint_areas(L, rows, cols=None, out=None):
    """Overlap areas of footprint triples (lo, hi, cut) on one base interval.

    With cols, the matrix whose (i, j) entry is cones.overlap_kernel of the
    hull of footprints rows[i] and cols[j] above the larger cutoff: sigma2
    times it is the covariance of the two noise values.  Without cols, the
    area of each row footprint's own region, which fixes its mean.

    The matrix, written into out when given, is filled a block of rows at
    a time (_row_slices), elementwise, so its bits do not depend on the
    block; callers scale it in place.  Building and factoring a dense Gram
    of dim objects thus holds dim^2 doubles and a few blocks or one panel
    of the factorization (_chol_with_jitter).
    """
    lo, hi, cut = rows
    if cols is None:
        return cones.overlap_kernel(L, hi - lo, cut)
    c_lo, c_hi, c_cut = cols
    if out is None:
        out = np.empty((lo.size, c_lo.size))
    for b, dest in _row_slices(out):
        hull = (np.maximum(hi[b, None], c_hi[None, :]) -
                np.minimum(lo[b, None], c_lo[None, :]))
        cones.overlap_kernel(L, hull, np.maximum(cut[b, None], c_cut[None, :]),
                             out=dest)
    return out


def _normal_columns(rngs, dim):
    """(dim, len(rngs)) standard normals, column j drawn from rngs[j]."""
    normals = np.empty((dim, len(rngs)))
    for j, r in enumerate(rngs):
        normals[:, j] = r.standard_normal(dim)
    return normals


def _block_slots(count, rows, shape, out=None):
    """(start, destination) of each block of a batch of count replicas,
    rows at a time: out[start:start + b] of a (count, *shape) out, or,
    without out, the first b rows of one (rows, *shape) buffer reused
    from block to block.

    A sampler's blocks(rngs, out=None) yields (start, values) this way,
    values holding the point values of rngs[start:start + b]; a reused
    buffer is overwritten by the next block.  point_logs collects the
    blocks into one output, and BatchSimulator.masses reduces each as it
    comes, so one chunk's point values need never exist at once.
    (JuxtaposedGaussianSampler's one block is its transposed view, and
    it takes no out.)
    """
    rows = max(1, min(rows, count))
    buf = np.empty((rows,) + shape) if out is None else None
    for s in range(0, count, rows):
        b = min(rows, count - s)
        yield s, (buf[:b] if out is None else out[s:s + b])


def _all_blocks(blocks, rngs, shape):
    """The (len(rngs), *shape) values a blocks(rngs, out) generator
    writes into out."""
    out = np.empty((len(rngs),) + shape)
    for _ in blocks(rngs, out):
        pass
    return out


# Columns per block of the in-place Cholesky factorization.  Of 64, 128
# and 256, 128 was the fastest at dims 1022, 2047 and 4096 on a 2-vCPU
# x86 host, one BLAS thread: 0.034, 0.16 and 0.99 s, against 0.11, 0.23
# and 1.24 s for np.linalg.cholesky with its copies.
CHOLESKY_BLOCK = 128


def _factor_lower(a):
    """Left-looking blocked Cholesky factorization of a's lower triangle,
    in place (Golub & Van Loan, Matrix Computations, 4.2), CHOLESKY_BLOCK
    columns at a time: each block column is updated by one matrix product
    with the columns already factored, its diagonal block factored by
    LAPACK and the panel below solved against that factor.

    The strict upper triangle is neither read nor written.  False, with
    the lower triangle partly overwritten, if a diagonal block is not
    positive definite.
    """
    n, b = len(a), CHOLESKY_BLOCK
    tri = np.tri(min(b, n), dtype=bool)
    for k in range(0, n, b):
        e = min(k + b, n)
        d, lower = a[k:e, k:e], tri[:e - k, :e - k]
        if k:
            upd = a[k:, :k] @ a[k:e, :k].T
            # np.linalg.cholesky reads the lower triangle alone
            np.subtract(d, upd[:e - k], out=d, where=lower)
            a[e:, k:e] -= upd[e - k:]
            del upd
        try:
            lkk = np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            return False
        np.copyto(d, lkk, where=lower)
        if e < n:
            a[e:, k:e] = np.linalg.solve(lkk, a[e:, k:e].T).T
    return True


def _row_blocks(a):
    """(rows, diagonal block, strict upper mask) of a square matrix,
    CHOLESKY_BLOCK rows at a time."""
    n, b = len(a), CHOLESKY_BLOCK
    upper = ~np.tri(min(b, n), dtype=bool)
    for r in range(0, n, b):
        s = min(r + b, n)
        yield slice(r, s), a[r:s, r:s], upper[:s - r, :s - r]


def _chol_with_jitter(cov):
    """(Cholesky factor, relative jitter) of a covariance matrix, factored
    in place: the factor returned is cov itself, and the build's peak is
    cov plus one panel of CHOLESKY_BLOCK columns.

    The jitter, a multiple of the mean diagonal added to the diagonal, is
    0 when the plain factorization succeeds; any other value is warned
    about, since it perturbs the law that is sampled.  Until a
    factorization succeeds only the lower triangle is written, so a
    failed one is undone from the strict upper triangle and a copy of the
    diagonal; then the next jitter is tried.
    """
    diag = np.diag(cov).copy()
    scale = float(np.mean(diag)) or 1.0
    for jitter in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        if jitter:
            np.fill_diagonal(cov, diag + jitter * scale)
        if _factor_lower(cov):
            break
        for rows, blk, upper in _row_blocks(cov):
            cov[rows, :rows.start] = cov[:rows.start, rows].T
            np.copyto(blk, blk.T, where=upper.T)
        np.fill_diagonal(cov, diag)
    else:
        w = np.linalg.eigvalsh(cov)
        raise np.linalg.LinAlgError(
            f"covariance not positive definite (min eigenvalue {w[0]:.3e} "
            f"of scale {scale:.3e}) even with jitter 1e-8")
    for rows, blk, upper in _row_blocks(cov):
        cov[rows, rows.stop:] = 0.0
        np.copyto(blk, 0.0, where=upper)
    if jitter:
        warnings.warn(f"covariance needed relative jitter {jitter:g} "
                      f"for its Cholesky factor", RuntimeWarning,
                      stacklevel=2)
    return cov, jitter


class GaussianFieldSampler:
    """Joint exact sampler for the Gaussian part of the noise on a grid.

    The Gram is scaled and Cholesky-factored in place, so the build's
    peak is dim^2 doubles and one panel of the factorization
    (footprint_areas, _chol_with_jitter); the factor is that same array.
    """

    name = "dense"

    def __init__(self, grid, sigma2):
        if sigma2 <= 0:
            raise ValueError("Gaussian sampler needs sigma2 > 0")
        self.grid = grid
        self.sigma2 = float(sigma2)
        objs = _gram_objects(grid)
        areas = footprint_areas(grid.length, objs)
        self.mean = -0.5 * sigma2 * areas
        cov = footprint_areas(grid.length, objs, objs)
        cov *= sigma2
        self.chol, jitter = _chol_with_jitter(cov)
        for a in (self.mean, self.chol):
            a.setflags(write=False)
        self.health = {"cholesky_jitter": jitter}
        self.dim = areas.size

    def draw(self, rng, count=1):
        """(dim, count) matrix of field values, one replica per column."""
        vals = self.chol @ rng.standard_normal((self.dim, count))
        vals += self.mean[:, None]
        return vals

    def draw_columns(self, normals):
        """Map externally drawn standard normals (k, count) to the values of
        the first k objects (k = dim for all of them).

        The factor is lower triangular, so the leading values need only the
        leading normals: with k = n_points, the point values alone.
        """
        k = normals.shape[0]
        vals = self.chol[:k, :k] @ normals
        vals += self.mean[:k, None]
        return vals

    def blocks(self, rngs, out=None):
        """One block, the whole batch: the matrix product's bits depend on
        its width (see _block_slots for the protocol).

        Only the point normals are drawn, the first n_points of the ones
        sample() draws, so the carried cells cost nothing here.
        """
        n = self.grid.n_points
        vals = self.draw_columns(_normal_columns(rngs, n))
        if out is None:
            out = np.empty((len(rngs), n))
        out[...] = vals.T
        yield 0, out

    def point_logs(self, rngs):
        """(len(rngs), n_points) point values, replica j drawn from rngs[j]."""
        return _all_blocks(self.blocks, rngs, (self.grid.n_points,))

    def split(self, values):
        """Slice a stacked value vector into (point_log, cell_log dict)."""
        g = self.grid
        point_log = values[:g.n_points]
        cell_log = {}
        off = g.n_points
        for lev in g.carried_levels:
            cell_log[lev] = values[off:off + 2 ** lev]
            off += 2 ** lev
        return point_log, cell_log

    def sample(self, rng):
        vals = self.draw(rng, 1)[:, 0]
        point_log, cell_log = self.split(vals)
        return FieldSample(self.grid, "gaussian", point_log, cell_log)


class JuxtaposedGaussianSampler:
    """Exact sampler of the point values of n_intervals adjacent copies of
    a grid under one Gaussian noise, by the dense factor of their point
    Gram: one copy's overlap kernel in the diagonal blocks, the cross
    kernel of two copies' cones off them.  Both are filled in place a
    block of rows at a time (_row_slices) and the Gram is factored in
    place, so the build holds the Gram and a panel or a few blocks."""

    name = "juxtaposed-dense"

    def __init__(self, grid, sigma2, n_intervals):
        if sigma2 <= 0:
            raise ValueError("Gaussian sampler needs sigma2 > 0")
        self.grid = grid
        self.n_intervals = n_intervals
        L, lo, n = grid.length, grid.interval[0], grid.n_points
        copies = [replace(grid, interval=(lo + i * L, lo + (i + 1) * L))
                  for i in range(n_intervals)]
        feet = [_gram_objects(g, levels=()) for g in copies]
        self.mean = -0.5 * sigma2 * np.concatenate(
            [footprint_areas(L, f) for f in feet])
        cov = np.empty((self.mean.size, self.mean.size))
        for i, fi in enumerate(feet):
            ri = slice(i * n, (i + 1) * n)
            footprint_areas(L, fi, fi, out=cov[ri, ri])
            for j, fj in enumerate(feet[i + 1:], i + 1):
                rj = slice(j * n, (j + 1) * n)
                for b, dest in _row_slices(cov[ri, rj]):
                    dest[...] = cones.cross_kernel(
                        copies[i].interval, copies[j].interval, fi[0][b],
                        fi[1][b], fj[0], fj[1],
                        np.maximum(fi[2][b, None], fj[2][None, :]))
                    cov[rj, ri][:, b] = dest.T
        cov *= sigma2
        self.chol, jitter = _chol_with_jitter(cov)
        for a in (self.mean, self.chol):
            a.setflags(write=False)
        self.health = {"cholesky_jitter": jitter}

    def point_logs(self, rngs):
        """(len(rngs), n_intervals, n_points) point values, replica j drawn
        from rngs[j]."""
        vals = self.chol @ _normal_columns(rngs, self.mean.size)
        vals += self.mean[:, None]
        # a view: a contiguous copy would change the totals' summation order
        return vals.T.reshape(len(rngs), self.n_intervals, self.grid.n_points)

    def blocks(self, rngs):
        """One block, the whole batch, as point_logs gives it: the matrix
        product's bits depend on its width."""
        yield 0, self.point_logs(rngs)


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


# Normals per block of a circulant batch, 16 rows at 4096 points:
# point_logs holds its output plus about two blocks.  64 rows took 8 MB
# more peak RSS at 4096 points, chunks of 500; loop times tied.
CIRCULANT_BLOCK_VALUES = 2 ** 17


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

    def __init__(self, grid, sigma2):
        if sigma2 <= 0:
            raise ValueError("Gaussian sampler needs sigma2 > 0")
        if grid.cell_levels != 0:
            raise ValueError("circulant embedding needs a points-only grid "
                             "(cell_levels = 0)")
        self.grid = grid
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

    def draw_rows(self, normals):
        """Map standard normals (rows, M) to point values (rows, n_points)."""
        spec = np.zeros((len(normals), self.size + 2))
        spec[:, 1:self.size + 1] = normals
        return self._spectral_values(spec)[:, :self.grid.n_points] + self.mean

    def blocks(self, rngs, out=None):
        """Blocks of CIRCULANT_BLOCK_VALUES normals (see _block_slots),
        drawn and transformed in one spectrum and one transform buffer."""
        m, n = self.size, self.grid.n_points
        rows = max(1, CIRCULANT_BLOCK_VALUES // m)
        spec = np.zeros((min(rows, len(rngs)), m + 2))
        vals = np.empty((len(spec), m))
        for s, dest in _block_slots(len(rngs), rows, (n,), out):
            b = len(dest)
            for i, r in enumerate(rngs[s:s + b]):
                r.standard_normal(out=spec[i, 1:m + 1])
            self._spectral_values(spec[:b], vals[:b])
            np.add(vals[:b, :n], self.mean, out=dest)
            yield s, dest

    def point_logs(self, rngs):
        """(len(rngs), n_points) point values, replica j drawn from rngs[j]."""
        return _all_blocks(self.blocks, rngs, (self.grid.n_points,))

    def sample(self, rng):
        return FieldSample(self.grid, "gaussian", self.point_logs([rng])[0],
                           {})


# ---------------------------------------------------------------------------
# atomic (compound Poisson) sampler
# ---------------------------------------------------------------------------


class JumpSampler:
    """Draw jump sizes from a finite-total-mass jump measure."""

    def __init__(self, nu):
        self.nu = nu
        if isinstance(nu, AtomicJumps):
            masses = np.asarray(nu.masses, float)
            self.total = float(masses.sum())
            self.locations = np.asarray(nu.locations, float)
            self.cum = np.cumsum(masses) / self.total
            tables = (self.locations, self.cum)
        elif isinstance(nu, TabulatedJumps):
            self.total = nu.total_mass()
            if not math.isfinite(self.total) or self.total <= 0:
                raise ValueError("tabulated measure must have finite positive "
                                 "total mass for Poisson sampling")
            self._build_tabulated(nu)
            tables = (self._x, self._d, self._pieces, self._cum)
        else:
            raise TypeError("Poisson sampling needs an atomic or tabulated "
                            "jump measure with finite mass")
        for a in tables:
            a.setflags(write=False)

    def _build_tabulated(self, nu):
        x = np.asarray(nu.grid_x, float)
        d = np.asarray(nu.grid_density, float)
        bin_mass = 0.5 * (d[:-1] + d[1:]) * np.diff(x)
        left = nu.left_rate and d[0] > 0
        right = nu.right_rate and d[-1] > 0
        left_mass = d[0] / nu.left_rate if left else 0.0
        right_mass = d[-1] / nu.right_rate if right else 0.0
        self._x, self._d = x, d
        self._pieces = np.concatenate([[left_mass], bin_mass, [right_mass]])
        self._cum = np.cumsum(self._pieces) / self._pieces.sum()

    def uniforms(self, rng, size):
        """(1 atomic or 2 tabulated rows, size) uniforms of size jumps."""
        return rng.random((1 if isinstance(self.nu, AtomicJumps) else 2, size))

    def from_uniforms(self, u):
        """Jump sizes of uniforms() rows, elementwise: many draws at once."""
        if isinstance(self.nu, AtomicJumps):
            return self.locations[np.searchsorted(self.cum, u[0])]
        nu, x, d = self.nu, self._x, self._d
        piece, u = np.searchsorted(self._cum, u[0]), u[1]
        out = np.empty(u.size)
        nb = x.size - 1
        for k in range(nb + 2):
            sel = np.flatnonzero(piece == k)
            if not sel.size:
                continue
            uu = u[sel]
            if k == 0:
                out[sel] = x[0] + np.log(uu) / nu.left_rate
            elif k == nb + 1:
                out[sel] = x[-1] - np.log(1.0 - uu) / nu.right_rate
            else:
                a, b = x[k - 1], x[k]
                da, db = d[k - 1], d[k]
                if abs(db - da) < 1e-14 * max(da, db, 1.0):
                    out[sel] = a + uu * (b - a)
                else:
                    # invert the linear-density CDF on the bin
                    slope = (db - da) / (b - a)
                    disc = da * da + uu * (db * db - da * da)
                    out[sel] = a + (np.sqrt(disc) - da) / slope
        return out


@functools.lru_cache(maxsize=64)
def jump_law(nu):
    """(JumpSampler(nu), jump_drift(nu)), built once per jump measure.

    Measures are frozen and hashable; a tabulated one needs quadrature for
    both, which would otherwise run again on every sampler and area draw.
    """
    return JumpSampler(nu), jump_drift(nu)


def _shadow_index_range(x, y, lo, spacing, count):
    """Evaluation-index range [k0, k1) of points inside cone shadows.

    The shadow of a noise point (x, y) on the time axis is [x - y/2,
    x + y/2); evaluation point t_k = lo + (k + 1/2) spacing belongs iff
    k0 <= k < k1 with the half-open convention below.
    """
    k0 = np.ceil((x - 0.5 * y - lo) / spacing - 0.5).astype(np.int64)
    k1 = np.ceil((x + 0.5 * y - lo) / spacing - 0.5).astype(np.int64)
    return np.clip(k0, 0, count), np.clip(k1, 0, count)


def _covered_cell_range(x, y, lo, width, count):
    """Index range [i0, i1) of level cells fully covered by the shadows."""
    i0 = np.ceil((x - lo - 0.5 * y) / width - 1e-12).astype(np.int64)
    i1 = np.floor((x - lo + 0.5 * y) / width + 1e-12).astype(np.int64)
    return np.clip(i0, 0, count), np.clip(i1, 0, count)


def range_sums(i0, i1, values, count, rows=1, diff=None):
    """(rows, count) totals of values[m] over the index ranges [i0[m],
    i1[m]), an index being row * (count + 1) + k.

    A difference-array sweep: each range adds at its start and subtracts at
    its end, and a cumulative sum spreads the values over the indices, in
    place: the totals are a view of the (rows, count + 1) difference
    array, which may be a caller's buffer to reuse (diff, overwritten).
    """
    if diff is None:
        diff = np.zeros((rows, count + 1))
    else:
        diff.fill(0.0)
    flat = diff.reshape(-1)
    np.add.at(flat, i0, values)
    np.subtract.at(flat, i1, values)
    sums = diff[:, :-1]
    return np.cumsum(sums, axis=1, out=sums)


def shadow_sums(counts, x, y, jump, left, spacing, n, right=None, diff=None):
    """(len(counts) * copies, n) jump totals at the evaluation points of
    each replica's grid copies, in one range_sums call (with its diff);
    replica j owns the next counts[j] points.  left and spacing are
    scalars for one copy or (copies, 1) columns; with right, a copy drops
    the points covering it."""
    k0, k1 = np.atleast_2d(*_shadow_index_range(x, y, left, spacing, n))
    off = (np.repeat(np.arange(len(counts)) * len(k0), counts)
           + np.arange(len(k0))[:, None]) * (n + 1)
    keep = (... if right is None else
            ~((x - 0.5 * y <= left) & (right <= x + 0.5 * y)))
    k0 += off
    k1 += off
    return range_sums(k0[keep], k1[keep],
                      np.broadcast_to(jump, k0.shape)[keep], n,
                      rows=len(counts) * len(k0), diff=diff)


def poisson_points(rngs, strips, jumps):
    """Poisson point sets with jumps on the union of strips, one per
    generator: (counts, x, y, jump), the sets concatenated in order.

    Each generator draws its count, its points' strips (with more than one
    strip), three uniforms per point, then its jump uniforms; the batch's
    uniforms are mapped at once, with the bits of one set at a time.
    """
    mass = np.array([s.mass() for s in strips])
    total = float(mass.sum())
    counts = np.array([r.poisson(jumps.total * total) for r in rngs])
    which = (np.searchsorted(np.cumsum(mass) / total, np.concatenate(
        [r.random(n) for r, n in zip(rngs, counts)]))
             if len(strips) > 1 else np.zeros(counts.sum(), np.int64))
    u = np.concatenate([r.random((n, 3)) for r, n in zip(rngs, counts)]).T
    ju = np.concatenate([jumps.uniforms(r, n) for r, n in zip(rngs, counts)],
                        axis=1)
    x, y = np.empty((2, u.shape[1]))
    for i, s in enumerate(strips):
        sel = np.flatnonzero(which == i)  # indices: far faster than masks
        x[sel], y[sel] = s.sample(*u.take(sel, axis=1))
    return counts, x, y, jumps.from_uniforms(ju)


# Evaluation slots plus expected points of one Poisson point_logs
# sub-batch.  Drawn whole, chunks at 4096 points ran 1.5x (one copy) to
# 2.3x (4 copies) slower per replica; caps from 65536 to 131072 tied.
POISSON_BATCH_SLOTS = 65536


def _batch_size(strips, jumps, slots):
    """Replicas per sub-batch, each with its slots and expected points."""
    points = jumps.total * sum(s.mass() for s in strips)
    return max(1, int(POISSON_BATCH_SLOTS // (slots + points)))


class PoissonFieldSampler:
    """Exact sampler for pure-jump models with finite jump-measure mass."""

    name = "poisson"
    health = {}

    def __init__(self, grid, model):
        if model.sigma2 != 0.0:
            raise ValueError("model has a Gaussian part; use the hybrid path")
        self.grid = grid
        self.model = model
        self.jumps, self.drift = jump_law(model.nu)
        self.strips = cones.sampling_domain(grid.interval, grid.eps)
        g = grid
        self._base = self.drift * cones.area_local_cone(g.interval, g.eps)
        self._cell_area = {
            lev: math.log(g.length / (g.length * 2.0 ** (-lev)))
            for lev in g.carried_levels}
        self._batch = _batch_size(self.strips, self.jumps, g.n_points + 1)

    def draw_points(self, rng):
        """Poisson point set on the sampling domain: (x, y, jump) arrays."""
        return poisson_points([rng], self.strips, self.jumps)[1:]

    def evaluate(self, x, y, jump):
        """Field values (point_log, cell_log) of one point set."""
        g = self.grid
        lo = g.interval[0]
        point_log = self._base + shadow_sums([x.size], x, y, jump, lo,
                                             g.spacing, g.n_points)[0]
        cell_log = {}
        for lev in g.carried_levels:
            count = 2 ** lev
            i0, i1 = _covered_cell_range(x, y, lo, g.length / count, count)
            ok = i0 < i1
            cell_log[lev] = self.drift * self._cell_area[lev] + range_sums(
                i0[ok], i1[ok], jump[ok], count)[0]
        return point_log, cell_log

    def sample(self, rng):
        x, y, jump = self.draw_points(rng)
        point_log, cell_log = self.evaluate(x, y, jump)
        return FieldSample(self.grid, "poisson", point_log, cell_log,
                           points_x=x, points_y=y, points_jump=jump)

    def blocks(self, rngs, out=None):
        """Sub-batches of POISSON_BATCH_SLOTS (see _block_slots), summed
        in one reused difference array."""
        g = self.grid
        diff = np.empty((min(self._batch, len(rngs)), g.n_points + 1))
        for s, dest in _block_slots(len(rngs), self._batch, (g.n_points,),
                                    out):
            sums = shadow_sums(*poisson_points(
                rngs[s:s + len(dest)], self.strips, self.jumps),
                g.interval[0], g.spacing, g.n_points, diff=diff[:len(dest)])
            np.add(sums, self._base, out=dest)
            yield s, dest

    def point_logs(self, rngs):
        """(len(rngs), n_points) point values, replica j from rngs[j]."""
        return _all_blocks(self.blocks, rngs, (self.grid.n_points,))


class JuxtaposedPoissonSampler:
    """Exact sampler of the point values of n_intervals adjacent copies of
    a grid under one compound-Poisson noise.

    The copies' local cones fill the sampling domain of their hull, so one
    point set serves every copy: a point adds its jump to the copy's points
    under its shadow unless it lies in that copy's own interval cone.
    """

    name = "juxtaposed-poisson"
    health = {}

    def __init__(self, grid, model, n_intervals):
        if model.sigma2 != 0.0:
            raise ValueError("model has a Gaussian part; use the hybrid path")
        self.grid = grid
        self.n_intervals = n_intervals
        L, lo, n = grid.length, grid.interval[0], grid.n_points
        self.strips = cones.sampling_domain((lo, lo + n_intervals * L),
                                            grid.eps)
        self.jumps, drift = jump_law(model.nu)
        self._base = drift * cones.area_local_cone((lo, lo + L), grid.eps)
        # one row per copy, each with its own edges and spacing: for a
        # non-dyadic L the lengths (lo + (i+1)L) - (lo + iL) need not equal L
        edges = lo + np.arange(n_intervals + 1) * L
        self._left, self._right = edges[:-1, None], edges[1:, None]
        self._spacing = (self._right - self._left) / n
        self._batch = _batch_size(self.strips, self.jumps,
                                  n_intervals * (n + 1))

    def blocks(self, rngs, out=None):
        """Sub-batches of POISSON_BATCH_SLOTS (see _block_slots), summed
        in one reused difference array."""
        n, m = self.grid.n_points, self.n_intervals
        diff = np.empty((min(self._batch, len(rngs)) * m, n + 1))
        for s, dest in _block_slots(len(rngs), self._batch, (m, n), out):
            counts, x, y, jump = poisson_points(rngs[s:s + len(dest)],
                                                self.strips, self.jumps)
            sums = shadow_sums(counts, x, y, jump, self._left,
                               self._spacing, n, self._right,
                               diff=diff[:len(dest) * m])
            np.add(sums.reshape(dest.shape), self._base, out=dest)
            yield s, dest

    def point_logs(self, rngs):
        """(len(rngs), n_intervals, n_points) point values, replica j drawn
        from rngs[j]."""
        return _all_blocks(self.blocks, rngs,
                           (self.n_intervals, self.grid.n_points))


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
    nu = model.nu
    if isinstance(nu, ZeroJumps):
        big = ZeroJumps()
        var_small = 0.0
    elif isinstance(nu, AtomicJumps):
        kept = [(x, m) for x, m in zip(nu.locations, nu.masses)
                if abs(x) >= cutoff]
        big = (AtomicJumps(tuple(x for x, _ in kept),
                           tuple(m for _, m in kept))
               if kept else ZeroJumps())
        var_small = sum(m * x * x for x, m in zip(nu.locations, nu.masses)
                        if abs(x) < cutoff)
    elif isinstance(nu, TabulatedJumps):
        var_small = nu.integrate_weighted(
            lambda t: t * t if abs(t) < cutoff else 0.0)
        big = _clip_tabulated(nu, cutoff)
    else:
        raise TypeError(f"unknown jump measure {type(nu).__name__}")
    sigma2 = model.sigma2 + (var_small if substitute else 0.0)
    if sigma2 == 0.0 and isinstance(big, ZeroJumps):
        raise ValueError("truncation removed all randomness; lower the "
                         "cutoff or enable substitution")
    return build_model(sigma2, big)


def _clip_tabulated(nu, cutoff):
    x = np.asarray(nu.grid_x, float)
    d = np.asarray(nu.grid_density, float).copy()
    pts = sorted(set(list(x) + [-cutoff, cutoff]))
    pts = [p for p in pts if x[0] <= p <= x[-1]]
    dens = [0.0 if abs(p) < cutoff else float(np.interp(p, x, d))
            for p in pts]
    if np.allclose(dens, 0.0) and nu.left_rate is None and nu.right_rate is None:
        return ZeroJumps()
    return TabulatedJumps(tuple(pts), tuple(dens),
                          left_rate=nu.left_rate, right_rate=nu.right_rate)


class HybridFieldSampler:
    """Gaussian part plus jumps of a model with both, each exactly
    normalized.

    The Gaussian part is a Gaussian model's sampler (gaussian_sampler);
    the dense factor is lower triangular, so sample() can draw the cell
    normals after the jumps.
    """

    name = "hybrid"

    def __init__(self, grid, model):
        if field_kind(model) != "hybrid":
            raise ValueError("hybrid sampler needs a Gaussian part and jumps")
        self.model = model
        self.grid = grid
        self.gauss = gaussian_sampler(grid, model.sigma2)
        self.poisson = PoissonFieldSampler(grid, build_model(0.0, model.nu))
        self.health = self.gauss.health

    def sample(self, rng):
        # The point normals, then the jumps, then the cell normals: so the
        # point values do not depend on how many cell levels are carried.
        g, gauss = self.grid, self.gauss
        if isinstance(gauss, CirculantGaussianSampler):  # no cells
            point_log, cell_log = gauss.sample(rng).point_log, {}
            jumps = self.poisson.sample(rng)
        else:
            z_points = rng.standard_normal((g.n_points, 1))
            jumps = self.poisson.sample(rng)
            z_cells = rng.standard_normal((gauss.dim - g.n_points, 1))
            point_log, cell_log = gauss.split(
                gauss.draw_columns(np.concatenate([z_points, z_cells]))[:, 0])
        return FieldSample(
            g, "gaussian+poisson", point_log + jumps.point_log,
            {lev: v + jumps.cell_log[lev] for lev, v in cell_log.items()},
            points_x=jumps.points_x, points_y=jumps.points_y,
            points_jump=jumps.points_jump)

    def blocks(self, rngs, out=None):
        """The Gaussian part's blocks (see _block_slots), each with the
        jumps of its replicas added.

        Each generator gives its point normals first, then its Poisson
        points, as in sample(); the cell normals that sample() draws last
        are not needed, so a batch replays the single draws.
        """
        for s, vals in self.gauss.blocks(rngs, out):
            for t, jumps in self.poisson.blocks(rngs[s:s + len(vals)]):
                vals[t:t + len(jumps)] += jumps
            yield s, vals

    def point_logs(self, rngs):
        """(len(rngs), n_points) point values, replica j drawn from rngs[j]."""
        return _all_blocks(self.blocks, rngs, (self.grid.n_points,))


def gaussian_sampler(grid, sigma2):
    """The circulant embedding on a points-only grid of at least
    CIRCULANT_MIN_POINTS points, else the dense factor; the dense factor
    too, warned, if the embedding has a negative eigenvalue."""
    if grid.cell_levels == 0 and grid.n_points >= CIRCULANT_MIN_POINTS:
        try:
            return CirculantGaussianSampler(grid, sigma2)
        except np.linalg.LinAlgError as exc:
            warnings.warn(f"{exc}; using the dense sampler", RuntimeWarning,
                          stacklevel=4)
    return GaussianFieldSampler(grid, sigma2)


def field_kind(model):
    """Natural sampler for a model: gaussian, poisson or hybrid."""
    if isinstance(model.nu, ZeroJumps):
        return "gaussian"
    if model.sigma2 == 0.0:
        return "poisson"
    return "hybrid"


def make_sampler(grid, model, n_intervals=1):
    """The exact field sampler for a model on a grid.

    The model alone picks the sampler (field_kind): Gaussian, Poisson or
    hybrid.  A model with small jumps truncated is built first by
    truncated_model.  Every sampler has point_logs(rngs) for a batch of
    point values, one generator per replica, and the one-interval samplers
    sample(rng) for one FieldSample.

    gaussian_sampler gives a Gaussian model or a hybrid's Gaussian part the
    circulant embedding on a points-only grid of CIRCULANT_MIN_POINTS or
    more points, else, or on a negative eigenvalue (warned), the dense one.

    With n_intervals > 1 it draws that many adjacent copies of the grid
    under one noise, and point_logs gives (replicas, n_intervals,
    n_points): JuxtaposedGaussianSampler, whose Gram holds the points
    alone whatever the cell_levels, or JuxtaposedPoissonSampler; no hybrid.

    The most recent sampler is kept and returned again to the next call
    with equal arguments, however they are spelled: by keyword or by
    position, with the default left out or given.  A fallback or jitter
    warning fires on the build only.  Its shared arrays are read-only.
    make_sampler.cache_clear() drops it and make_sampler.cache_info()
    counts the hits and misses.
    """
    return _cached_sampler(grid, model, n_intervals)


# One slot: every repeated caller (build_realization in a loop, the star
# check) reuses a single key, and a dense factor can be large (about 300 MB
# for 4096 points at oversample 4 carrying all 2046 cells), so no earlier
# sampler is kept alive once another is built.  make_sampler resolves the
# arguments to positions first, so that each key has one spelling.
@functools.lru_cache(maxsize=1)
def _cached_sampler(grid, model, n_intervals):
    kind = field_kind(model)
    if kind == "gaussian":
        if n_intervals > 1:
            return JuxtaposedGaussianSampler(grid, model.sigma2, n_intervals)
        return gaussian_sampler(grid, model.sigma2)
    if kind == "hybrid":
        if n_intervals > 1:
            raise ValueError("juxtaposition supports gaussian and poisson "
                             "models")
        return HybridFieldSampler(grid, model)
    if n_intervals > 1:
        return JuxtaposedPoissonSampler(grid, model, n_intervals)
    return PoissonFieldSampler(grid, model)


make_sampler.cache_clear = _cached_sampler.cache_clear
make_sampler.cache_info = _cached_sampler.cache_info


def sample_field(grid, model, rng):
    """One field draw from make_sampler's (cached) sampler for the model."""
    return make_sampler(grid, model).sample(rng)
