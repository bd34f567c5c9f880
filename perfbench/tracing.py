"""Spans and counters around the public calls into each idcascade module.

Nothing inside the package is changed: `install` replaces the named
functions in the module namespaces where their callers look them up (for
example `idcascade.cascade.make_generator`) and the methods on the sampler
classes.  Every replacement forwards its arguments unchanged and returns
the original result, so a traced run draws the same numbers as an
untraced one.

Two kinds of records are kept in memory:

* spans (name, start, end, parent) for calls at layer boundaries;
* totalled calls (count and summed time, no span) for calls too small and
  too frequent for one span each: Philox stream creation and draws,
  `DomainStrip.sample`, and the levy exponent integrals.  Each span notes
  the totalled time at its start and end, so the time of the calls made
  inside it counts as child time and self times stay exact.

`layer_totals` turns the records of one process into additive figures;
`derive_layer_metrics` in run.py sums them over processes.
"""

import functools
import os
from time import perf_counter

# Span names; a layer metric "<name>_s" is the time of the outermost spans
# of that name and "<name>_self_s" the summed self time.
SPANS = (
    "field.build", "field.transform", "field.poisson_draw",
    "field.shadow_eval", "cones.oracle", "cascade.chunk", "cascade.reduce",
    "cascade.realization", "cascade.star", "cascade.juxtapose",
    "cascade.scale_draw", "cascade.export", "moments.quadrature",
    "moments.cross_quadrature", "moments.estimator", "config.load",
    "cli.import", "cli.theory", "cli.simulate", "cli.verify",
    "cli.estimate",
)

# Totalled (span-less) calls: name -> metric name of their count.  The
# count of "rng.draw" is the number of variates drawn, not of calls.
TOTALLED = {
    "rng.stream": "rng.streams",
    "rng.draw": "rng.variates",
    "cones.strip_sample": "cones.strip_samples",
    "levy.exponent": "levy.exponent_calls",
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        # [name, start, end, parent index, totalled time at open, at close]
        self.spans = []
        self.stack = []
        # totalled name -> [time, count, nesting depth]
        self.acc = {name: [0.0, 0, 0] for name in TOTALLED}
        self.counts = {}
        self.build_keys = []
        self.factor_mb = 0.0

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _totalled_time(self):
        return sum(acc[0] for acc in self.acc.values())

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent,
                           self._totalled_time(), 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = self._totalled_time()
        self.stack.pop()

    def record(self, name, start, end):
        """A span measured by the caller, e.g. the package import."""
        parent = self.stack[-1] if self.stack else -1
        now = self._totalled_time()
        self.spans.append([name, start, end, parent, now, now])

    # -- wrappers -----------------------------------------------------------

    def spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result
        return wrapper

    def totalled(self, name, fn):
        """Count every call; time only the outermost of nested calls.

        Kept lean: it runs millions of times per jump-cli pass.
        """
        acc = self.acc[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc[1] += 1
            if acc[2]:
                return fn(*args, **kwargs)
            acc[2] = 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += perf_counter() - t
                acc[2] = 0
        return wrapper


class _TracedGenerator:
    """Forwarding proxy on a numpy Generator that times and counts draws."""

    __slots__ = ("_gen", "_acc")

    def __init__(self, gen, acc):
        self._gen = gen
        self._acc = acc

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        acc = self._acc

        def draw(*args, **kwargs):
            t = perf_counter()
            try:
                out = attr(*args, **kwargs)
            finally:
                acc[0] += perf_counter() - t
            acc[1] += getattr(out, "size", 1)
            return out
        return draw


# ---------------------------------------------------------------------------
# after-call hooks that record counts
# ---------------------------------------------------------------------------


def _after_build(tracer, idx, args, kwargs, result):
    sampler = args[0]
    dim = getattr(sampler, "dim", None)
    if dim is not None:             # a dense Cholesky factor was built
        tracer.factor_mb = max(tracer.factor_mb, dim * dim * 8 / 1e6)
    if _has_ancestor(tracer, idx, "field.build"):
        return                      # a hybrid's inner sampler
    model = getattr(sampler, "model", None)
    if model is None:               # GaussianFieldSampler keeps sigma2 only
        model = ("sigma2", sampler.sigma2)
    tracer.build_keys.append(repr((sampler.grid, model)))


def _after_transform(tracer, idx, args, kwargs, result):
    sampler = args[0]
    columns = result.shape[1]
    tracer.add("field.transform_gflop",
               2.0 * sampler.dim * sampler.dim * columns / 1e9)


def _after_poisson_draw(tracer, idx, args, kwargs, result):
    tracer.add("field.poisson_points", len(result[0]))


def _after_export(tracer, idx, args, kwargs, result):
    if _has_ancestor(tracer, idx, "cascade.export"):
        return                      # realization_to_binary's inner write
    path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
    tracer.add("cascade.export_files", 1)
    tracer.add("cascade.export_bytes", os.path.getsize(path))


def _has_ancestor(tracer, idx, name):
    parent = tracer.spans[idx][3]
    while parent >= 0:
        if tracer.spans[parent][0] == name:
            return True
        parent = tracer.spans[parent][3]
    return False


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def install(tracer):
    """Wrap the public entry points of every idcascade module in place."""
    import idcascade._rng as rng_mod
    from idcascade import cascade, cli, config, cones, field, levy, moments

    original_make_generator = rng_mod.make_generator
    make_generator_timed = tracer.totalled("rng.stream",
                                           original_make_generator)

    @functools.wraps(original_make_generator)
    def make_generator(*args, **kwargs):
        return _TracedGenerator(make_generator_timed(*args, **kwargs),
                                tracer.acc["rng.draw"])

    for mod in (rng_mod, cascade):
        mod.make_generator = make_generator

    def wrap(owner, attr, name, after=None):
        setattr(owner, attr,
                tracer.spanned(name, getattr(owner, attr), after))

    for cls in (field.GaussianFieldSampler, field.PoissonFieldSampler,
                field.HybridFieldSampler):
        wrap(cls, "__init__", "field.build", _after_build)
    wrap(field.GaussianFieldSampler, "draw", "field.transform",
         _after_transform)
    wrap(field.GaussianFieldSampler, "draw_columns", "field.transform",
         _after_transform)
    wrap(field.PoissonFieldSampler, "draw_points", "field.poisson_draw",
         _after_poisson_draw)
    wrap(field.PoissonFieldSampler, "evaluate", "field.shadow_eval")

    cones.DomainStrip.sample = tracer.totalled("cones.strip_sample",
                                               cones.DomainStrip.sample)
    wrap(cones, "region_area", "cones.oracle")
    original_area_cross = cones.area_cross

    @functools.wraps(original_area_cross)
    def area_cross(*args, **kwargs):
        tracer.add("cones.cross_area_calls", 1)
        return original_area_cross(*args, **kwargs)
    cones.area_cross = area_cross

    wrap(cascade.BatchSimulator, "point_log_chunk", "cascade.chunk")
    wrap(cascade, "masses_from_point_log", "cascade.reduce")
    wrap(cascade, "build_realization", "cascade.realization")
    wrap(cascade, "decompose_star", "cascade.star")
    wrap(cascade, "juxtaposed_total_masses", "cascade.juxtapose")
    wrap(cascade, "sample_scale_log", "cascade.scale_draw")
    for attr in ("realization_to_binary", "realization_to_csv",
                 "write_masses_binary"):
        wrap(cascade, attr, "cascade.export", _after_export)

    wrap(moments, "exact_joint_moment", "moments.quadrature")
    original_ordered_quadrature = moments._ordered_quadrature

    @functools.wraps(original_ordered_quadrature)
    def ordered_quadrature(spans, alphas, T, M):
        # exact_joint_moment's inner integral: M Gauss-Legendre nodes on
        # each of the len(spans) axes.
        tracer.add("moments.quadrature_nodes", M ** len(spans))
        return original_ordered_quadrature(spans, alphas, T, M)
    moments._ordered_quadrature = ordered_quadrature
    wrap(moments, "juxtaposed_pair_moment", "moments.cross_quadrature")
    for attr in ("estimate_moment", "scaling_fit", "covariance_report",
                 "ks_two_sample", "hill_tail_report"):
        wrap(moments, attr, "moments.estimator")

    levy_exponent = tracer.totalled("levy.exponent", levy.levy_exponent)
    nu_integral = tracer.totalled("levy.exponent", levy.nu_integral)
    for mod in (levy, moments):
        mod.levy_exponent = levy_exponent
    for mod in (levy, moments, field, cascade):
        mod.nu_integral = nu_integral

    wrap(config, "load_config", "config.load")
    for sub in ("theory", "simulate", "verify", "estimate"):
        wrap(cli, f"cmd_{sub}", f"cli.{sub}")


# ---------------------------------------------------------------------------
# reduction of one process's records
# ---------------------------------------------------------------------------


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_totals(tracer):
    """Additive per-layer figures of one process: times, counts, keys.

    A span's self time is its duration minus the part its child spans
    cover and minus the totalled calls made directly inside it.
    """
    spans = tracer.spans
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(span)
    out = {f"{name}_s": 0.0 for name in SPANS}
    out.update({f"{name}_self_s": 0.0 for name in SPANS})
    for idx, (name, start, end, parent, tot0, tot1) in enumerate(spans):
        kids = children[idx]
        direct_totalled = (tot1 - tot0) - sum(k[5] - k[4] for k in kids)
        out[f"{name}_self_s"] += (end - start
                                  - _covered([(k[1], k[2]) for k in kids])
                                  - direct_totalled)
        if not _has_ancestor(tracer, idx, name):
            out[f"{name}_s"] += end - start
    for name, count_key in TOTALLED.items():
        out[f"{name}_s"] = tracer.acc[name][0]
        out[count_key] = tracer.acc[name][1]
    for key in ("cones.cross_area_calls", "field.transform_gflop",
                "field.poisson_points", "cascade.export_files",
                "cascade.export_bytes", "moments.quadrature_nodes"):
        out[key] = tracer.counts.get(key, 0)
    out["field.build_keys"] = list(tracer.build_keys)
    out["field.factor_mb"] = tracer.factor_mb
    return out


def dump_spans(tracer):
    """Spans as JSON-ready rows: name, start, end, parent index and the
    totalled-call time that ran inside the span."""
    return [[name, start, end, parent, tot1 - tot0]
            for name, start, end, parent, tot0, tot1 in tracer.spans]
