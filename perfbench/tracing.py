"""Spans at the public boundaries of the lattice_spectra modules.

The tracer replaces each function named in LAYER_API by a wrapper that
records one span per call: name, start, end, parent span and op id.  Several
modules import functions by name (``determinant``, ``spectrum``,
``thresholds`` and ``asymptotics`` all hold their own reference to
``integrate_resolvent`` or ``integrate_threshold``), so the wrapper is bound
in every lattice_spectra module whose attribute is the original object.
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.

Spans stay in memory and are written out once, at the end of a traced run.
"""

import itertools
import json
import sys
import threading
import time

import scipy.sparse.linalg

# public entry points per layer; ``sectors`` (pure weight algebra) and
# ``cli`` (argument parsing on top of these calls) are not wrapped
LAYER_API = {
    "dispersion": ("validate_hypothesis", "morse_data",
                   "fourier_coefficients"),
    "torus_quad": ("integrate_resolvent", "integrate_threshold",
                   "integrate_smooth"),
    "thresholds": ("gammas", "es_constants", "coupling_thresholds",
                   "classify_threshold_solutions",
                   "resonance_integrability_probe"),
    "determinant": ("delta_rank_one", "delta_es", "find_eigenvalue_rank_one",
                    "find_eigenvalues_es", "eigenfunction_es",
                    "multiplicity_check"),
    "spectrum": ("solve", "predicted_sector_counts", "phase_diagram",
                 "eigenvalue_curve", "triple_emergence_check",
                 "multiplicity_two_construct"),
    "asymptotics": ("leading_coefficients", "leading_coefficient",
                    "fit_eigenvalue_asymptotics", "extract_log_coefficient"),
    "lattice_oracle": ("build", "eigen_pairs", "top_eigenvalues",
                       "sector_count_above", "extrapolate"),
}

PACKAGE = "lattice_spectra"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "extra")

    def __init__(self, sid, name, start, end, parent, op, extra):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.op, self.extra = parent, op, extra

    def as_dict(self, t0):
        return {"id": self.sid, "name": self.name,
                "start": self.start - t0, "end": self.end - t0,
                "parent": self.parent, "op": self.op, "extra": self.extra}


def _annotate_before(tracer, name, args, kwargs):
    """Facts about a call known before it runs (which path it takes)."""
    if name == "lattice_oracle.eigen_pairs":
        h = args[0] if args else kwargs["h"]
        limit = tracer.modules["lattice_oracle"].DENSE_LIMIT
        return {"path": "dense" if h.dimension <= limit else "lanczos",
                "matvecs": tracer.counters.get("lattice_oracle.matvecs", 0)}
    if name == "spectrum.phase_diagram":
        threads = kwargs.get("threads", args[5] if len(args) > 5 else 1)
        return {"threads": int(threads or 1)}
    return None


def _annotate_after(tracer, name, result, extra):
    if name == "lattice_oracle.eigen_pairs":
        extra["matvecs"] = (tracer.counters.get("lattice_oracle.matvecs", 0)
                            - extra["matvecs"])
    elif name == "determinant.find_eigenvalue_rank_one":
        extra = dict(extra or {}, roots=0 if result is None else 1)
    elif name == "determinant.find_eigenvalues_es":
        extra = dict(extra or {}, roots=len(result))
    return extra


class Tracer:
    """Records spans while installed; ``op`` labels the spans of one op."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.spans = []
        self.counters = {}
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []             # (module, attribute, original)
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        self.spans = []
        self.counters = {}

    def count(self, key, n=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # pool worker threads: the caller blocked on the main
                # thread (phase_diagram) is the parent
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            extra = _annotate_before(tracer, name, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         tracer.op,
                                         _annotate_after(tracer, name, result, extra)))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        if self._patched:
            return
        package_modules = [m for key, m in sys.modules.items()
                           if m is not None and (key == PACKAGE
                                                 or key.startswith(PACKAGE + "."))]
        for layer, names in LAYER_API.items():
            home = self.modules[layer]
            for attr in names:
                original = getattr(home, attr)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for mod in package_modules:
                    if getattr(mod, attr, None) is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        self._install_matvec_counter()

    def _install_matvec_counter(self):
        cls = self.modules["lattice_oracle"].TruncatedHamiltonian
        original = cls.operator
        tracer = self

        def operator(h):
            op = original(h)

            def matvec(x):
                tracer.count("lattice_oracle.matvecs")
                return op.matvec(x)

            return scipy.sparse.linalg.LinearOperator(
                op.shape, matvec=matvec, dtype=op.dtype)

        self._patched.append((cls, "operator", original))
        cls.operator = operator

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write(self, path, t0):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span.as_dict(t0)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the span list
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def self_time(self, span):
        kids = [(c.start, c.end) for c in self.children.get(span.sid, ())]
        return (span.end - span.start) - _union_length(kids, span.start, span.end)

    def has_ancestor(self, span, names):
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name in names:
                return True
            p = self.by_id.get(p.parent)
        return False

    def outermost(self, *names):
        """Spans of these names that are not nested inside one another."""
        return [s for s in self.named(*names) if not self.has_ancestor(s, names)]

    def inclusive(self, *names):
        return sum(s.end - s.start for s in self.outermost(*names))


ROOT_FINDERS = ("determinant.find_eigenvalue_rank_one",
                "determinant.find_eigenvalues_es")
DELTAS = ("determinant.delta_rank_one", "determinant.delta_es")


def layer_metrics(spans):
    """Every per-layer metric that spans can give (names without units)."""
    ix = SpanIndex(spans)
    resolvent = ix.named("torus_quad.integrate_resolvent")
    finders = ix.named(*ROOT_FINDERS)
    roots = sum((s.extra or {}).get("roots", 0) for s in finders)
    deltas = ix.named(*DELTAS)
    root_resolvent = sum(1 for s in resolvent if ix.has_ancestor(s, ROOT_FINDERS))
    root_deltas = sum(1 for s in deltas if ix.has_ancestor(s, ROOT_FINDERS))

    grids = ix.named("spectrum.phase_diagram")
    cells = [c for g in grids for c in ix.children.get(g.sid, ())
             if c.name == "spectrum.solve"]
    grid_capacity = sum((g.end - g.start) * (g.extra or {}).get("threads", 1)
                        for g in grids)
    eig = ix.named("lattice_oracle.eigen_pairs")

    def per_root(n):
        return n / roots if roots else 0.0

    return {
        "torus_quad.resolvent_calls": len(resolvent),
        "torus_quad.resolvent_s": sum(s.end - s.start for s in resolvent),
        "torus_quad.resolvent_per_root": per_root(root_resolvent),
        "torus_quad.threshold_calls": len(ix.named("torus_quad.integrate_threshold")),
        "torus_quad.threshold_self_s": sum(
            ix.self_time(s) for s in ix.named("torus_quad.integrate_threshold")),
        "determinant.delta_calls": len(deltas),
        "determinant.roots": roots,
        "determinant.delta_per_root": per_root(root_deltas),
        "determinant.root_self_s": sum(ix.self_time(s) for s in finders),
        "thresholds.constants_s": ix.inclusive("thresholds.gammas",
                                               "thresholds.es_constants"),
        "spectrum.solve_self_s": sum(ix.self_time(s)
                                     for s in ix.named("spectrum.solve")),
        "spectrum.phase_cells": len(cells),
        "spectrum.phase_busy_frac": (sum(c.end - c.start for c in cells)
                                     / grid_capacity if grid_capacity else 0.0),
        "dispersion.validate_s": ix.inclusive("dispersion.validate_hypothesis"),
        "dispersion.morse_s": ix.inclusive("dispersion.morse_data"),
        "asymptotics.leading_s": ix.inclusive("asymptotics.leading_coefficients"),
        "lattice_oracle.build_s": ix.inclusive("lattice_oracle.build"),
        "lattice_oracle.dense_s": sum(s.end - s.start for s in eig
                                      if s.extra["path"] == "dense"),
        "lattice_oracle.lanczos_s": sum(s.end - s.start for s in eig
                                        if s.extra["path"] == "lanczos"),
        "lattice_oracle.matvecs": sum(s.extra["matvecs"] for s in eig),
        "lattice_oracle.attribution_self_s": sum(
            ix.self_time(s) for s in ix.named("lattice_oracle.sector_count_above")),
        "lattice_oracle.extrapolate_s": ix.inclusive("lattice_oracle.extrapolate"),
    }
