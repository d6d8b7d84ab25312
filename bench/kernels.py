#!/usr/bin/env python3
"""Timings of the torus-quadrature kernels and of the solves built on them.

    python3 bench/kernels.py OUT.json [--src DIR] [--label NAME]

Measures the package in DIR (default: this checkout's src/) and stores the
record under NAME (default: "change") in OUT.json, keeping any other records
there, so that one file holds a parent checkout and a change side by side.
A record holds:

  * nodes: per model of NODE_MODELS (one per kind, and the t = 0.1
    diagonal-hop table, which is not even per coordinate) the node counts
    of its fine and coarse far levels and of its near set, and the order
    of the symmetry group they fold onto (4 where the package names none);
  * far_sum_ms: ms per one-weight far-field sum (torus_quad._far_values)
    of w_os_sq on the fine and coarse levels of the Laplacian and
    stepped:0.5, at k = 1 and 2, with the levels' node counts;
  * wrap_torus_us: us per dispersion.wrap_torus call on a near-field polar
    patch of 4096 and 8192 nodes;
  * integral_ms: ms per warm kernel call torus_quad._integrate at k = 1 on
    the Laplacian and stepped:0.5, for one weight (w_os_sq) and for the es
    stack (sectors.ES_WEIGHTS), at each alpha of ALPHAS; null where the
    stack is not integrable (es_one at alpha = 0);
  * cold: a cold gammas(laplacian) with every node set cleared, seconds
    and counts, and ms to build the near-field rule's node set at
    delta = 0.5 with the Laplacian's deficit and the four gammas weights
    on it; and for each model of COLD_MODELS, on each of its far levels
    the node count, ms per level build, per deficit fill and per fill of
    each of the seven sector weights, then a cold gammas (seconds and
    counts); and for the Laplacian and each model of COLD_MODELS a cold
    dispersion.morse_data and a cold validate_hypothesis, morse_data's
    cache cleared before each (seconds over MORSE_REPEATS runs, and the
    calls of the model's values in one run);
  * probe_ms: ms per thresholds.resonance_integrability_probe in the os
    and ea sectors on the Laplacian and stepped:0.5, cold (every node set
    cleared first) and warm (after a first probe);
  * solve: a warm solve(laplacian, 1, 3, 1) and solve(stepped:0.5, 1, 1, 3),
    and a warm find_eigenvalues_es(laplacian, 1, 1, 3), seconds and counts,
    and per root found: integrals and seconds;
  * phase_diagram: a warm 5x5 phase_diagram at mu = 2 over a, b in
    PHASE_GRID on both models, seconds and counts;
  * sweep: two cycles of perfbench's spectrum-sweep inputs at seed 1 (20
    warm Laplacian solves), seconds, counts, roots and integrals and far
    passes per root (every search point is one far pass);
  * proxy: per model of PROXY_MODELS the build of the root search's
    Chebyshev table (determinant._proxies, node arrays warm), the block
    pass over the table's alphas (torus_quad._integrate_block) and the loop
    of one-alpha slopes calls over the same alphas, ms each over REPEATS
    runs (null where the package has no table or block pass); a warm
    8-point eigenvalue_curve in os on the Laplacian and stepped:0.5
    (CURVES), seconds and counts; and a cold solve(laplacian, 1, 3, 1)
    with every node set and constant cleared, seconds and counts;
  * oracle: the finite-box oracle's (1, 3, 1) Laplacian boxes at
    ORACLE_LS (build and sector_count_above each, then extrapolate) and
    the criterion-9 box at L = 80 for the multiplicity-two construction at
    z0 = 1.5; seconds over ORACLE_REPEATS runs, the box builds' seconds,
    the roots, and the resolvent evaluations G(E) of the secular equation
    per root (null where the package has no secular path); and the
    (1, 3, 1) boxes of each table of TABLE_MODELS (the t = 0.1 diagonal-hop
    table and the Laplacian's own five entries) at TABLE_LS, each timed
    over ORACLE_REPEATS runs of forming its four sector blocks and of
    sector_count_above (a package whose build still takes a hopping cutoff
    R builds them with R = 1);
  * import: seconds of `import lattice_spectra, lattice_spectra.cli` in
    each of IMPORT_REPEATS fresh interpreters (numpy's import included),
    their median, and the scipy modules that import leaves loaded: their
    number and the subpackages (scipy.optimize, ...) they belong to;
  * the git revision and src tree hash of DIR, the machine's core count,
    the lines of DIR/lattice_spectra/*.py and the number of names that
    lattice_spectra/__init__.py re-exports.

The counts of a run are its integrals (one per weight), its node-array
fills (each evaluates a deficit or a weight on a node set: a miss in a
cached map of torus_quad._NodeSet) and its far passes (each forms one far
level's reciprocal row).  They are counted on the private kernels of
torus_quad.

Times are medians over REPEATS runs (MORSE_REPEATS for the cold
morse_data and validate_hypothesis rows, whose 10-20 ms spread widely over
3), with every run listed.  BLAS and OpenMP
are pinned to one thread, as in perfbench/run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is first imported

import argparse                     # noqa: E402
import ast                          # noqa: E402
import inspect                      # noqa: E402
import json                         # noqa: E402
import statistics                   # noqa: E402
import subprocess                   # noqa: E402
import sys                          # noqa: E402
import time                         # noqa: E402
from pathlib import Path            # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3                   # runs of each solve and grid
MORSE_REPEATS = 15            # runs of each cold morse_data and validation
KERNEL_REPEATS = 7            # batches of each kernel timing
PHASE_GRID = (-2.0, -1.0, 1.0, 2.0, 3.0)
PHASE_MU = 2.0
SOLVES = {"laplacian": (1.0, 3.0, 1.0), "stepped:0.5": (1.0, 1.0, 3.0)}
SWEEP_SEED, SWEEP_CYCLES = 1, 2
ORACLE_LS, ORACLE_COUPLING, ORACLE_MARGIN = (30, 45, 60), (1.0, 3.0, 1.0), 5e-3
MULT2_Z0, MULT2_L, MULT2_MARGIN = 1.5, 80, 1e-2
ORACLE_REPEATS = 7
IMPORT_REPEATS = 7            # fresh interpreters timing the package import
TABLE_MODELS, TABLE_LS = ("diagonal-hop:0.1", "laplacian-table"), (40, 60)
ALPHAS = (0.0, 1e-13, 1e-6, 1.0, 20.0)
COLD_MODELS = ("stepped:0.5", "piecewise:0.5", "next-nearest:0.1")
NODE_MODELS = ("laplacian", *COLD_MODELS, "diagonal-hop:0.1")
COUNTERS = ("integrals", "fills", "far_passes")
PROXY_MODELS = ("laplacian", "stepped:0.5", "diagonal-hop:0.1")
CURVES = {"laplacian": (1.5, 3.0), "stepped:0.5": (0.9, 1.5)}   # os, b = 1
# torus_quad function -> (counter, its increment per call)
COUNTED = {"_near_values": ("integrals", lambda args: len(args[2])),
           "_far_values": ("far_passes", lambda args: 1)}


def _run_times(run, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return times


def _per_call(run, calls):
    times = _run_times(lambda: [run() for _ in range(calls)], KERNEL_REPEATS)
    return statistics.median(times) / calls


def _git(src, *args):
    try:
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


IMPORT_TIMER = """import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import lattice_spectra, lattice_spectra.cli
seconds = time.perf_counter() - start
print(json.dumps([seconds, [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
"""


def _import_row(src):
    """The import's seconds in fresh interpreters and the scipy it loads."""
    runs = [json.loads(subprocess.run(
                [sys.executable, "-c", IMPORT_TIMER, str(src)], check=True,
                capture_output=True, text=True).stdout)
            for _ in range(IMPORT_REPEATS)]
    times, scipy = [t for t, _ in runs], runs[-1][1]
    return {"median_s": statistics.median(times), "runs_s": times,
            "scipy_modules": len(scipy),
            "scipy_packages": sorted({".".join(m.split(".")[:2]) for m in scipy})}


def _surface(package):
    """(lines of the package's modules, names its __init__ re-exports)."""
    lines = sum(len(path.read_text().splitlines())
                for path in package.glob("*.py"))
    tree = ast.parse((package / "__init__.py").read_text())
    names = sum(len(node.names) for node in tree.body
                if isinstance(node, ast.ImportFrom))
    return lines, names


def _model(dispersion, name):
    kind, _, param = name.partition(":")
    if kind == "laplacian":
        return dispersion.DiscreteLaplacian()
    if kind == "stepped":
        return dispersion.SteppedPhiA(a_param=float(param))
    nearest = ((0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5))
    if kind == "laplacian-table":   # the Laplacian's own five entries
        return dispersion.ExponentialHopping(table=nearest)
    if kind == "diagonal-hop":   # the Laplacian plus ehat(+-(1, 1)) = t
        t = float(param)
        return dispersion.ExponentialHopping(table=nearest + ((1, 1, t), (-1, -1, t)))
    if kind == "next-nearest":   # perfbench's table: nearest -1/2, diagonals -t2/2
        d = -float(param) / 2
        return dispersion.ExponentialHopping(table=nearest + (
            (1, 1, d), (-1, -1, d), (1, -1, d), (-1, 1, d)))
    return dispersion.PiecewisePhi(eps=float(param))


def _node_sets(torus_quad, model):
    """The model's (fine, coarse, near) node sets at its default spec: by
    torus_quad._node_sets, which keys them by the model's symmetry group,
    or on a package without it by (grid_n, patch_radius, breakpoints)."""
    spec = torus_quad.default_spec(model)
    if hasattr(torus_quad, "_node_sets"):
        return torus_quad._node_sets(model, spec)
    return torus_quad._far_grids(spec.grid_n, spec.patch_radius, model.breakpoints)


def _cold_row(model, timed_with_count):
    """The cold path of one model: its far levels' build, the deficit and
    weight fills on them, a cold gammas, and the cold dispersion checks."""
    from lattice_spectra import sectors, thresholds, torus_quad

    axes = []                       # the arguments of each far level

    class Recorded(torus_quad._FarLevel):
        def __init__(self, *args):
            axes.append(args)
            super().__init__(*args)

    real, cached = torus_quad._FarLevel, torus_quad._far_grids
    torus_quad._FarLevel, torus_quad._far_grids = Recorded, cached.__wrapped__
    try:
        _node_sets(torus_quad, model)
    finally:
        torus_quad._FarLevel, torus_quad._far_grids = real, cached

    weights = (sectors.w_os_sq, sectors.w_oa_sq, sectors.w_ea_sq,
               sectors.es_plus_sq, *sectors.ES_WEIGHTS)
    levels = {}
    for level_name, args in zip(("fine", "coarse"), axes):
        level = real(*args)

        def fill(compute, cache):
            def run():
                cache.clear()
                compute()
            return 1e3 * _per_call(run, 3)

        levels[level_name] = {
            "nodes": int(level.w.size),
            "build_ms": 1e3 * _per_call(lambda: real(*args), 3),
            "deficit_ms": fill(lambda: level.deficit(model), level.deficits),
            "fill_ms": {v.__name__: fill(lambda v=v: level.weighted(v),
                                         level.vcache)
                        for v in weights}}

    def cold_gammas():
        torus_quad._far_grids.cache_clear()
        thresholds.gammas.cache_clear()
        return thresholds.gammas(model)

    row = {"levels": levels, "gammas": timed_with_count(cold_gammas),
           **_cold_dispersion(model)}
    torus_quad._far_grids.cache_clear()
    return row


def _cold_dispersion(model):
    """A cold dispersion.morse_data and a cold validate_hypothesis, each
    run with morse_data's cache cleared: seconds over MORSE_REPEATS runs,
    and the calls of the model's values in one run."""
    from lattice_spectra import dispersion

    calls = []
    values = type(model).values

    def counted(self, *args):
        calls.append(None)
        return values(self, *args)

    rows = {}
    for name in ("morse_data", "validate_hypothesis"):
        def cold(check=getattr(dispersion, name)):
            dispersion.morse_data.cache_clear()
            calls.clear()
            type(model).values = counted
            try:
                return check(model)
            finally:
                type(model).values = values

        runs = _run_times(cold, MORSE_REPEATS)
        rows[name] = {"median_s": statistics.median(runs), "runs_s": runs,
                      "values_calls": len(calls)}
    return rows


def _oracle_rows(lattice_oracle, spectrum, dispersion):
    """The oracle's box sequence and criterion-9 box, with the secular
    equation's resolvent evaluations counted where the package has one."""
    lo = lattice_oracle
    secular = getattr(lo, "_secular_matrix", None)
    evaluations = []

    def counted(*args):
        evaluations.append(None)
        return secular(*args)

    lap = dispersion.DiscreteLaplacian()
    c = spectrum.multiplicity_two_construct(MULT2_Z0, mu=1.0)
    stepped = dispersion.SteppedPhiA(a_param=c.A0)

    def sequence():
        """(roots, build seconds) of the box sequence and its limits."""
        a, b, mu = ORACLE_COUPLING
        start = time.perf_counter()
        hs = [lo.build(lap, L, a=a, b=b, mu=mu) for L in ORACLE_LS]
        build_s = time.perf_counter() - start
        boxes = [lo.sector_count_above(h, 4.0, ORACLE_MARGIN) for h in hs]
        for j in range(min(box.total for box in boxes)):
            lo.extrapolate(ORACLE_LS, [box.entries[j][0] for box in boxes])
        return sum(box.total for box in boxes), build_s

    def mult2_box():
        start = time.perf_counter()
        h = lo.build(stepped, MULT2_L, a=c.a0, b=c.b0, mu=1.0)
        build_s = time.perf_counter() - start
        return lo.sector_count_above(h, 1.0, MULT2_MARGIN).total, build_s

    def row(run):
        run()                                   # warm numpy and scipy
        evaluations.clear()
        times, build_times = [], []
        for _ in range(ORACLE_REPEATS):
            start = time.perf_counter()
            roots, build_s = run()
            times.append(time.perf_counter() - start)
            build_times.append(build_s)
        return {"median_s": statistics.median(times), "runs_s": times,
                "build_median_s": statistics.median(build_times),
                "roots": roots,
                "resolvent_per_root": (len(evaluations) / (ORACLE_REPEATS * roots)
                                       if secular is not None and roots else None)}

    if secular is not None:
        lo._secular_matrix = counted
    try:
        rows = {f"sequence L={ORACLE_LS} {ORACLE_COUPLING}": row(sequence),
                f"criterion-9 L={MULT2_L} z0={MULT2_Z0}": row(mult2_box)}
    finally:
        if secular is not None:
            lo._secular_matrix = secular
    return {**rows, **_table_rows(lo, dispersion)}


def _table_rows(lo, dispersion):
    """The sector blocks and the count of the table boxes at TABLE_LS."""
    cutoff = {"R": 1} if "R" in inspect.signature(lo.build).parameters else {}
    a, b, mu = ORACLE_COUPLING
    rows = {}
    for name in TABLE_MODELS:
        model = _model(dispersion, name)
        for L in TABLE_LS:
            h = lo.build(model, L, a=a, b=b, mu=mu, **cutoff)

            def blocks():
                return [h.sector_block(s).operator() for s in ("os", "oa", "ea", "es")]

            def count():
                return lo.sector_count_above(h, float(model.e_max), ORACLE_MARGIN)

            blocks()                            # warm numpy and scipy
            roots = count().total
            block_runs = _run_times(blocks, ORACLE_REPEATS)
            count_runs = _run_times(count, ORACLE_REPEATS)
            rows[f"table {name} L={L} {ORACLE_COUPLING}"] = {
                "blocks_median_s": statistics.median(block_runs),
                "blocks_runs_s": block_runs,
                "count_median_s": statistics.median(count_runs),
                "count_runs_s": count_runs, "roots": roots}
    return rows


def measure(src):
    import_row = _import_row(src)
    sys.path.insert(0, str(src))
    import numpy as np

    from lattice_spectra import (determinant, dispersion, lattice_oracle,
                                 sectors, spectrum, thresholds, torus_quad)
    from lattice_spectra.dispersion import PI, wrap_torus

    models = {name: _model(dispersion, name)
              for name in ("laplacian", "stepped:0.5")}
    counts = dict.fromkeys(COUNTERS, 0)

    def count(key, n):
        counts[key] += n

    for name, (counter, increment) in COUNTED.items():
        def counted(*args, _fn=getattr(torus_quad, name), _key=counter,
                    _n=increment, **kwargs):
            count(_key, _n(args))
            return _fn(*args, **kwargs)

        setattr(torus_quad, name, counted)
    cached = torus_quad._NodeSet._cached

    def filling(self, cache, key, kept, compute):
        def fill():
            count("fills", 1)
            return compute()
        return cached(self, cache, key, kept, fill)

    torus_quad._NodeSet._cached = filling

    def counted_run(run):
        counts.update(dict.fromkeys(counts, 0))
        start = time.perf_counter()
        result = run()
        return time.perf_counter() - start, dict(counts), result

    def timed_with_count(run, roots=None):
        """Seconds and counts of a warm run; with roots (the number of
        roots in the run's result), also integrals and seconds per root."""
        run()                                   # warm the caches
        times = []
        for _ in range(REPEATS):
            dt, tally, result = counted_run(run)
            times.append(dt)
        row = {"median_s": statistics.median(times), "runs_s": times, **tally}
        if roots is not None:
            n = roots(result)
            row.update(roots=n, integrals_per_root=tally["integrals"] / n,
                       seconds_per_root=row["median_s"] / n)
        return row

    node_counts = {}
    for name in NODE_MODELS:
        sets = _node_sets(torus_quad, _model(dispersion, name))
        sizes = dict(zip(("fine", "coarse", "near"), (int(s.w.size) for s in sets)))
        node_counts[name] = {**sizes, "order": getattr(sets[0], "order", 4)}
    torus_quad._far_grids.cache_clear()

    far = {}
    for name, model in models.items():
        levels = _node_sets(torus_quad, model)
        for level_name, level in zip(("fine", "coarse"), levels):
            for k in (1, 2):
                def far_sum():
                    return torus_quad._far_values(level, model,
                                                  (sectors.w_os_sq,), 1e-3, k)
                far_sum()
                calls = 20 if level.w.size > 500_000 else 100
                far[f"{name}/{level_name}/k={k}"] = {
                    "nodes": int(level.w.size),
                    "ms": 1e3 * _per_call(far_sum, calls)}

    wrap = {}
    theta = np.arange(32) * (2 * PI / 32)
    for nodes in (4096, 8192):
        r = np.linspace(0.0, 0.5, nodes // 32)
        t = PI + r[:, None] * np.cos(theta)[None, :]
        wrap[str(nodes)] = 1e6 * _per_call(lambda: wrap_torus(t), 200)

    integral = {}
    for name, model in models.items():
        for stack, vs in (("one", (sectors.w_os_sq,)), ("es", sectors.ES_WEIGHTS)):
            for alpha in ALPHAS:
                def run(m=model, vs=vs, alpha=alpha):
                    return torus_quad._integrate(m, vs, alpha, 1)
                try:
                    run()
                except torus_quad.NotIntegrable:
                    ms = None
                else:
                    ms = 1e3 * _per_call(run, 5 if name == "stepped:0.5" else 50)
                integral[f"{name}/{stack}/alpha={alpha:g}"] = ms

    lap = models["laplacian"]

    def cold_gammas():
        torus_quad._far_grids.cache_clear()
        thresholds.gammas.cache_clear()
        return thresholds.gammas(lap)

    cold = {"gammas laplacian": timed_with_count(cold_gammas)}
    gamma_weights = (sectors.w_os_sq, sectors.w_oa_sq, sectors.w_ea_sq,
                     sectors.es_plus_sq)

    lap_near = _node_sets(torus_quad, lap)[2]   # a package with groups takes its order
    near_args = (0.5, lap_near.order) if hasattr(lap_near, "order") else (0.5,)

    def near_build():
        near = torus_quad._NearSet(*near_args)
        near.deficit(lap)
        return [near.weighted(v) for v in gamma_weights]

    cold["near_set_build_ms"] = 1e3 * _per_call(near_build, 10)
    cold["dispersion laplacian"] = _cold_dispersion(lap)
    for name in COLD_MODELS:
        cold[name] = _cold_row(_model(dispersion, name), timed_with_count)

    probe = {}
    for name, model in models.items():
        for sector in ("os", "ea"):
            def run(m=model, sector=sector):
                return thresholds.resonance_integrability_probe(m, sector)

            def cold_run(run=run):
                torus_quad._far_grids.cache_clear()
                return run()

            cold_runs = _run_times(cold_run, REPEATS)
            probe[f"{name}/{sector}"] = {
                "cold": 1e3 * statistics.median(cold_runs),
                "cold_runs": [1e3 * t for t in cold_runs],
                "warm": 1e3 * _per_call(run, 10)}
    torus_quad._far_grids.cache_clear()

    solves = {f"{name} {SOLVES[name]}": timed_with_count(
                  lambda m=model, c=SOLVES[name]: spectrum.solve(m, *c),
                  lambda result: len(result.records))
              for name, model in models.items()}
    solves["find_eigenvalues_es laplacian (1.0, 1.0, 3.0)"] = timed_with_count(
        lambda: determinant.find_eigenvalues_es(models["laplacian"], 1.0, 1.0, 3.0),
        len)

    grids = {name: timed_with_count(lambda m=model: spectrum.phase_diagram(
                 m, PHASE_MU, PHASE_GRID, PHASE_GRID))
             for name, model in models.items()}

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    lib = argparse.Namespace(dispersion=dispersion, spectrum=spectrum,
                             thresholds=thresholds)
    sweep = workloads.SpectrumSweep(lib, None, np.random.default_rng(SWEEP_SEED))
    sweep.setup()
    ops = [op for _ in range(SWEEP_CYCLES) for op in sweep.cycle()]
    ran = [counted_run(op.run) for op in ops]
    roots = sum(len(result.records) for _, _, result in ran)
    tally = {key: sum(t[key] for _, t, _ in ran) for key in COUNTERS}
    sweep_row = {"seed": SWEEP_SEED, "cycles": SWEEP_CYCLES, "solves": len(ops),
                 "seconds": sum(dt for dt, _, _ in ran), "roots": roots, **tally,
                 "integrals_per_root": tally["integrals"] / roots,
                 "far_passes_per_root": tally["far_passes"] / roots}

    def runs_ms(run):
        run()
        times = [1e3 * t for t in _run_times(run, REPEATS)]
        return {"median_ms": statistics.median(times), "runs_ms": times}

    proxy = {}
    for name in PROXY_MODELS:
        model = _model(dispersion, name)
        if not hasattr(determinant, "_proxies"):
            proxy[name] = None
            continue
        fine = _node_sets(torus_quad, model)[0]
        table = determinant._proxies(model, None)
        alphas = np.exp(table.s)

        def build(model=model, fine=fine):
            fine.tables.clear()
            return determinant._proxies(model, None)

        proxy[name] = {
            "weights": len(table.weights), "alphas": len(alphas),
            "table": runs_ms(build),
            "block_pass": runs_ms(lambda m=model, t=table, a=alphas:
                                  torus_quad._integrate_block(m, t.weights, a)),
            "alpha_loop": runs_ms(lambda m=model, t=table, a=alphas: [
                torus_quad._integrate(m, t.weights, float(al), 1, slopes=True)
                for al in a])}
    curves = {name: timed_with_count(lambda m=models[name], w=window: spectrum.eigenvalue_curve(
                  m, "os", 1.0, 1.0, np.linspace(*w, 8)))
              for name, window in CURVES.items()}

    def cold_solve():
        torus_quad._far_grids.cache_clear()
        thresholds.gammas.cache_clear()
        return spectrum.solve(lap, 1.0, 3.0, 1.0)

    proxy_row = {"models": proxy, "curves": curves,
                 "cold solve laplacian (1.0, 3.0, 1.0)": timed_with_count(cold_solve)}
    torus_quad._far_grids.cache_clear()

    src_lines, reexports = _surface(src / "lattice_spectra")
    return {"git_revision": _git(src, "rev-parse", "HEAD"),
            "src_tree": _git(src, "rev-parse", "HEAD:./"),
            "src_dirty": bool(_git(src, "status", "--porcelain", "--", ".")),
            "cpu_count": os.cpu_count(),
            "src_lines": src_lines, "reexports": reexports,
            "import": import_row, "nodes": node_counts, "far_sum_ms": far, "wrap_torus_us": wrap,
            "integral_ms": integral, "cold": cold, "probe_ms": probe,
            "solve": solves,
            "phase_diagram": {"mu": PHASE_MU, "a_grid": PHASE_GRID,
                              "b_grid": PHASE_GRID, "runs": grids},
            "sweep": sweep_row, "proxy": proxy_row,
            "oracle": _oracle_rows(lattice_oracle, spectrum, dispersion)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", default="change")
    args = parser.parse_args(argv)
    record = measure(args.src.resolve())
    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = record
    args.out.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
