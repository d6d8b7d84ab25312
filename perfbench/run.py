#!/usr/bin/env python3
"""Benchmark for lattice-spectra: one workload per invocation.

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/lattice_spectra``; the
package is imported from that source tree.  The run

  1. imports the package and sets up ``setup_reps`` times (caches cleared
     before each set-up), reporting import time plus the median set-up;
  2. runs as many whole input cycles of the workload as take ``--seconds``
     at the cycle's nominal time (``cycle_s``), timing every op and
     checking every answer;
  3. prints the end-to-end metrics (``--trace 0``) or, with spans recorded at
     every layer boundary, the per-layer metrics (``--trace 1``) as the last
     line of stdout, one JSON object.

BLAS and OpenMP are pinned to one thread in every run: the phase diagram's two
pool threads then use both cores of a 2-core box and no more.  At the default
two OpenBLAS threads the L = 60 box took 9.2-10.4 s against 1.4-1.8 s pinned.
"""

import os
import sys
import time

T_START = time.perf_counter()

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:       # before numpy is first imported
    os.environ[_var] = "1"

import argparse                     # noqa: E402
import json                         # noqa: E402
import math                         # noqa: E402
import resource                     # noqa: E402
import statistics                   # noqa: E402
from pathlib import Path            # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"

# a run starts no op past this many seconds since start, whatever --seconds
# says, so that it ends inside a 180 s limit (the last cycle is then partial)
HARD_STOP_S = 150.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("success_frac", "fraction"))

PER_LAYER = (
    ("torus_quad.resolvent_calls", "count"),
    ("torus_quad.resolvent_s", "s"),
    ("torus_quad.resolvent_per_root", "calls/root"),
    ("torus_quad.threshold_calls", "count"),
    ("torus_quad.threshold_self_s", "s"),
    ("determinant.delta_calls", "count"),
    ("determinant.roots", "count"),
    ("determinant.delta_per_root", "calls/root"),
    ("determinant.root_self_s", "s"),
    ("thresholds.gammas_misses", "count"),
    ("thresholds.es_constants_misses", "count"),
    ("thresholds.constants_s", "s"),
    ("spectrum.solve_self_s", "s"),
    ("spectrum.phase_cells", "count"),
    ("spectrum.phase_busy_frac", "fraction"),
    ("dispersion.validate_s", "s"),
    ("dispersion.morse_s", "s"),
    ("asymptotics.leading_s", "s"),
    ("lattice_oracle.build_s", "s"),
    ("lattice_oracle.dense_s", "s"),
    ("lattice_oracle.lanczos_s", "s"),
    ("lattice_oracle.matvecs", "count"),
    ("lattice_oracle.matvecs_spread", "fraction"),
    ("lattice_oracle.attribution_self_s", "s"),
    ("lattice_oracle.extrapolate_s", "s"),
    ("thresholds.gamma_max_rel_err", "rel"),
    ("determinant.frozen_root_max_dev", "energy"),
    ("lattice_oracle.energy_max_abs_dev", "energy"),
    ("trace_overhead_frac", "fraction"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "min"), default="full",
                   help="'min' shrinks every workload (self-test only)")
    return p.parse_args(argv)


class Caches:
    """The program's caches, cleared by set-up and by model-constants; keeps
    lru miss counts across clears (cache_clear resets them)."""

    def __init__(self, lib):
        self.fns = {"gammas": lib.thresholds.gammas,
                    "es_constants": lib.thresholds.es_constants,
                    "morse_data": lib.dispersion.morse_data,
                    "far_grids": lib.torus_quad._far_grids}
        self.earlier = dict.fromkeys(self.fns, 0)

    def clear(self):
        for key, fn in self.fns.items():
            self.earlier[key] += fn.cache_info().misses
            fn.cache_clear()

    def reset(self):
        self.clear()
        self.earlier = dict.fromkeys(self.fns, 0)

    def misses(self, key):
        return self.earlier[key] + self.fns[key].cache_info().misses


def percentile(values, q):
    """Linear-interpolation percentile (statistics' 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def workload_figures(name, records, cycles):
    """The figures each workload is built around, printed as a table and not
    scored: the scored metrics must exist on every workload."""
    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    out = {"failed_frac": (failed / len(records), "fraction")}
    per_unit = {}
    for r in ok:
        per_unit.setdefault(r["cls"], []).append(r["dt"] / r["units"])
    if not ok:
        return out
    if name == "spectrum-sweep":
        t = [r["dt"] for r in ok]
        out.update(solves_per_s=(len(t) / sum(t), "1/s"),
                   solve_p50_s=(percentile(t, 50), "s"),
                   solve_p80_s=(percentile(t, 80), "s"))
    elif name == "coupling-scan":
        curve = [x for cls, v in per_unit.items() if cls != "grid" for x in v]
        if curve:
            out["curve_point_s"] = (statistics.median(curve), "s")
        if "grid" in per_unit:
            out["grid_cell_s"] = (statistics.median(per_unit["grid"]), "s")
    elif name == "model-constants" and not failed:
        out["constants_s"] = (sum(r["dt"] for r in ok) / cycles, "s")
    elif name == "oracle-box" and "sequence" in per_unit:
        out["oracle_s"] = (statistics.median(per_unit["sequence"]), "s")
    return out


def run(args):
    if not (SRC / "lattice_spectra" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'lattice_spectra'} not found; run from the "
              "root of a lattice-spectra checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from lattice_spectra import (asymptotics, determinant, dispersion, errors,
                                 lattice_oracle, spectrum, thresholds, torus_quad)
    import_s = time.perf_counter() - T_START

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    lib = argparse.Namespace(
        asymptotics=asymptotics, determinant=determinant, dispersion=dispersion,
        lattice_oracle=lattice_oracle, spectrum=spectrum, thresholds=thresholds,
        torus_quad=torus_quad)
    caches = Caches(lib)
    wl = workloads.WORKLOADS[args.workload](lib, caches, np.random.default_rng(args.seed),
                                            size=args.size)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer({k: getattr(lib, k) for k in tracing.LAYER_API})
        tracer.install()

    # -- set-up, several times; spans and misses of the last one are kept
    setup_times = []
    for rep in range(wl.setup_reps if args.size == "full" else 1):
        caches.reset()
        wl.acc = workloads.Accuracy()
        if tracer:
            tracer.reset()
            tracer.op = "setup"
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = "setup-check"
        setup_problems = wl.setup_check()
    setup_s = import_s + statistics.median(setup_times)

    # -- timed loop: as many whole cycles as cover --seconds at the
    # workload's nominal cycle time.  The count is fixed, so that a slow
    # spell of the machine does not also cut the work a run measures.
    n_cycles = max(1, math.ceil(args.seconds / wl.cycle_s))
    records = []
    cycles = 0
    stopped = False
    while cycles < n_cycles and not stopped:
        for op in wl.cycle():
            if time.perf_counter() - T_START > HARD_STOP_S:
                stopped = True
                break
            n = len(records)
            if tracer:
                tracer.op = f"op-{n}"
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except errors.LatticeSpectraError as exc:
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.op = f"check-{n}"
            problems = [error] if error else op.check(result)
            print(f"# op {op.label}: {dt:.4f} s{' FAILED' if problems else ''}")
            for p in problems:
                print(f"# FAILED {op.label}: {p}")
            records.append({"cls": op.cls, "label": op.label, "dt": dt,
                            "units": op.units, "ok": not problems})
        else:
            cycles += 1
    if not records:
        print("perfbench: no op started inside the time limit", file=sys.stderr)
        return 1

    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and not setup_problems
    for p in setup_problems:
        print(f"# FAILED set-up: {p}")
    busy = sum(r["dt"] for r in records)
    units = sum(r["units"] for r in records)
    print(f"# workload {args.workload} seed {args.seed}: {len(records)} ops "
          f"({units} units) in {cycles} cycles, busy {busy:.2f} s; "
          f"BLAS threads pinned to 1 ({', '.join(BLAS_THREAD_VARS[:2])}=1)")
    figures = workload_figures(args.workload, records, max(cycles, 1))
    for key, (value, unit) in figures.items():
        print(f"# {key} = {value:.6g} {unit}")

    if not tracer:
        values = {
            "setup_s": setup_s,
            "ops_per_s": units / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_frac": 1.0 - failed / len(records),
        }
        units_of = dict(END_TO_END)
    else:
        values = traced_metrics(tracer, wl, caches, args)
        units_of = dict(PER_LAYER)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_of[k]}
                                  for k, v in values.items()}}))
    return 0


def traced_metrics(tracer, wl, caches, args):
    import tracing

    # the last set-up and the timed ops; not the checks
    values = tracing.layer_metrics([s for s in tracer.spans
                                    if s.op == "setup" or s.op.startswith("op-")])
    values["thresholds.gammas_misses"] = caches.misses("gammas")
    values["thresholds.es_constants_misses"] = caches.misses("es_constants")
    values["thresholds.gamma_max_rel_err"] = wl.acc.gamma_max_rel_err
    values["determinant.frozen_root_max_dev"] = wl.acc.frozen_root_max_dev
    values["lattice_oracle.energy_max_abs_dev"] = wl.acc.energy_max_abs_dev

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", T_START)

    # overhead: the workload's calibration call alternately without and with
    # spans, best of three each (interference only adds time); the traced
    # calls also give the Lanczos matvec spread
    fn = wl.calibration()
    tracer.reset()
    tracer.op = "calibration"
    plain, traced = [], []
    for i in range(3):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
            else:
                tracer.uninstall()
            t0 = time.perf_counter()
            fn()
            (traced if with_spans else plain).append(time.perf_counter() - t0)
    tracer.uninstall()
    values["trace_overhead_frac"] = min(traced) / min(plain) - 1.0
    mv = [s.extra["matvecs"] for s in tracer.spans
          if s.name == "lattice_oracle.eigen_pairs" and s.extra["path"] == "lanczos"]
    values["lattice_oracle.matvecs_spread"] = (
        (max(mv) - min(mv)) / statistics.median(mv) if mv else 0.0)
    return {name: values[name] for name, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
