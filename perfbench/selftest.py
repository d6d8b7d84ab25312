#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

  1. every workload, run at minimal size with ``--trace 0`` and ``--trace 1``,
     prints every metric named in BENCHMARK.json with its unit, and passes
     its own correctness gate;
  2. each gate rejects a deliberately wrong reference;
  3. the seed changes the inputs, and the same seed repeats them;
  4. the anchors hold: 64 resolvent integrals in a warm
     ``solve(lap, 1, 3, 1)`` (exact); it also prints the cold
     ``gammas(lap)`` time (about 1.4 s on a 2-core x86 box) and the
     Lanczos matvecs of the L = 60 box (about 1200, varies with the random
     start vector).

Exits 0 when all checks pass.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def check_metric_names(spec, failures):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--size", "min"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"{wl['name']} --trace {trace}"
            print(f"  {label}: exit {proc.returncode} in "
                  f"{time.perf_counter() - t0:.1f} s")
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"]:
                failures.append(f"{label}: gate failed at minimal size")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            for k, v in out["metrics"].items():
                if not (isinstance(v["value"], (int, float))
                        and math.isfinite(v["value"])):
                    failures.append(f"{label}: {k} = {v['value']!r}")


def fake_result(records):
    """A SpectrumResult look-alike from (sector, energy, multiplicity)."""
    recs = [SimpleNamespace(sector=s, energy=e, multiplicity=m) for s, e, m in records]

    def sector_counts():
        out = dict.fromkeys(("os", "oa", "ea", "es"), 0)
        for r in recs:
            out[r.sector] += r.multiplicity
        return out
    return SimpleNamespace(records=recs, sector_counts=sector_counts)


def check_gates(lib, workloads, failures):
    """Each gate passes a matching answer and rejects a wrong reference."""
    import numpy as np

    w = workloads
    rng = np.random.default_rng(0)

    def expect(name, problems_ok, problems_bad):
        if problems_ok:
            failures.append(f"gate {name}: rejected a correct answer: {problems_ok}")
        if not problems_bad:
            failures.append(f"gate {name}: accepted a wrong reference")
        print(f"  gate {name}: {'ok' if not problems_ok and problems_bad else 'BROKEN'}")

    sweep = w.SpectrumSweep(lib, None, rng)
    frozen = fake_result([("os", w.E_OS_B3_MU1, 1), ("oa", w.E_OS_B3_MU1, 1),
                          ("ea", w.E_EA_B3_MU1, 1), ("es", 5.7, 1)])
    ok = sweep.check_frozen(1.0, 3.0, 1.0, frozen)
    saved = w.E_OS_B3_MU1
    w.E_OS_B3_MU1 = saved + 1e-8
    bad = sweep.check_frozen(1.0, 3.0, 1.0, frozen)
    w.E_OS_B3_MU1 = saved
    expect("frozen roots", ok, bad)

    def table_lib(table):
        return SimpleNamespace(spectrum=SimpleNamespace(
            predicted_sector_counts=lambda *args: table))

    table = {"os": 1, "oa": 1, "ea": 1, "es": 1, "total": 4}
    sweep.lib = table_lib(table)
    ok = sweep.check_counts(None, 1.0, 3.0, 1.0, frozen)
    sweep.lib = table_lib(dict(table, es=2, total=5))
    bad = sweep.check_counts(None, 1.0, 3.0, 1.0, frozen)
    expect("sector counts", ok, bad)

    g = SimpleNamespace(gamma_os=w.GAMMA_OS, gamma_oa=w.GAMMA_OS,
                        gamma_ea=w.GAMMA_EA, gamma_es=w.GAMMA_ES)
    ok = sweep.check_gammas_lap(g)
    saved = w.GAMMA_EA
    w.GAMMA_EA = saved * (1 + 1e-5)
    bad = sweep.check_gammas_lap(g)
    w.GAMMA_EA = saved
    expect("closed-form constants", ok, bad)

    box = SimpleNamespace(os=1, oa=1, ea=1, es=1, ambiguous=False)
    oracle = w.OracleBox.__new__(w.OracleBox)
    oracle.acc = w.Accuracy()
    oracle.ls = w.ORACLE_LS
    oracle.ref_counts = {"os": 1, "oa": 1, "ea": 1, "es": 1}
    energies = [5.7, 5.25, 5.25, 5.08]
    oracle.ref_energies = energies
    ok = oracle._sequence_check(([box] * 3, energies))
    oracle.ref_energies = [energies[0] + 2e-6] + energies[1:]
    bad = oracle._sequence_check(([box] * 3, energies))
    expect("oracle energies", ok, bad)

    oracle.z0 = 1.5
    pair = SimpleNamespace(entries=((1.5 - 1e-8, "es"), (1.5 - 5e-8, "es"),
                                    (1.49, "ea")))
    ok = oracle._mult2_check(pair)
    oracle.z0 = 1.5 + 5e-3
    bad = oracle._mult2_check(pair)
    expect("criterion-9 pair", ok, bad)

    scan = w.CouplingScan(lib, None, rng)
    scan.models = {"laplacian": lib.dispersion.DiscreteLaplacian(),
                   "stepped:0.5": lib.dispersion.SteppedPhiA(a_param=0.5)}
    op = scan._curve_op("laplacian", "os", 1.0, 1.0, (1.5, 2.0, 2.5))
    curve = SimpleNamespace(strictly_increasing=True, min_second_difference=1e-3,
                            energies=(4.1, 4.3, 4.6))
    ok = op.check(curve)
    bad = op.check(SimpleNamespace(strictly_increasing=True,
                                   min_second_difference=-1e-6,
                                   energies=(4.1, 4.4, 4.6)))
    expect("curve convexity", ok, bad)


def check_seeds(lib, workloads, failures):
    import numpy as np

    def inputs(cls, seed):
        wl = cls(lib, None, np.random.default_rng(seed))
        if cls is workloads.SpectrumSweep:
            wl.model = lib.dispersion.DiscreteLaplacian()
        if cls is workloads.CouplingScan:
            wl.models = {"laplacian": lib.dispersion.DiscreteLaplacian(),
                         "stepped:0.5": lib.dispersion.SteppedPhiA(a_param=0.5)}
        if cls is workloads.ModelConstants:
            wl.setup()
        if cls is workloads.OracleBox:
            wl.lap = lib.dispersion.DiscreteLaplacian()
            wl.mult2 = SimpleNamespace(a0=1.0, b0=1.0)
            wl.mult2_model = None
        ops = wl.cycle() + wl.cycle()
        return [repr(op.inputs) for op in ops]

    for cls in workloads.WORKLOADS.values():
        same = inputs(cls, 1) == inputs(cls, 1)
        differ = inputs(cls, 1) != inputs(cls, 2)
        print(f"  seeds {cls.name}: same seed repeats {same}, "
              f"new seed changes inputs {differ}")
        if not (same and differ):
            failures.append(f"{cls.name}: seed does not control the inputs")


def check_anchors(lib, failures):
    import tracing

    lap = lib.dispersion.DiscreteLaplacian()
    t0 = time.perf_counter()
    lib.thresholds.gammas(lap)
    print(f"  anchor: cold gammas(lap) {time.perf_counter() - t0:.3f} s")
    tracer = tracing.Tracer({k: getattr(lib, k) for k in tracing.LAYER_API})
    lib.spectrum.solve(lap, 1.0, 3.0, 1.0)                  # warm the caches
    tracer.install()
    try:
        lib.spectrum.solve(lap, 1.0, 3.0, 1.0)
        n = sum(1 for s in tracer.spans if s.name == "torus_quad.integrate_resolvent")
        tracer.reset()
        h = lib.lattice_oracle.build(lap, 60, a=1.0, b=3.0, mu=1.0)
        lib.lattice_oracle.sector_count_above(h, 4.0, 5e-3, k=10)
        matvecs = sum(s.extra["matvecs"] for s in tracer.spans
                      if s.name == "lattice_oracle.eigen_pairs")
    finally:
        tracer.uninstall()
    print(f"  anchor: warm solve(lap, 1, 3, 1) makes {n} resolvent integrals")
    print(f"  anchor: L = 60 box, {matvecs} Lanczos matvecs")
    if n != 64:
        failures.append(f"warm solve(lap, 1, 3, 1) made {n} integrals, not 64")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run  # noqa: F401  (pins BLAS threads before numpy loads)
    import workloads
    from lattice_spectra import (asymptotics, determinant, dispersion,
                                 lattice_oracle, spectrum, thresholds,
                                 torus_quad)
    lib = SimpleNamespace(asymptotics=asymptotics,
                          determinant=determinant, dispersion=dispersion,
                          lattice_oracle=lattice_oracle, spectrum=spectrum,
                          thresholds=thresholds, torus_quad=torus_quad)
    failures = []
    spec = load_spec()
    print("metric names and units:")
    check_metric_names(spec, failures)
    print("gates:")
    check_gates(lib, workloads, failures)
    print("seeds:")
    check_seeds(lib, workloads, failures)
    print("anchors:")
    check_anchors(lib, failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
