"""The names perfbench/tracing.py binds must exist in the package.

``perfbench/run.py --trace 1`` wraps every function in ``LAYER_API`` and
reads ``lattice_oracle.DENSE_LIMIT`` and ``TruncatedHamiltonian.operator``;
an API removal that breaks it fails here instead of in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lattice_spectra import spectrum
from test_lattice_oracle import NEXT_NEAREST

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_names_exist():
    tracing = _load_tracing()
    missing = [f"{layer}.{name}"
               for layer, names in tracing.LAYER_API.items()
               for name in names
               if not hasattr(importlib.import_module(f"{tracing.PACKAGE}.{layer}"),
                              name)]
    assert missing == []
    oracle = importlib.import_module(f"{tracing.PACKAGE}.lattice_oracle")
    assert isinstance(oracle.DENSE_LIMIT, int)
    assert callable(oracle.TruncatedHamiltonian.operator)
    assert hasattr(oracle.SectorCounts, "ambiguous")


def test_cached_layers_expose_the_cache_hooks():
    # run.py's Caches clears these between set-ups and reads their misses
    for layer, name in (("thresholds", "gammas"),
                        ("thresholds", "es_constants"),
                        ("dispersion", "morse_data"),
                        ("torus_quad", "_far_grids")):
        fn = getattr(importlib.import_module(f"lattice_spectra.{layer}"), name)
        assert callable(fn.cache_clear) and callable(fn.cache_info), name


def test_sector_count_accepts_the_workload_k(lap):
    # the oracle-box workload and the selftest still pass k=10
    oracle = importlib.import_module("lattice_spectra.lattice_oracle")
    h = oracle.build(lap, 6, a=1.0, b=3.0, mu=1.0)
    sc = oracle.sector_count_above(h, 4.0, 5e-3, k=10)
    assert isinstance(sc, oracle.SectorCounts)
    assert sc.ambiguous is False


def test_phase_diagram_accepts_the_workload_threads(lap):
    # coupling-scan still passes threads=2, and the tracer reads it before
    # each diagram runs
    grid = [-1.0, 1.0]
    plain = spectrum.phase_diagram(lap, 2.0, grid, grid, threads=2)
    tracing = _load_tracing()
    tracer = tracing.Tracer({layer: importlib.import_module(f"{tracing.PACKAGE}.{layer}")
                             for layer in tracing.LAYER_API})
    tracer.install()
    try:
        traced = spectrum.phase_diagram(lap, 2.0, grid, grid, threads=2)
    finally:
        tracer.uninstall()
    assert traced.cells == plain.cells
    assert [s.extra for s in tracer.spans
            if s.name == "spectrum.phase_diagram"] == [{"threads": 2}]


def test_traced_box_counts_match_untraced():
    tracing = _load_tracing()
    modules = {layer: importlib.import_module(f"{tracing.PACKAGE}.{layer}")
               for layer in tracing.LAYER_API}
    oracle = modules["lattice_oracle"]
    # off-axis hopping, so the box takes its sector blocks and Lanczos
    h = oracle.build(NEXT_NEAREST, 20, a=1.0, b=3.0, mu=1.0)
    e_max = float(NEXT_NEAREST.e_max)
    plain = oracle.sector_count_above(h, e_max, 5e-3, k=10)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        traced = oracle.sector_count_above(h, e_max, 5e-3, k=10)
    finally:
        tracer.uninstall()
    for s in ("os", "oa", "ea", "es"):
        # os and oa are degenerate here, so compare sector by sector
        assert getattr(traced, s) == getattr(plain, s)
        assert (sorted(v for v, t in traced.entries if t == s)
                == pytest.approx(sorted(v for v, t in plain.entries if t == s),
                                 abs=1e-12))
    # the blocks are formed from the box's own matrix, not from the traced
    # operator, so their eigensolves count no matvecs
    spans = [s for s in tracer.spans if s.name == "lattice_oracle.eigen_pairs"]
    assert len(spans) == 4
