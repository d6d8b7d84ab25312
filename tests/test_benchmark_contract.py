"""The names perfbench/tracing.py binds must exist in the package.

``perfbench/run.py --trace 1`` wraps every function in ``LAYER_API`` and
reads ``lattice_oracle.DENSE_LIMIT`` and ``TruncatedHamiltonian.operator``;
an API removal that breaks it fails here instead of in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

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
