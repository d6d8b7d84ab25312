"""The package loads numpy and no scipy module; scipy loads only on the
paths that use it: table boxes and Lanczos.  Each check runs in a fresh
interpreter, because this test process has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from lattice_spectra import lattice_oracle as lo
from test_dispersion import diagonal_hop_table
from test_spectrum import _assert_frozen_construction

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import json, sys
import lattice_spectra, lattice_spectra.cli
from lattice_spectra import dispersion, lattice_oracle as lo, spectrum, thresholds

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(body):
    """The JSON the last line of ``body`` prints, run after PRELUDE in a
    fresh interpreter on this checkout's src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", PRELUDE + body], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_torus_paths_load_no_scipy():
    loaded = _run("""
after_import = scipy_loaded()
lap, stepped = dispersion.DiscreteLaplacian(), dispersion.SteppedPhiA(a_param=0.5)
spectrum.solve(lap, 1.0, 3.0, 1.0)
spectrum.solve(stepped, 1.0, 1.0, 3.0)
for model in (lap, stepped):
    thresholds.gammas(model)
    thresholds.es_constants(model)
    dispersion.validate_hypothesis(model)
    dispersion.morse_data(model)
lo.sector_count_above(lo.build(lap, 30, 1.0, 3.0, 1.0), 4.0, 5e-3)
print(json.dumps([after_import, scipy_loaded()]))
""")
    assert loaded == [[], []]


def test_table_box_and_construction_load_scipy_on_demand():
    # a table box's CSR blocks and Lanczos import scipy where they run, the
    # construction's Brent loop none, and both give what they give in-process
    table = diagonal_hop_table()
    fresh = _run(f"""
model = dispersion.ExponentialHopping(table={table.table!r})
sc = lo.sector_count_above(lo.build(model, 30, 1.0, 3.0, 1.0), float(model.e_max), 5e-3)
box_loaded = scipy_loaded()
c = spectrum.multiplicity_two_construct(1.5, mu=1.0)
print(json.dumps([sc.entries, box_loaded, c.A0, c.a0, c.b0, c.g_residual,
                  c.verification, scipy_loaded()]))
""")
    entries, box_loaded, a0_param, a0, b0, g_res, verification, loaded = fresh
    sc = lo.sector_count_above(lo.build(table, 30, 1.0, 3.0, 1.0),
                               float(table.e_max), 5e-3)
    assert [tuple(e) for e in entries] == [tuple(e) for e in sc.entries]
    assert "scipy.sparse.linalg" in box_loaded and "scipy.optimize" not in box_loaded
    assert "scipy.optimize" not in loaded
    _assert_frozen_construction(SimpleNamespace(
        A0=a0_param, a0=a0, b0=b0, g_residual=g_res, verification=verification))
