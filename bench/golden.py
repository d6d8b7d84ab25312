#!/usr/bin/env python3
"""Golden records of the solver and the box oracle, and their diff.

    python3 bench/golden.py OUT.json [--src DIR]
    python3 bench/golden.py --diff OLD.json NEW.json

The first form runs the package in DIR (default: this checkout's src/) and
writes to OUT.json:

  * the records of 157 `solve` triples: the 7 of FIXED, and 150 random
    (a, b, mu) from SEED, |a|, |b| in [0.1, 3] with random signs and mu in
    [0.2, 6], 50 on each of the Laplacian, stepped:0.5 and the t = 0.1
    diagonal-hop table.  A record holds sector, energy, multiplicity, c1,
    c2, residual and log_alpha, floats as float.hex; a triple that raises
    holds the error's name instead;
  * the entries (energy, sector) of perfbench's two oracle boxes: the
    Laplacian (1, 3, 1) boxes at L = 30, 45, 60 (margin 5e-3) and the
    criterion-9 box at L = 80 (margin 1e-2) of the multiplicity-two
    construction at z0 = 1.5.

The second form compares two such files and prints the triples and boxes
whose sector counts differ, the largest relative |dE| and |d log_alpha|
over the records, the records whose c1, c2 or other fields changed, and
the largest |dE| over the box entries.  It exits 1 when any count differs.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 26
MODELS = ("laplacian", "stepped:0.5", "diagonal-hop:0.1")
FIXED = (("laplacian", 1.0, 3.0, 1.0), ("laplacian", 1.0, 1.0, 3.0),
         ("laplacian", -0.5, 0.5, 0.21875), ("laplacian", 1.0, 1.0, 2.5000001),
         ("laplacian", -1.0, 1.0, 2.0), ("stepped:0.5", 1.0, 1.0, 3.0),
         ("diagonal-hop:0.1", 1.0, 3.0, 1.0))
RANDOM_PER_MODEL = 50
ORACLE_LS, ORACLE_COUPLING, ORACLE_MARGIN = (30, 45, 60), (1.0, 3.0, 1.0), 5e-3
MULT2_Z0, MULT2_L, MULT2_MARGIN = 1.5, 80, 1e-2


def _model(dispersion, name):
    kind, _, param = name.partition(":")
    if kind == "laplacian":
        return dispersion.DiscreteLaplacian()
    if kind == "stepped":
        return dispersion.SteppedPhiA(a_param=float(param))
    t = float(param)   # the Laplacian plus ehat(+-(1, 1)) = t
    return dispersion.ExponentialHopping(table=(
        (0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5),
        (1, 1, t), (-1, -1, t)))


def triples():
    rng = np.random.default_rng(SEED)
    drawn = []
    for name in MODELS:
        for _ in range(RANDOM_PER_MODEL):
            a, b = rng.choice((-1.0, 1.0), 2) * rng.uniform(0.1, 3.0, 2)
            drawn.append((name, float(a), float(b), float(rng.uniform(0.2, 6.0))))
    return FIXED + tuple(drawn)


def _hex(x):
    return None if x is None else float(x).hex()


def record(src):
    sys.path.insert(0, str(src))
    from lattice_spectra import dispersion, lattice_oracle as lo, spectrum
    from lattice_spectra.errors import LatticeSpectraError

    solves = []
    for name, a, b, mu in triples():
        entry = {"model": name, "a": a, "b": b, "mu": mu}
        try:
            res = spectrum.solve(_model(dispersion, name), a, b, mu)
        except LatticeSpectraError as exc:
            entry["error"] = type(exc).__name__
        else:
            entry["records"] = [
                {"sector": r.sector, "energy": _hex(r.energy),
                 "multiplicity": r.multiplicity, "c1": _hex(r.c1),
                 "c2": _hex(r.c2), "residual": _hex(r.residual),
                 "log_alpha": _hex(r.log_alpha)} for r in res.records]
        solves.append(entry)

    def box(label, h, e_max, margin):
        sc = lo.sector_count_above(h, e_max, margin)
        return {"box": label,
                "counts": {s: getattr(sc, s) for s in ("os", "oa", "ea", "es")},
                "entries": [[_hex(e), s] for e, s in sc.entries]}

    lap = dispersion.DiscreteLaplacian()
    a, b, mu = ORACLE_COUPLING
    boxes = [box(f"laplacian {ORACLE_COUPLING} L={L}",
                 lo.build(lap, L, a=a, b=b, mu=mu), 4.0, ORACLE_MARGIN)
             for L in ORACLE_LS]
    c = spectrum.multiplicity_two_construct(MULT2_Z0, mu=1.0)
    boxes.append(box(f"criterion-9 z0={MULT2_Z0} L={MULT2_L}",
                     lo.build(dispersion.SteppedPhiA(a_param=c.A0), MULT2_L,
                              a=c.a0, b=c.b0, mu=1.0), 1.0, MULT2_MARGIN))
    return {"solves": solves, "boxes": boxes}


def _counts(records):
    out = {}
    for r in records:
        out[r["sector"]] = out.get(r["sector"], 0) + r["multiplicity"]
    return out


def diff(old, new):
    """Report lines comparing two golden records, and whether every count
    agrees."""
    lines, same_counts = [], True
    worst_e = worst_log = 0.0
    coefficients = moved = others = 0
    for o, n in zip(old["solves"], new["solves"], strict=True):
        where = f"{o['model']} ({o['a']}, {o['b']}, {o['mu']})"
        if (o["model"], o["a"], o["b"], o["mu"]) != (n["model"], n["a"], n["b"], n["mu"]):
            raise ValueError(f"the files list different triples at {where}")
        if "records" not in o or "records" not in n:
            if o.get("error") != n.get("error"):
                same_counts = False
                lines.append(f"{where}: {o.get('error', 'records')} -> "
                             f"{n.get('error', 'records')}")
            continue
        if _counts(o["records"]) != _counts(n["records"]):
            same_counts = False
            lines.append(f"{where}: counts {_counts(o['records'])} -> "
                         f"{_counts(n['records'])}")
            continue
        for ro, rn in zip(o["records"], n["records"]):
            eo, en = float.fromhex(ro["energy"]), float.fromhex(rn["energy"])
            worst_e = max(worst_e, abs(en - eo) / abs(eo))
            worst_log = max(worst_log, abs(float.fromhex(rn["log_alpha"])
                                           - float.fromhex(ro["log_alpha"])))
            moved += (ro["energy"], ro["log_alpha"]) != (rn["energy"], rn["log_alpha"])
            if (ro["c1"], ro["c2"]) != (rn["c1"], rn["c2"]):
                coefficients += 1
                lines.append(f"{where} {ro['sector']}: (c1, c2) "
                             f"{_pair(ro)} -> {_pair(rn)}")
            rest = ("sector", "multiplicity", "residual")
            if any(ro[key] != rn[key] for key in rest):
                others += 1
                lines.append(f"{where} {ro['sector']}: " + ", ".join(
                    f"{key} {ro[key]} -> {rn[key]}" for key in rest
                    if ro[key] != rn[key]))
    worst_box = 0.0
    for o, n in zip(old["boxes"], new["boxes"], strict=True):
        if o["counts"] != n["counts"]:
            same_counts = False
            lines.append(f"{o['box']}: counts {o['counts']} -> {n['counts']}")
            continue
        worst_box = max([worst_box] + [
            abs(float.fromhex(eo) - float.fromhex(en))
            for (eo, _), (en, _) in zip(o["entries"], n["entries"])])
    lines += [f"triples: {len(old['solves'])}, boxes: {len(old['boxes'])}, "
              f"counts {'equal' if same_counts else 'DIFFER'}",
              f"largest relative |dE| of a record: {worst_e:.3g}",
              f"largest |d log_alpha| of a record: {worst_log:.3g}",
              f"records whose energy or log_alpha moved: {moved}",
              f"records with changed c1/c2: {coefficients}",
              f"records with a changed sector, multiplicity or residual: {others}",
              f"largest |dE| of a box entry: {worst_box:.3g}"]
    return lines, same_counts


def _pair(r):
    return tuple(None if x is None else float.fromhex(x) for x in (r["c1"], r["c2"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(path.read_text()) for path in args.diff)
        lines, same_counts = diff(old, new)
        print("\n".join(lines))
        return 0 if same_counts else 1
    if args.out is None:
        parser.error("give OUT.json, or --diff OLD.json NEW.json")
    args.out.write_text(json.dumps(record(args.src.resolve()), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
