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
    construction at z0 = 1.5;
  * the dispersion records: morse_data (floats as float.hex; the error's
    name where it raises) and validate_hypothesis of each model of
    DISPERSION_MODELS, of the flat-valley hopping table FLAT_VALLEY and of
    DISPERSION_DRAWS random hopping tables from SEED (hopping_table).

The second form compares two such files and prints the triples and boxes
whose sector counts differ, the largest relative |dE| and |d log_alpha|
over the records, the records whose c1, c2 or other fields changed, the
largest |dE| over the box entries, the largest |de_min| / (e_max - e_min)
over the dispersion records, and each dispersion record whose e_max,
Hessian, j_psi0, j0 or verdict (the error raised, and the validation
report) changed.  It exits 1 when any count or verdict differs.
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
DISPERSION_MODELS = ("laplacian", "stepped:0.5", "stepped:0.97", "stepped:1",
                     "piecewise:0.5", "diagonal-hop:0.1", "diagonal-hop:0.3",
                     "next-nearest:0.1")
# (t, d1, d2, s) of a table whose minimum lies in a flat valley
FLAT_VALLEY = (-0.15825177370521115, 0.16077777602209758, 0.08597652139224571,
               0.017561934288788966)
DISPERSION_DRAWS = 50
MORSE_FIELDS = ("e_max", "hessian", "j_psi0", "j0")


def _model(dispersion, name):
    kind, _, param = name.partition(":")
    if kind == "laplacian":
        return dispersion.DiscreteLaplacian()
    if kind == "stepped":
        return dispersion.SteppedPhiA(a_param=float(param))
    if kind == "piecewise":
        return dispersion.PiecewisePhi(eps=float(param))
    if kind == "table":   # hopping_table(t, d1, d2, s)
        return hopping_table(dispersion, *map(float, param.split(",")))
    nearest = ((0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5))
    t = float(param)
    if kind == "next-nearest":   # perfbench's table: diagonals -t/2
        return dispersion.ExponentialHopping(table=nearest + (
            (1, 1, -t / 2), (-1, -1, -t / 2), (1, -1, -t / 2), (-1, 1, -t / 2)))
    # the Laplacian plus ehat(+-(1, 1)) = t
    return dispersion.ExponentialHopping(table=nearest + ((1, 1, t), (-1, -1, t)))


def hopping_table(dispersion, t, d1, d2, s):
    """The constant 2, nearest hopping t, the diagonals +-(1, 1) and
    +-(1, -1) with weights d1 and d2, and the axis terms +-(2, 0), +-(0, 2)
    with weight s."""
    table = [(0, 0, 2.0)]
    for x1, x2, v in ((1, 0, t), (0, 1, t), (1, 1, d1), (1, -1, d2),
                      (2, 0, s), (0, 2, s)):
        table += [(x1, x2, v), (-x1, -x2, v)]
    return dispersion.ExponentialHopping(table=tuple(table))


def dispersion_models():
    rng = np.random.default_rng(SEED)
    draws = [(rng.uniform(-1.0, -0.1), *rng.uniform(-0.2, 0.2, 2),
              rng.uniform(-0.05, 0.05)) for _ in range(DISPERSION_DRAWS)]
    return DISPERSION_MODELS + tuple(
        "table:" + ",".join(repr(float(x)) for x in params)
        for params in (FLAT_VALLEY, *draws))


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

    maxima = []
    for name in dispersion_models():
        model = _model(dispersion, name)
        entry = {"model": name}
        try:
            md = dispersion.morse_data(model)
        except LatticeSpectraError as exc:
            entry["error"] = type(exc).__name__
        else:
            entry.update(e_max=_hex(md.e_max), e_min=_hex(md.e_min),
                         hessian=[_hex(x) for row in md.hessian for x in row],
                         j_psi0=_hex(md.j_psi0), j0=_hex(md.j0))
        report = dispersion.validate_hypothesis(model)
        entry.update(passed=report.passed, failures=list(report.failures))
        maxima.append(entry)
    return {"solves": solves, "boxes": boxes, "dispersion": maxima}


def _counts(records):
    out = {}
    for r in records:
        out[r["sector"]] = out.get(r["sector"], 0) + r["multiplicity"]
    return out


def diff(old, new):
    """Report lines comparing two golden records, and whether every count
    and verdict agrees."""
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
    worst_min, same_verdicts = 0.0, True
    for o, n in zip(old["dispersion"], new["dispersion"], strict=True):
        if o["model"] != n["model"]:
            raise ValueError(f"the files list different models at {o['model']}")
        verdict = ("error", "passed", "failures")
        if any(o.get(key) != n.get(key) for key in verdict):
            same_verdicts = False
            lines.append(f"{o['model']}: verdict " + ", ".join(
                f"{key} {o.get(key)} -> {n.get(key)}" for key in verdict
                if o.get(key) != n.get(key)))
        if "error" in o or "error" in n:
            continue
        for key in MORSE_FIELDS:
            if o[key] != n[key]:
                lines.append(f"{o['model']}: {key} {o[key]} -> {n[key]}")
        e_max, e_min = float.fromhex(n["e_max"]), float.fromhex(n["e_min"])
        worst_min = max(worst_min, abs(e_min - float.fromhex(o["e_min"]))
                        / (e_max - e_min))
    lines += [f"triples: {len(old['solves'])}, boxes: {len(old['boxes'])}, "
              f"counts {'equal' if same_counts else 'DIFFER'}",
              f"largest relative |dE| of a record: {worst_e:.3g}",
              f"largest |d log_alpha| of a record: {worst_log:.3g}",
              f"records whose energy or log_alpha moved: {moved}",
              f"records with changed c1/c2: {coefficients}",
              f"records with a changed sector, multiplicity or residual: {others}",
              f"largest |dE| of a box entry: {worst_box:.3g}",
              f"dispersion records: {len(old['dispersion'])}, verdicts "
              f"{'equal' if same_verdicts else 'DIFFER'}",
              f"largest |de_min| / (e_max - e_min): {worst_min:.3g}"]
    return lines, same_counts and same_verdicts


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
        lines, same = diff(old, new)
        print("\n".join(lines))
        return 0 if same else 1
    if args.out is None:
        parser.error("give OUT.json, or --diff OLD.json NEW.json")
    args.out.write_text(json.dumps(record(args.src.resolve()), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
