"""Command-line front end.

Every computation is exposed as a batch subcommand with machine-readable
output.  JSON is the default; thresholds (CSV by default), curve,
phase-diagram, asymptotics, oracle and resonance also write CSV.  This module
is the only one that formats output: the numerical modules return
dataclasses, and a subcommand's JSON is its run metadata followed by its
result dataclass (dataclasses.asdict, in field order), so each field is
declared once, in its dataclass.  validate, solve and oracle, whose output
is not one dataclass, and the CSV columns pick their keys here.  Exit codes:
0 success, 1 domain error (violated mathematical precondition), 2 numerical
failure, 3 configuration error.  Identical configurations produce
byte-identical output: field order is fixed, JSON floats use Python's
shortest round-trip representation and CSV floats 17 significant digits,
which also round-trip.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import asymptotics, lattice_oracle, sectors, spectrum, thresholds
from .dispersion import (DiscreteLaplacian, PiecewisePhi, SteppedPhiA,
                         model_from_spec, model_to_spec, validate_hypothesis,
                         morse_data)
from .errors import ConfigError, DomainError, NumericalError
from .torus_quad import default_spec


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; bad flags are a configuration error
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    """The type of every float option: nan and +-inf are usage errors."""
    try:
        if np.isfinite(x := float(text)):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _parse_model(text):
    if text == "laplacian":
        return DiscreteLaplacian()
    if text.startswith("piecewise:"):
        return PiecewisePhi(eps=float(text.split(":", 1)[1]))
    if text.startswith("stepped:"):
        return SteppedPhiA(a_param=float(text.split(":", 1)[1]))
    if os.path.exists(text):
        with open(text, encoding="utf-8") as f:
            return model_from_spec(json.load(f))
    raise ConfigError(
        f"unrecognized model {text!r}: expected 'laplacian', 'piecewise:<eps>', "
        "'stepped:<A>', or a path to a JSON model spec")


def _quad_spec(model, args):
    overrides = {}
    if args.tol_radial is not None:
        overrides["radial_tol"] = args.tol_radial
    if args.grid_n is not None:
        overrides["grid_n"] = args.grid_n
    return default_spec(model, **overrides)


def _metadata(model, sp):
    return {
        "model": model_to_spec(model),
        "tolerances": {"radial": sp.radial_tol},
        "grid_n": sp.grid_n,
    }


def _csv(header, rows):
    """CSV text with a header line; floats are written to 17 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(x, ".17g") if isinstance(x, float) else x
                      for x in row] for row in rows)
    return buf.getvalue()


def _emit(args, payload, csv_text=None):
    text = csv_text if args.format == "csv" else json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    model = _parse_model(args.model)
    rep = validate_hypothesis(model)
    payload = {"passed": rep.passed, "failures": list(rep.failures)}
    if rep.passed:
        md = morse_data(model)
        payload["morse"] = {"e_max": md.e_max, "e_min": md.e_min,
                            "j_psi0": md.j_psi0, "j0": md.j0}
    _emit(args, payload)
    return 0 if rep.passed else 1


def _cmd_thresholds(args):
    model = _parse_model(args.model)
    sp = _quad_spec(model, args)
    constants = {
        **dataclasses.asdict(thresholds.gammas(model, spec=sp)),
        **dataclasses.asdict(thresholds.es_constants(model, spec=sp))}
    payload = {"metadata": _metadata(model, sp), **constants}
    if args.a is not None and args.b is not None:
        payload["mu0"] = thresholds.coupling_thresholds(model, args.a, args.b,
                                                        spec=sp).mu0
        cls = thresholds.classify_threshold_solutions(model, args.a, args.b,
                                                      spec=sp)
        payload["threshold_solutions"] = {
            s: kind.value for s, kind in dataclasses.asdict(cls).items()}
    _emit(args, payload, csv_text=_csv(["model", *constants],
                                       [[model.kind, *constants.values()]]))
    return 0


def _cmd_solve(args):
    model = _parse_model(args.model)
    sp = _quad_spec(model, args)
    res = spectrum.solve(model, args.a, args.b, args.mu, spec=sp)
    payload = {
        "metadata": _metadata(model, sp),
        "a": args.a, "b": args.b, "mu": args.mu,
        "total_count": res.total_count,
        "sector_counts": res.sector_counts(),
        "records": [dataclasses.asdict(r) for r in res.records],
    }
    _emit(args, payload)
    return 0


def _cmd_curve(args):
    model = _parse_model(args.model)
    sp = _quad_spec(model, args)
    mus = np.linspace(args.mu_min, args.mu_max, args.n)
    rep = spectrum.eigenvalue_curve(model, args.sector, args.a, args.b, mus,
                                    spec=sp, branch=args.branch)
    payload = {"metadata": _metadata(model, sp), **dataclasses.asdict(rep)}
    _emit(args, payload,
          csv_text=_csv(["mu", "energy"], zip(rep.mus, rep.energies)))
    return 0


def _cmd_phase_diagram(args):
    model = _parse_model(args.model)
    sp = _quad_spec(model, args)
    a_grid = np.linspace(args.a_min, args.a_max, args.a_n)
    b_grid = np.linspace(args.b_min, args.b_max, args.b_n)
    pd = spectrum.phase_diagram(model, args.mu, a_grid, b_grid, spec=sp)
    payload = {"metadata": _metadata(model, sp), **dataclasses.asdict(pd)}
    _emit(args, payload, csv_text=_csv(
        ["a", "b", "count"], [(c.a, c.b, c.count) for c in pd.cells]))
    return 0


def _cmd_asymptotics(args):
    model = _parse_model(args.model)
    sp = _quad_spec(model, args)
    rep = asymptotics.fit_eigenvalue_asymptotics(
        model, args.sector, args.a, args.b, spec=sp, branch=args.branch)
    payload = {"metadata": _metadata(model, sp),
               "sector": args.sector, "branch": args.branch,
               **dataclasses.asdict(rep)}
    _emit(args, payload,
          csv_text=_csv(["x", "opening", "predicted"], rep.samples))
    return 0


def _cmd_oracle(args):
    model = _parse_model(args.model)
    ls = sorted(int(x) for x in args.L.split(","))
    e_max = float(model.e_max)
    per_l = []
    rows = []
    for L in ls:
        h = lattice_oracle.build(model, L, a=args.a, b=args.b, mu=args.mu)
        counts = lattice_oracle.sector_count_above(h, e_max, args.margin)
        per_l.append({
            "L": L, "total": counts.total,
            "counts": {s: getattr(counts, s) for s in sectors.SECTORS},
            "entries": [[v, s] for v, s in counts.entries],
        })
        rows += [(L, i, v, s) for i, (v, s) in enumerate(counts.entries)]
    payload = {"metadata": {"model": model_to_spec(model)},
               "a": args.a, "b": args.b, "mu": args.mu,
               "margin": args.margin, "boxes": per_l}
    if len(ls) >= 3 and all(p["counts"] == per_l[0]["counts"] for p in per_l):
        # follow each state by its sector and its rank within the sector
        extrapolated = []
        for s, n in per_l[0]["counts"].items():
            for rank in range(n):
                vals = [[v for v, t in p["entries"] if t == s][rank]
                        for p in per_l]
                limit, err = lattice_oracle.extrapolate(ls, vals)
                extrapolated.append({"sector": s, "rank": rank,
                                     "value": limit, "error": err})
        payload["extrapolated"] = extrapolated
    _emit(args, payload,
          csv_text=_csv(["L", "index", "value", "sector"], rows))
    return 0


def _cmd_multiplicity(args):
    res = spectrum.multiplicity_two_construct(args.z0, mu=args.mu,
                                              scan=args.scan,
                                              scan_step=args.scan_step)
    _emit(args, dataclasses.asdict(res))
    return 0


def _cmd_resonance(args):
    model = _parse_model(args.model)
    sp = _quad_spec(model, args)
    rep = thresholds.resonance_integrability_probe(model, args.sector,
                                                   a=args.a, b=args.b, spec=sp)
    payload = {"metadata": _metadata(model, sp), **dataclasses.asdict(rep)}
    _emit(args, payload, csv_text=_csv(["r", "I_r"], zip(rep.rs, rep.values)))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, formats=("json", "csv"), quadrature=True):
    """Shared options; the first of ``formats`` is the default.  Only the
    subcommands that integrate take the quadrature options."""
    p.add_argument("--model", default="laplacian",
                   help="laplacian | piecewise:<eps> | stepped:<A> | spec.json")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", default=None, help="write to file (default stdout)")
    if quadrature:
        p.add_argument("--tol-radial", type=_finite_float, default=None,
                       dest="tol_radial",
                       help="acceptance tolerance of the near-field estimate")
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                       help="far-field grid resolution override")


def build_parser():
    parser = _Parser(prog="lattice-spectra",
                     description="Discrete spectrum of lattice Schrodinger "
                                 "operators above the essential spectrum")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the dispersion hypotheses")
    _add_common(p, formats=("json",), quadrature=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("thresholds", help="sector constants and thresholds")
    _add_common(p, formats=("csv", "json"))
    p.add_argument("-a", type=_finite_float, default=None)
    p.add_argument("-b", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("solve", help="all eigenvalues above the band")
    _add_common(p, formats=("json",))
    p.add_argument("-a", type=_finite_float, required=True)
    p.add_argument("-b", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("curve", help="eigenvalue curve E(mu) in one sector")
    _add_common(p)
    p.add_argument("--sector", choices=sectors.SECTORS, required=True)
    p.add_argument("-a", type=_finite_float, default=1.0)
    p.add_argument("-b", type=_finite_float, default=1.0)
    p.add_argument("--mu-min", type=_finite_float, required=True, dest="mu_min")
    p.add_argument("--mu-max", type=_finite_float, required=True, dest="mu_max")
    p.add_argument("-n", type=int, default=50)
    p.add_argument("--branch", type=int, default=1)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("phase-diagram", help="counts over an (a, b) grid")
    _add_common(p)
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--a-min", type=_finite_float, required=True, dest="a_min")
    p.add_argument("--a-max", type=_finite_float, required=True, dest="a_max")
    p.add_argument("--a-n", type=int, default=9, dest="a_n")
    p.add_argument("--b-min", type=_finite_float, required=True, dest="b_min")
    p.add_argument("--b-max", type=_finite_float, required=True, dest="b_max")
    p.add_argument("--b-n", type=int, default=9, dest="b_n")
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("asymptotics", help="near-threshold rate fits")
    _add_common(p)
    p.add_argument("--sector", choices=sectors.SECTORS, required=True)
    p.add_argument("-a", type=_finite_float, default=1.0)
    p.add_argument("-b", type=_finite_float, default=1.0)
    p.add_argument("--branch", choices=("exponential", "threshold"),
                   default="exponential")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("oracle", help="finite-box diagonalization cross-check")
    _add_common(p, quadrature=False)
    p.add_argument("-a", type=_finite_float, required=True)
    p.add_argument("-b", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--L", required=True,
                   help="comma-separated box half-widths, e.g. 20,30,40")
    p.add_argument("--margin", type=_finite_float, default=1e-3)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("multiplicity", help="multiplicity-two construction")
    p.add_argument("--z0", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, default=1.0)
    p.add_argument("--scan", action="store_true",
                   help="scan for the smallest zero of G before bracketing")
    p.add_argument("--scan-step", type=_finite_float, default=1e-3, dest="scan_step")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser("resonance", help="threshold resonance dichotomy probe")
    _add_common(p)
    p.add_argument("--sector", choices=sectors.SECTORS, required=True)
    p.add_argument("-a", type=_finite_float, default=1.0)
    p.add_argument("-b", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_resonance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
