"""The four benchmark workloads: inputs from a seed, set-up, ops and checks.

Each workload is a closed loop with one caller.  Inputs are drawn by the
benchmark from ``--seed`` (the program sees only the drawn numbers) and come
in cycles with a fixed mix of input classes, so that the medians of two runs
with different seeds measure the same work.  Every op carries a check whose
reference does not come from the call being timed.

    spectrum-sweep   independent ``solve`` calls on the Laplacian
    coupling-scan    eigenvalue curves and one threaded phase diagram
    model-constants  cold sector constants for a set of models
    oracle-box       finite boxes L = 30, 45, 60 and one criterion-9 box
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

PI = math.pi

# closed forms for the discrete Laplacian (README, test_acceptance)
GAMMA_OS = PI / (2 * PI - 4)
GAMMA_EA = PI / (8 - 2 * PI)
GAMMA_ES = 0.5
THETA_STAR, THETA_2STAR, KAPPA1 = 1.0, 0.0, 2.0
J0 = 1.0 / (2 * PI)
LAP_E_MAX = 4.0

# frozen Laplacian roots (tests/test_determinant.py)
E_OS_B3_MU1 = 5.254915151904183
E_EA_B3_MU1 = 5.088580139631247
E_ES_A1B1_MU3 = (6.171696061794117, 4.297936217563654)

SECTORS = ("os", "oa", "ea", "es")

# test tolerances
FROZEN_TOL = 1e-9           # test_rank_one_root_frozen, test_es_two_roots_frozen
FROZEN_OA_TOL = 1e-7        # oa coincides with os to this tolerance
CLOSED_FORM_TOL = 1e-6      # criterion 1
ORACLE_ENERGY_TOL = 1e-6    # criterion 3
ES_PAIR_GAP_TOL = 1e-4      # criterion 9
CONVEX_TOL = -1e-10         # criterion 5

# A threshold-adjacent es root behaves like exp(-X); draws with X above this
# would put the root below the solver's resolvable floor (alpha ~ 1e-13)
# and are not drawn, so that no op is expected to fail.
MAX_ES_EXPONENT = 10.0
THRESHOLD_GAP = 1e-3        # generic draws stay this far (relative) away


@dataclass
class Op:
    """One timed call.  ``units`` normalizes its time (curve points, cells)."""
    label: str
    run: Callable
    check: Callable             # result -> list of problems ("" free)
    units: int = 1
    cls: str = ""               # input class, for the rationale and tests
    inputs: tuple = ()


@dataclass
class Accuracy:
    gamma_max_rel_err: float = 0.0
    frozen_root_max_dev: float = 0.0
    energy_max_abs_dev: float = 0.0

    def note(self, key, value):
        setattr(self, key, max(getattr(self, key), float(value)))


def log_band(rng, lo, hi, width=0.1):
    """Log-uniform over the middle ``width`` share (in log) of [lo, hi]: the
    seed moves the input a little and its cost less."""
    mid, half = 0.5 * math.log(lo * hi), 0.5 * width * math.log(hi / lo)
    return float(math.exp(rng.uniform(mid - half, mid + half)))


# ---------------------------------------------------------------------------
# Laplacian threshold table from closed forms (used only to draw inputs)
# ---------------------------------------------------------------------------

def lap_thresholds(a, b):
    mu0 = {}
    for s, gamma in (("os", GAMMA_OS), ("oa", GAMMA_OS), ("ea", GAMMA_EA)):
        mu0[s] = gamma / b if b > 0 else None
    ratio = (a + 4 * b) / (a * b)
    mu0["es"] = ratio * GAMMA_ES if ratio > 0 else None
    return mu0


def es_exponents(a, b, mu):
    """Leading-order exponents X (root ~ exp(-X)) of the es roots that open
    exponentially: the small-coupling branch and the branch emerging at mu0."""
    out = []
    mu0 = lap_thresholds(a, b)["es"]
    if a + 4 * b > 0 and not (a < 0 and b < 0):
        out.append(1.0 / (J0 * (a + 4 * b) * mu))
    if mu0 is not None and mu > mu0:
        lam_big = (GAMMA_ES ** 2 * (THETA_STAR * a - THETA_2STAR * b) ** 2
                   / (J0 * a * b * (a + 4 * b)))
        out.append(lam_big / (mu - mu0))
    return out


def lap_drawable(a, b, mu, skip=()):
    """Away from every threshold (except those in ``skip``) and resolvable."""
    for s, mu0 in lap_thresholds(a, b).items():
        if mu0 is not None and s not in skip and abs(mu / mu0 - 1) < THRESHOLD_GAP:
            return False
    return all(x <= MAX_ES_EXPONENT for x in es_exponents(a, b, mu))


def draw(sampler, accept=lap_drawable, tries=10000):
    for _ in range(tries):
        triple = sampler()
        if accept(*triple):
            return triple
    raise RuntimeError("input generator found no admissible draw")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def energies_desc(result):
    return sorted((r.energy for r in result.records
                   for _ in range(r.multiplicity)), reverse=True)


class Workload:
    name = ""
    setup_reps = 2
    cycle_s: float              # nominal time of one cycle on a 2-core x86 VM

    def __init__(self, lib, caches, rng, size="full"):
        self.lib = lib
        self.caches = caches
        self.rng = rng
        self.size = size
        self.acc = Accuracy()

    def setup(self):
        """Warm-up or reference work outside the timed loop."""

    def setup_check(self):
        """Problems with what set-up computed (not timed)."""
        return []

    def cycle(self):
        """The ops of the next input cycle."""
        raise NotImplementedError

    def calibration(self):
        """A cheap callable timed with and without spans."""
        raise NotImplementedError

    def check_gammas_lap(self, g):
        errs = [abs(g.gamma_os - GAMMA_OS) / GAMMA_OS,
                abs(g.gamma_oa - GAMMA_OS) / GAMMA_OS,
                abs(g.gamma_ea - GAMMA_EA) / GAMMA_EA,
                abs(g.gamma_es - GAMMA_ES) / GAMMA_ES]
        self.acc.note("gamma_max_rel_err", max(errs))
        return [] if max(errs) < CLOSED_FORM_TOL else [
            f"Laplacian gammas off the closed forms by {max(errs):.2e}"]

    def check_counts(self, model, a, b, mu, result):
        pred = self.lib.spectrum.predicted_sector_counts(model, a, b, mu)
        got = result.sector_counts()
        if any(pred[s] != got[s] for s in SECTORS):
            return [f"counts {got} != table {pred} at {(a, b, mu)}"]
        return []

    def check_frozen(self, a, b, mu, result):
        """Frozen-root checks for triples that hit them."""
        problems = []
        by_sector = {}
        for r in result.records:
            by_sector.setdefault(r.sector, []).append(r.energy)
        if b == 3.0 and mu == 1.0:
            for s, ref, tol in (("os", E_OS_B3_MU1, FROZEN_TOL),
                                ("oa", E_OS_B3_MU1, FROZEN_OA_TOL),
                                ("ea", E_EA_B3_MU1, FROZEN_TOL)):
                dev = abs(by_sector[s][0] - ref) if s in by_sector else math.inf
                if s != "oa":
                    self.acc.note("frozen_root_max_dev", dev)
                if not dev <= tol:
                    problems.append(f"frozen {s} root off by {dev:.2e}")
        if (a, b, mu) == (1.0, 1.0, 3.0):
            es = sorted(by_sector.get("es", []), reverse=True)
            dev = (max(abs(x - y) for x, y in zip(es, E_ES_A1B1_MU3))
                   if len(es) == 2 else math.inf)
            self.acc.note("frozen_root_max_dev", dev)
            if not dev <= FROZEN_TOL:
                problems.append(f"frozen es roots off by {dev:.2e}")
        return problems


# ---------------------------------------------------------------------------
# spectrum-sweep
# ---------------------------------------------------------------------------

class SpectrumSweep(Workload):
    """Independent solves, warm caches.  A cycle of 10: 7 generic draws, one
    per sign regime of criterion 4 (a, b > 0 twice: below and above the es
    threshold), and 3 near-threshold rank-one draws.  Each class fixes the
    number of roots per sector, so its cost varies little with the seed."""

    name = "spectrum-sweep"
    cycle_s = 9.0

    def setup(self):
        lap = self.lib.dispersion.DiscreteLaplacian()
        self.model = lap
        self.lib.spectrum.solve(lap, 1.0, 3.0, 1.0)      # the user's first call

    def setup_check(self):
        # spec=None is the key solve's rank-one path filled: a hit, not a miss
        return self.check_gammas_lap(
            self.lib.thresholds.gammas(self.model, spec=None))

    def _generic(self):
        rng = self.rng
        lu = lambda lo, hi: log_band(rng, lo, hi)

        def above(*mu0s):
            return max(mu0s) * (1 + lu(0.3, 0.6))

        def r3():               # a < 0 < b, a + 4b >= 0; all four sectors
            b = lu(0.5, 2.0)
            return -b * lu(0.5, 3.5), b, above(GAMMA_EA / b)

        def r4():               # a < 0 < b, a + 4b < 0; all four sectors
            b = lu(0.5, 2.0)
            a = -4 * b * (1 + lu(0.25, 2.0))
            return a, b, above(GAMMA_EA / b, lap_thresholds(a, b)["es"])

        def r5():               # b < 0 < a, a + 4b >= 0; one es root
            b = -lu(0.25, 1.5)
            return -4 * b * (1 + lu(0.1, 2.0)), b, lu(1.0, 2.0)

        def r6():               # b < 0 < a, a + 4b < 0, above mu0_es; one es root
            b = -lu(0.5, 2.0)
            a = -4 * b * lu(0.1, 0.8)
            return a, b, above(lap_thresholds(a, b)["es"])

        return [
            # a, b > 0 above the es threshold: two es roots (frozen roots)
            ("r1-two-es", (1.0, 1.0, 3.0)),
            # a, b > 0 below the es threshold; b = 3, mu = 1 hits the frozen
            # rank-one roots for every a < 2.4
            ("r1-frozen", (lu(0.5, 2.0), 3.0, 1.0)),
            ("r2", draw(lambda: (-lu(0.5, 3.0), -lu(0.5, 3.0), lu(0.5, 5.0)))),
        ] + [(name, draw(f)) for name, f in
             (("r3", r3), ("r4", r4), ("r5", r5), ("r6", r6))]

    def _near_threshold(self):
        """mu = mu0 (1 + lam) over lam in [1e-6, 1e-2]: one draw in each third
        of that range (os, ea, os), in the middle tenth (in log) of its third,
        since a root's cost grows steeply as lam falls; a < 0 < b with
        a + 4b > 0 keeps the es root away from its floor."""
        rng = self.rng
        out = []
        for i, sector in enumerate(("os", "ea", "os")):
            lam = log_band(rng, 10 ** (-6 + 4 * i / 3), 10 ** (-6 + 4 * (i + 1) / 3))
            gamma = GAMMA_OS if sector == "os" else GAMMA_EA
            skip = ("os", "oa") if sector == "os" else ("ea",)

            def near():
                b = log_band(rng, 0.5, 2.0)
                return -b * log_band(rng, 0.5, 3.5), b, gamma / b * (1 + lam)

            out.append((f"near-{sector}-{i}",
                        draw(near, accept=lambda a, b, mu:
                             lap_drawable(a, b, mu, skip=skip))))
        return out

    def cycle(self):
        draws = self._generic() + self._near_threshold()
        if self.size == "min":
            draws = [d for d in draws if d[0] in ("r1-frozen", "near-ea-1")]
        return [self._op(cls, triple) for cls, triple in draws]

    def _op(self, cls, triple):
        a, b, mu = triple
        lap = self.model

        def check(result):
            return (self.check_counts(lap, a, b, mu, result)
                    + self.check_frozen(a, b, mu, result))

        return Op(label=f"solve{triple}", cls=cls, inputs=triple,
                  run=lambda: self.lib.spectrum.solve(lap, a, b, mu),
                  check=check)

    def calibration(self):
        return lambda: self.lib.spectrum.solve(self.model, 1.0, 3.0, 1.0)


# ---------------------------------------------------------------------------
# coupling-scan
# ---------------------------------------------------------------------------

# criterion-5 sectors and windows, and the os curve on stepped:0.5
# (gamma_os(stepped:0.5) = 0.71688, so the window sits above its threshold)
CURVES = (("laplacian", "os", 1.0, 1.0, 1.5, 3.0),
          ("laplacian", "oa", 1.0, 1.0, 1.5, 3.0),
          ("laplacian", "ea", 1.0, 1.0, 2.0, 3.5),
          ("laplacian", "es", 5.0, -1.0, 0.6, 2.0),
          ("stepped:0.5", "os", 1.0, 1.0, 0.9, 1.5))


class CouplingScan(Workload):
    """Eigenvalue curves (neighbouring points share caches) and a phase
    diagram through the ThreadPoolExecutor path with threads=2.  A cycle has
    two seeded windows of each Laplacian rank-one curve, so that the median
    op is one of these twelve (or six) curves whatever the seed, each long
    enough (8 points) that a brief stall moves it little; plus the es curve,
    the stepped:0.5 os curve and the grid."""

    name = "coupling-scan"
    cycle_s = 8.0
    curve_points = (8, 4)       # Laplacian rank-one curves, the other two
    grid_threads = 2

    def setup(self):
        d = self.lib.dispersion
        self.models = {"laplacian": d.DiscreteLaplacian(),
                       "stepped:0.5": d.SteppedPhiA(a_param=0.5)}
        self.lib.spectrum.solve(self.models["laplacian"], 1.0, 3.0, 1.0)
        self.lib.spectrum.solve(self.models["stepped:0.5"], -1.0, 1.0, 3.0)

    def setup_check(self):
        return self.check_gammas_lap(
            self.lib.thresholds.gammas(self.models["laplacian"], spec=None))

    def _grid(self):
        """3 x 3 grid over all four sign quadrants, with one two-root es cell
        (a ~ 3, b ~ 2); the seed jitters every value by up to 5%, which keeps
        each cell's count, so the mix of work is the same for every seed."""
        rng = self.rng

        def sample():
            j = lambda: rng.uniform(0.95, 1.05)
            a = (-4.0 * j(), 1.0 * j(), 3.0 * j())
            b = (-1.5 * j(), 0.6 * j(), 2.0 * j())
            return a, b, 1.2 * j()

        def ok(a_grid, b_grid, mu):
            return all(lap_drawable(a, b, mu) for a in a_grid for b in b_grid)

        if self.size == "min":
            return (-1.0, 1.0), (-1.0, 0.6), 2.0
        return draw(sample, accept=ok)

    def cycle(self):
        rng = self.rng
        ops = []
        curves = CURVES[:1] if self.size == "min" else CURVES[:3] * 2 + CURVES[3:]
        for i, (model_name, sector, a, b, lo, hi) in enumerate(curves):
            n_pts = 3 if self.size == "min" else self.curve_points[i >= 6]
            # a point's cost rises steeply as mu nears the threshold, so the
            # seed shifts each window by at most 2% of its width
            shift = rng.uniform(0.0, 0.02) * (hi - lo)
            grid = tuple(float(x) for x in np.linspace(lo + shift, hi + shift, n_pts))
            ops.append(self._curve_op(model_name, sector, a, b, grid))
        ops.append(self._grid_op(*self._grid()))
        return ops

    def _curve_op(self, model_name, sector, a, b, grid):
        model = self.models[model_name]
        e_max = float(model.e_max)

        def check(rep):
            problems = []
            if not rep.strictly_increasing:
                problems.append(f"{sector} curve not increasing")
            if rep.min_second_difference < CONVEX_TOL:
                problems.append(f"{sector} curve not convex "
                                f"({rep.min_second_difference:.2e})")
            if min(rep.energies) <= e_max:
                problems.append(f"{sector} curve below the band top")
            return problems

        return Op(label=f"curve {model_name} {sector} {grid[0]:.3f}..{grid[-1]:.3f}",
                  cls=f"curve-{model_name}-{sector}", units=len(grid),
                  inputs=(model_name, sector, a, b, grid),
                  run=lambda: self.lib.spectrum.eigenvalue_curve(
                      model, sector, a, b, grid),
                  check=check)

    def _grid_op(self, a_grid, b_grid, mu):
        lap = self.models["laplacian"]

        def check(diagram):
            problems = []
            for cell in diagram.cells:
                pred = self.lib.spectrum.predicted_sector_counts(
                    lap, cell.a, cell.b, mu)["total"]
                if cell.count != pred:
                    problems.append(f"cell {(cell.a, cell.b)}: {cell.count} != {pred}")
            return problems

        return Op(label=f"phase_diagram mu={mu:.3f}", cls="grid",
                  units=len(a_grid) * len(b_grid), inputs=(a_grid, b_grid, mu),
                  run=lambda: self.lib.spectrum.phase_diagram(
                      lap, mu, a_grid, b_grid, threads=self.grid_threads),
                  check=check)

    def calibration(self):
        lap = self.models["laplacian"]
        return lambda: self.lib.spectrum.eigenvalue_curve(
            lap, "os", 1.0, 1.0, (1.5, 2.0, 2.5))


# ---------------------------------------------------------------------------
# model-constants
# ---------------------------------------------------------------------------

class ModelConstants(Workload):
    """Cold gammas + es_constants per model, caches cleared before each, as
    criterion 1 does; plus leading_coefficients(lap, 1, 1) for k = 2.  Two
    seeded stepped and piecewise models each, so that the median op is one
    of these four whatever the seed."""

    name = "model-constants"
    cycle_s = 20.0
    setup_reps = 3              # set-up is the import only

    def setup(self):
        d = self.lib.dispersion
        self.d = d

    def _hopping(self):
        """Nearest plus diagonal next-nearest hopping,
        e = 2 - t1 (cos p1 + cos p2) - 2 t2 cos p1 cos p2, with 0 < 2 t2 < t1
        so that (pi, pi) is the unique non-degenerate maximum."""
        t1 = 1.0
        t2 = self.rng.uniform(0.08, 0.12)
        table = [(0, 0, 2.0)]
        table += [(x1, x2, -t1 / 2) for x1, x2 in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        table += [(x1, x2, -t2 / 2) for x1, x2 in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
        return self.d.ExponentialHopping(table=tuple(table))

    def cycle(self):
        d, rng = self.d, self.rng
        models = [("laplacian", d.DiscreteLaplacian()), ("hopping", self._hopping())]
        for _ in range(2):
            models += [("stepped", d.SteppedPhiA(a_param=rng.uniform(0.45, 0.55))),
                       ("piecewise", d.PiecewisePhi(eps=rng.uniform(0.45, 0.55)))]
        if self.size == "min":
            models = models[3:4]
        return [self._op(name, m) for name, m in models]

    def _op(self, name, model):
        lib = self.lib

        def run():
            self.caches.clear()
            rep = lib.dispersion.validate_hypothesis(model)
            # the keys the library's own calls use, so that
            # leading_coefficients finds them instead of recomputing
            g = lib.thresholds.gammas(model, spec=None)
            th = lib.thresholds.es_constants(model, spec=None)
            lc = (lib.asymptotics.leading_coefficients(model, 1.0, 1.0)
                  if name == "laplacian" else None)
            return rep, g, th, lc

        def check(result):
            rep, g, th, lc = result
            problems = [] if rep.passed else [f"{name}: {rep.failures}"]
            if min(g.gamma_os, g.gamma_oa, g.gamma_ea, g.gamma_es) <= 0:
                problems.append(f"{name}: non-positive sector constant")
            if abs(g.gamma_os - g.gamma_oa) > 1e-8 * g.gamma_os:
                problems.append(f"{name}: gamma_os != gamma_oa")
            if name == "laplacian":
                problems += self.check_gammas_lap(g)
                errs = [abs(th.theta_star - THETA_STAR),
                        abs(th.theta_2star - THETA_2STAR),
                        abs(th.kappa1 - KAPPA1) / KAPPA1,
                        abs(lc.es_exponent_rate - 2 * PI / 5) / (2 * PI / 5),
                        abs(lc.Lambda - PI / 10) / (PI / 10),
                        abs(lc.c_os - PI / GAMMA_OS ** 2) / (PI / GAMMA_OS ** 2)]
                if max(errs) >= CLOSED_FORM_TOL:
                    problems.append(f"Laplacian es/leading constants off by "
                                    f"{max(errs):.2e}")
                if not (lc.c_ea > 0 and lc.c_es_linear > 0):
                    problems.append("Laplacian k = 2 coefficients not positive")
            return problems

        return Op(label=f"constants {name}", cls=name, run=run, check=check,
                  inputs=(name, repr(model)))

    def calibration(self):
        model = self.d.PiecewisePhi(eps=0.5)

        def run():
            self.caches.clear()
            self.lib.thresholds.gammas(model)
        return run


# ---------------------------------------------------------------------------
# oracle-box
# ---------------------------------------------------------------------------

# the first criterion-3 configuration: four eigenvalues, and its rank-one
# roots are the frozen ones
ORACLE_CONFIG = (1.0, 3.0, 1.0)
ORACLE_LS = (30, 45, 60)          # the CLI's documented sequence
ORACLE_MARGIN, ORACLE_K = 5e-3, 10
MULT2_L, MULT2_MARGIN = 80, 1e-2


class OracleBox(Workload):
    """Finite boxes only: references (determinant roots, the multiplicity-two
    construction) are computed in set-up, so the loop touches only
    lattice_oracle.  L = 30 takes the dense path, 45 and 60 Lanczos."""

    name = "oracle-box"
    cycle_s = 13.0

    def __init__(self, lib, caches, rng, size="full"):
        super().__init__(lib, caches, rng, size)
        self.config = ORACLE_CONFIG
        self.z0 = float(rng.uniform(1.3, 2.0))      # criterion 9 uses 1.3 .. 2.0
        self.ls = (6, 8, 10) if size == "min" else ORACLE_LS
        self.mult2_l = 12 if size == "min" else MULT2_L

    def setup(self):
        lib = self.lib
        self.lap = lib.dispersion.DiscreteLaplacian()
        a, b, mu = self.config
        res = lib.spectrum.solve(self.lap, a, b, mu)
        self.ref_counts = res.sector_counts()
        self.ref_energies = energies_desc(res)
        self.ref = res
        c = lib.spectrum.multiplicity_two_construct(self.z0, mu=1.0)
        self.mult2 = c
        self.mult2_model = lib.dispersion.SteppedPhiA(a_param=c.A0)

    def setup_check(self):
        a, b, mu = (float(x) for x in self.config)
        problems = self.check_gammas_lap(
            self.lib.thresholds.gammas(self.lap, spec=None))
        problems += self.check_frozen(a, b, mu, self.ref)
        if max(self.mult2.verification) >= 1e-8:       # criterion 9
            problems.append(f"multiplicity-two residual {max(self.mult2.verification):.2e}")
        return problems

    def cycle(self):
        lo = self.lib.lattice_oracle
        a, b, mu = self.config
        c = self.mult2

        def sequence():
            boxes = [lo.sector_count_above(lo.build(self.lap, L, a=a, b=b, mu=mu),
                                           LAP_E_MAX, ORACLE_MARGIN, k=ORACLE_K)
                     for L in self.ls]
            limits = [lo.extrapolate(self.ls, [box.entries[j][0] for box in boxes])[0]
                      for j in range(min(len(box.entries) for box in boxes))]
            return boxes, limits

        def mult2_box():
            h = lo.build(self.mult2_model, self.mult2_l, a=c.a0, b=c.b0, mu=1.0)
            return lo.sector_count_above(h, 1.0, MULT2_MARGIN, k=ORACLE_K)

        return [Op(label=f"boxes L={self.ls} {self.config}", cls="sequence",
                   run=sequence, check=self._sequence_check,
                   inputs=(self.ls, self.config)),
                Op(label=f"criterion-9 box z0={self.z0:.4f}", cls="mult2",
                   run=mult2_box, check=self._mult2_check, inputs=(self.z0,))]

    def _sequence_check(self, result):
        boxes, limits = result
        problems = []
        for L, box in zip(self.ls, boxes):
            got = {s: getattr(box, s) for s in SECTORS}
            if got != self.ref_counts or box.ambiguous:
                problems.append(f"L = {L}: box counts {got} != determinant "
                                f"{self.ref_counts}")
        devs = [abs(x - y) for x, y in zip(limits, self.ref_energies)]
        worst = max(devs, default=0.0)
        self.acc.note("energy_max_abs_dev", worst)
        if len(limits) != len(self.ref_energies) or worst >= ORACLE_ENERGY_TOL:
            problems.append(f"extrapolated energies off by {worst:.2e}")
        return problems

    def _mult2_check(self, sc):
        z0 = self.z0
        near = sorted(v for v, s in sc.entries if s == "es" and abs(v - z0) < 0.05)
        if len(near) != 2:
            return [f"{len(near)} es eigenvalues near z0 = {z0}, expected 2"]
        gap = near[1] - near[0]
        if not (gap < ES_PAIR_GAP_TOL and abs(near[1] - z0) < 1e-3):
            return [f"es pair gap {gap:.2e} at z0 = {z0}"]
        return []

    def calibration(self):
        lo = self.lib.lattice_oracle
        a, b, mu = self.config
        L = self.ls[1]
        return lambda: lo.sector_count_above(lo.build(self.lap, L, a=a, b=b, mu=mu),
                                             LAP_E_MAX, ORACLE_MARGIN, k=ORACLE_K)


WORKLOADS = {w.name: w for w in (SpectrumSweep, CouplingScan, ModelConstants,
                                 OracleBox)}
