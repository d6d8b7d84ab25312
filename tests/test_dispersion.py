import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lattice_spectra.dispersion import (DiscreteLaplacian, ExponentialHopping,
                                        MorseData, PiecewisePhi, SteppedPhiA,
                                        PI, VALIDATION_GRID_N, ValidationReport,
                                        _grid_values, _refine,
                                        fourier_coefficients,
                                        is_even_per_coordinate, model_from_spec,
                                        model_to_spec, morse_data,
                                        validate_hypothesis, wrap_torus)
from lattice_spectra.errors import CutoffTooSmall, DomainError, NonMaxAtPi
from lattice_spectra.lattice_oracle import _phi_coefficients
from lattice_spectra.torus_quad import QuadratureSpec, default_spec
from test_torus_quad import diagonal_hop_table, hopping_table, next_nearest_hopping


def laplacian_table():
    return ExponentialHopping(table=(
        (0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5), (0, -1, -0.5)))


ALL_MODELS = [DiscreteLaplacian(), laplacian_table(),
              PiecewisePhi(eps=0.5), SteppedPhiA(a_param=0.3)]


def test_wrap_torus_range_and_endpoint():
    assert wrap_torus(PI) == PI
    assert wrap_torus(-PI) == PI
    assert wrap_torus(3 * PI / 2) == pytest.approx(-PI / 2)
    t = np.linspace(-10, 10, 1001)
    w = wrap_torus(t)
    assert np.all(w > -PI) and np.all(w <= PI)


def _wrap_by_mod(t):
    out = np.mod(np.asarray(t, dtype=float) + PI, 2 * PI) - PI
    return np.where(out == -PI, PI, out)


EDGE_ANGLES = (PI, -PI, 3 * PI, -3 * PI, 0.0, -0.0,
               np.nextafter(-PI, 0.0), np.nextafter(-PI, -4.0),
               np.nextafter(PI, 4.0), np.nextafter(3 * PI, 0.0))


@pytest.mark.parametrize("lo, hi", [(PI - 1, PI + 1), (-3 * PI, 3 * PI),
                                    (-50.0, 50.0)])
def test_wrap_torus_is_bitwise_mod(lo, hi):
    # (-50, 50) spans several periods on either side of the fundamental domain
    t = np.random.default_rng(7).uniform(lo, hi, 100_000)
    assert wrap_torus(t).tobytes() == _wrap_by_mod(t).tobytes()
    with_edges = np.concatenate((t, [a for a in EDGE_ANGLES if lo <= a < hi]))
    assert wrap_torus(with_edges).tobytes() == _wrap_by_mod(with_edges).tobytes()


@pytest.mark.parametrize("t", [*EDGE_ANGLES, 1.0, np.float64(-2.0), [],
                               -3 * PI - 0.5, 3 * PI + 0.5,
                               np.nan, [np.nan, 1.0], [-np.inf, 0.0]],
                         ids=repr)
def test_wrap_torus_special_inputs_are_bitwise_mod(t):
    with np.errstate(invalid="ignore"):
        got, want = wrap_torus(t), _wrap_by_mod(t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_laplacian_values(lap):
    assert lap.values(PI, PI) == pytest.approx(4.0)
    assert lap.values(0.0, 0.0) == pytest.approx(0.0)
    assert lap.values(PI / 2, -PI / 2) == pytest.approx(2.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_deficit_matches_values(model):
    _check_deficit(model)


def _kink_distance(model):
    # the distance from pi to the nearest kink: e is analytic inside it
    return min((PI - abs(k) for k in model.breakpoints or ()), default=np.inf)


def _check_deficit(model):
    rng = np.random.default_rng(11)
    r = min(0.2, 0.5 * _kink_distance(model))
    u1 = rng.uniform(-r, r, 64)
    u2 = rng.uniform(-r, r, 64)
    direct = model.e_max - model.values(wrap_torus(PI + u1), wrap_torus(PI + u2))
    stable = model.deficit(u1, u2)
    assert np.max(np.abs(direct - stable)) < 1e-12 * max(1.0, model.e_max)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_symmetries(model):
    rng = np.random.default_rng(3)
    p1 = rng.uniform(-PI, PI, 128)
    p2 = rng.uniform(-PI, PI, 128)
    v = model.values(p1, p2)
    assert np.allclose(v, model.values(-p1, -p2), atol=1e-12)
    assert np.allclose(v, model.values(p2, p1), atol=1e-12)


def test_morse_data_laplacian(lap):
    md = morse_data(lap)
    assert md.e_max == pytest.approx(4.0)
    assert md.e_min == pytest.approx(0.0, abs=1e-10)
    assert md.maximizer[0] == pytest.approx(PI)
    assert md.maximizer[1] == pytest.approx(PI)
    assert np.allclose(md.hessian_matrix, -np.eye(2), atol=1e-8)
    assert md.j_psi0 == pytest.approx(2.0, rel=1e-9)
    assert md.j0 == pytest.approx(1.0 / (2 * PI), rel=1e-9)


def test_morse_data_hopping_matches_laplacian(lap):
    md1 = morse_data(lap)
    md2 = morse_data(laplacian_table())
    assert md2.e_max == pytest.approx(md1.e_max, rel=1e-12)
    assert md2.j0 == pytest.approx(md1.j0, rel=1e-8)


def test_morse_data_stepped():
    md = morse_data(SteppedPhiA(a_param=0.5))
    assert md.e_max == pytest.approx(1.0)
    assert np.allclose(md.hessian_matrix, -2 * np.eye(2), atol=1e-7)
    assert md.j_psi0 == pytest.approx(1.0, rel=1e-7)


def flipped_laplacian():
    # e(p) = 2 + cos p1 + cos p2 peaks at the origin, not at (pi, pi)
    return ExponentialHopping(table=(
        (0, 0, 2.0), (1, 0, 0.5), (-1, 0, 0.5), (0, 1, 0.5), (0, -1, 0.5)))


def _richardson_hessian(model, h=1e-2):
    # central differences of e at pi_vec with one Richardson step, error
    # O(h^4); at h = 1e-2 it lies within 3e-10 of the closed forms
    def hess(step):
        f = lambda a, b: float(model.values(PI + a, PI + b))
        f0 = f(0.0, 0.0)
        d11 = (f(step, 0.0) - 2 * f0 + f(-step, 0.0)) / step ** 2
        d22 = (f(0.0, step) - 2 * f0 + f(0.0, -step)) / step ** 2
        d12 = (f(step, step) - f(step, -step)
               - f(-step, step) + f(-step, -step)) / (4 * step ** 2)
        return np.array([[d11, d12], [d12, d22]])

    return (4.0 * hess(h / 2) - hess(h)) / 3.0


@pytest.mark.parametrize("model", [
    DiscreteLaplacian(), SteppedPhiA(a_param=0.5), PiecewisePhi(eps=0.5),
    diagonal_hop_table(0.1), diagonal_hop_table(0.3), next_nearest_hopping(0.1)],
    ids=("laplacian", "stepped-0.5", "piecewise-0.5", "diagonal-hop-0.1",
         "diagonal-hop-0.3", "next-nearest-0.1"))
def test_closed_form_hessian_matches_values(model):
    # morse_data takes hessian_at_max() as given: check it against e itself
    hess = model.hessian_at_max()
    assert np.max(np.abs(_richardson_hessian(model) - hess)) < 1e-8
    assert morse_data(model).hessian == tuple(map(tuple, hess.tolist()))


@pytest.mark.parametrize("model", [
    DiscreteLaplacian(), SteppedPhiA(a_param=0.5), diagonal_hop_table()],
    ids=("laplacian", "stepped-0.5", "diagonal-hop"))
def test_cold_morse_data_stops_refining_at_the_noise(model, monkeypatch):
    # e_max and the Hessian are closed forms: a cold morse_data calls e for
    # the 512 x 512 scan and once per stencil of the polish of e_min only,
    # 20 to 22 calls
    calls = []
    values = type(model).values

    def counted(self, *args):
        calls.append(None)
        return values(self, *args)

    monkeypatch.setattr(type(model), "values", counted)
    morse_data.__wrapped__(model)
    assert len(calls) <= 30


def _frozen_closed_forms(model):
    """(breakpoints, far grid points, analytic radius, e_max, Hessian
    diagonal, deficit) as each separable kind stated them by hand before its
    profile became one table of cosine pieces; the radius is 0.9 times the
    distance from pi to the kink pi - eps, which misses eps in the last bits."""
    if isinstance(model, DiscreteLaplacian):
        return (None, 256, np.inf, 4.0, -1.0,
                lambda u1, u2: 2.0 * np.sin(u1 / 2) ** 2 + 2.0 * np.sin(u2 / 2) ** 2)
    if isinstance(model, PiecewisePhi):
        eps = model.eps
        return ((-(PI - eps), PI - eps), 2048, 0.9 * (PI - (PI - eps)),
                2.0 * (1.0 - np.cos(eps)), -1.0,
                lambda u1, u2: 2.0 * np.sin(u1 / 2) ** 2 + 2.0 * np.sin(u2 / 2) ** 2)
    return ((-3 * PI / 4, -PI / 2, PI / 2, 3 * PI / 4), 2048, 0.9 * (PI / 4),
            1.0, -2.0, lambda u1, u2: np.sin(u1) ** 2 + np.sin(u2) ** 2)


@settings(max_examples=30)
@given(st.one_of(
    st.floats(0.05, 0.95, exclude_min=True, exclude_max=True).map(
        lambda eps: PiecewisePhi(eps=eps)),
    st.floats(0.0, 0.99).map(lambda a: SteppedPhiA(a_param=a))))
@example(DiscreteLaplacian())
def test_separable_kinds_read_off_their_pieces(model):
    # the ALL_MODELS checks on drawn profiles, and the attributes read off
    # the table bitwise equal to the hand-written closed forms they replace
    _check_deficit(model)
    assert np.max(np.abs(_richardson_hessian(model) - model.hessian_at_max())) < 1e-8
    assert model.values(PI, PI) == model.e_max
    rep = validate_hypothesis(model)
    assert rep.passed, rep.failures

    kinks, grid_n, radius, e_max, curvature, deficit = _frozen_closed_forms(model)
    assert model.breakpoints == kinks
    assert default_spec(model) == QuadratureSpec(
        grid_n=grid_n, patch_radius=min(0.5, 0.8 * radius))
    assert model.e_max == e_max
    assert model.hessian_at_max().tobytes() == np.array(
        [[curvature, 0.0], [0.0, curvature]]).tobytes()
    u1, u2 = np.random.default_rng(5).uniform(-0.04, 0.04, (2, 256))
    assert model.deficit(u1, u2).tobytes() == deficit(u1, u2).tobytes()


def _direct_values(model, p1, p2):
    # e = sum ehat(x) cos(x.p) over the whole table, on the full grid
    return sum(v * np.cos(x1 * p1 + x2 * p2) for x1, x2, v in model.table)


def _sampled_even(values):
    # is_even_per_coordinate as it sampled e: 256 seeded points, relative 1e-9
    rng = np.random.default_rng(7)
    p1 = rng.uniform(-PI, PI, 256)
    p2 = rng.uniform(-PI, PI, 256)
    diff = np.max(np.abs(values(p1, p2) - values(-p1, p2)))
    return bool(diff <= 1e-9 * max(1.0, float(np.max(np.abs(values(p1, p2))))))


def _grid_swap_fails(values):
    # validate_hypothesis's swap check as it compared e on its 400^2 grid
    grid = -PI + (np.arange(400) + 0.5) * (2 * PI / 400)
    vals = values(grid[:, None], grid[None, :])
    return bool(np.max(np.abs(vals - vals.T)) > 1e-9 * max(1.0, np.max(np.abs(vals))))


def _apart(a, b):
    # equal, or apart by more than the sampled checks' tolerance: the exact
    # answers differ from them only inside it
    return a == b or abs(a - b) > 1e-6


@settings(max_examples=20)
@given(st.floats(-1.0, -0.1), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
       st.floats(-0.05, 0.05), st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))
@example(-0.5, 0.05, 0.05, 0.01, 0.0)
@example(-0.5, 0.05, 0.05, 0.01, 0.02)
def test_hopping_tables_share_the_cosine_term_formulas(t, d1, d2, s, skew):
    # values, the symmetries and the maximum data of 2-D terms, beyond the
    # two fixed diagonal tables
    assume(_apart(d1, d2) and _apart(s, s + skew))
    model = hopping_table(t, d1, d2, s, skew)
    direct = lambda p1, p2: _direct_values(model, p1, p2)
    p1, p2 = np.random.default_rng(9).uniform(-PI, PI, (2, 1000))
    assert np.max(np.abs(model.values(p1, p2) - direct(p1, p2))) < 1e-14
    assert is_even_per_coordinate(model) == _sampled_even(direct) == (d1 == d2)
    rep = validate_hypothesis(model)
    assert (SWAP in rep.failures) == _grid_swap_fails(direct) == (s + skew != s)
    assume(rep.passed)
    assert model.values(PI, PI) == model.e_max
    _check_deficit(model)
    assert np.max(np.abs(_richardson_hessian(model) - model.hessian_at_max())) < 1e-8
    assert default_spec(model) == QuadratureSpec()


LAP_MORSE = MorseData(e_max=4.0, e_min=0.0, maximizer=(PI, PI),
                      hessian=((-1.0, 0.0), (0.0, -1.0)), j_psi0=2.0,
                      j0=0.15915494309189535)
STEPPED_MORSE = MorseData(e_max=1.0, e_min=0.0, maximizer=(PI, PI),
                          hessian=((-2.0, 0.0), (0.0, -2.0)), j_psi0=1.0,
                          j0=0.07957747154594767)
NOT_UNIQUE = "maximum: not unique (second maximizer away from (pi, pi))"
SWAP = "swap symmetry: e(p1,p2) != e(p2,p1)"
ABOVE_PI = "maximum: e exceeds e(pi, pi) away from (pi, pi)"


@pytest.mark.parametrize("model, want, failures", [
    (DiscreteLaplacian(), LAP_MORSE, ()),
    (laplacian_table(), LAP_MORSE, ()),
    (diagonal_hop_table(), MorseData(
        e_max=4.199999999999999, e_min=0.20000000000000007, maximizer=(PI, PI),
        hessian=((-1.2000000000000002, -0.2), (-0.2, -1.2000000000000002)),
        j_psi0=1.690308509457033, j0=0.13451047731519025), ()),
    (SteppedPhiA(a_param=0.5), STEPPED_MORSE, ()),
    (SteppedPhiA(a_param=0.97), STEPPED_MORSE, ()),
    # tied, not exceeded, at the origin: morse_data's comparison passes
    # and validation's polish rejects the second maximizer
    (SteppedPhiA(a_param=1.0), STEPPED_MORSE, (NOT_UNIQUE,)),
    (PiecewisePhi(eps=0.5), MorseData(
        e_max=0.24483487621925448, e_min=0.0, maximizer=(PI, PI),
        hessian=((-1.0, 0.0), (0.0, -1.0)), j_psi0=2.0,
        j0=0.15915494309189535), ()),
    (flipped_laplacian(), NonMaxAtPi, (ABOVE_PI,))],
    ids=("laplacian", "laplacian-table", "diagonal-hop", "stepped-0.5",
         "stepped-0.97", "stepped-1", "piecewise-0.5", "flipped"))
def test_morse_data_and_validation_are_frozen(model, want, failures):
    # to the bit the values of a Newton search for the maximum on every
    # model that search accepted
    morse_data.cache_clear()
    try:
        md = morse_data(model)
    except DomainError as exc:
        md = type(exc)
    assert md == want
    assert validate_hypothesis(model) == ValidationReport(
        passed=not failures, failures=failures)


FROZEN_MODELS = (DiscreteLaplacian(), laplacian_table(), diagonal_hop_table(),
                 SteppedPhiA(a_param=0.5), SteppedPhiA(a_param=0.97),
                 SteppedPhiA(a_param=1.0), PiecewisePhi(eps=0.5),
                 flipped_laplacian())


def _assert_polish_reaches_scipy_nelder_mead(model, sign):
    # the polishes of morse_data (sign 1, from the lowest node of its
    # 512^2 scan) and validate_hypothesis (sign -1, from the highest node
    # of its grid off the square around pi_vec) end no higher than scipy's
    # Nelder-Mead from the same node, up to 4 eps (e_max - e_min)
    import scipy.optimize
    n = 512 if sign > 0 else VALIDATION_GRID_N
    vals, grid = _grid_values(model, n)
    f = sign * vals
    if sign < 0:
        near = np.abs(wrap_torus(grid - PI)) <= 0.5
        f[near[:, None] & near[None, :]] = np.inf
    i, j = np.unravel_index(np.argmin(f), f.shape)
    fun, _ = _refine(lambda p1, p2: sign * model.values(p1, p2),
                     (grid[i], grid[j]), 2 * PI / n)
    res = scipy.optimize.minimize(
        lambda p: sign * float(model.values(p[0], p[1])), np.array([grid[i], grid[j]]),
        method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
    assert fun <= res.fun + 4 * np.finfo(float).eps * np.ptp(vals)


@pytest.mark.parametrize("model", FROZEN_MODELS,
                         ids=("laplacian", "laplacian-table", "diagonal-hop",
                              "stepped-0.5", "stepped-0.97", "stepped-1",
                              "piecewise-0.5", "flipped"))
@pytest.mark.parametrize("sign", (1.0, -1.0), ids=("min", "max"))
def test_polish_reaches_scipy_nelder_mead_on_the_frozen_models(model, sign):
    _assert_polish_reaches_scipy_nelder_mead(model, sign)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, -0.1), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
       st.floats(-0.05, 0.05), st.sampled_from((1.0, -1.0)))
# a flat valley: a stencil that shrinks every round ends 2e-7 (e_max - e_min)
# above scipy's minimum
@example(-0.15825177370521115, 0.16077777602209758, 0.08597652139224571,
         0.017561934288788966, 1.0)
def test_polish_reaches_scipy_nelder_mead_on_hopping_tables(t, d1, d2, s, sign):
    _assert_polish_reaches_scipy_nelder_mead(hopping_table(t, d1, d2, s), sign)


def _scaled(model, c):
    return ExponentialHopping(table=tuple((x1, x2, c * v) for x1, x2, v in model.table))


def second_max_table(eps):
    # cos 2p1 + cos 2p2 - eps (cos p1 + cos p2): its second maximum 2, at
    # (0, pi) and (pi, 0), lies 2 eps below e_max = 2 + 2 eps
    terms = ((2, 0, 0.5), (0, 2, 0.5), (1, 0, -eps / 2), (0, 1, -eps / 2))
    return ExponentialHopping(table=tuple(
        entry for x1, x2, v in terms for entry in ((x1, x2, v), (-x1, -x2, v))))


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e6))
def test_validation_is_scale_invariant(c):
    # e and c e share their verdict: the Hessian's determinant is compared
    # with its own scale, the second maximum's margin with e_max - e_min;
    # diagonal_hop_table(-0.25) has a singular Hessian and a quartic maximum
    assert validate_hypothesis(_scaled(laplacian_table(), c)).passed
    assert validate_hypothesis(_scaled(second_max_table(1e-4), c)).passed
    assert validate_hypothesis(_scaled(diagonal_hop_table(-0.25), c)).failures == (
        "hessian: degenerate at (pi, pi)",)


@pytest.mark.parametrize("c", (1e-10, 1.0))
def test_scan_excess_is_judged_on_the_scale_of_e(c):
    # cos 2p1 + cos 2p2 + 1e-4 (cos p1 + cos p2) peaks at the origin, 4e-4
    # above e(pi, pi).  Scaled by 1e-10 the excess is 4e-14, which a bound
    # of 1e-12 max(1, |e_max|) forgave: morse_data passed, and the
    # validation read the origin as a second maximizer
    model = _scaled(second_max_table(-1e-4), c)
    with pytest.raises(NonMaxAtPi):
        morse_data(model)
    assert validate_hypothesis(model).failures == (ABOVE_PI,)


@pytest.mark.parametrize("a_param", [0.997, 0.999, 0.99995])
def test_stepped_near_one_has_its_maximum_at_pi(a_param):
    # above A = 0.9964 the node of a 64 x 64 offset grid next to the origin
    # beats the one next to pi_vec, so a search from the best grid node
    # would end at the origin's lower local maximum A
    model = SteppedPhiA(a_param=a_param)
    assert morse_data(model) == STEPPED_MORSE
    rep = validate_hypothesis(model)
    assert rep.passed, rep.failures


def test_hopping_table_requires_symmetry():
    with pytest.raises(ValueError, match=r"ehat\(x\) = ehat\(-x\)"):
        ExponentialHopping(table=((1, 0, -0.5), (0, 0, 2.0)))


@pytest.mark.parametrize("table, problem", [
    (((0, 0, 2.0), (1.5, 0, -0.5), (-1.5, 0, -0.5)), "offsets must be integers"),
    (((0, 0, 2.0), (np.nan, 0, -0.5)), "offsets must be integers"),
    (((0, 0, np.inf), (1, 0, -0.5), (-1, 0, -0.5)), "values must be finite"),
    (((0, 0, 2.0), (1, 0, np.nan), (-1, 0, np.nan)), "values must be finite"),
    (((0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (1, 0, -0.25), (-1, 0, -0.25)),
     "offsets must not repeat"),
    (((0, 0, 2.0), (1.0, 0, -0.5), (1, 0, -0.5), (-1, 0, -0.5)),
     "offsets must not repeat")],
    ids=("half-offset", "nan-offset", "inf-value", "nan-value", "repeat",
         "repeat-as-float"))
def test_hopping_table_checks_each_entry(table, problem):
    # each was accepted before (or rejected as asymmetric): int() truncated
    # 1.5, infinity passed, NaN failed ehat(x) = ehat(-x), and a repeated
    # offset kept its last entry
    with pytest.raises(ValueError, match=r"hopping table entry \(.*\): " + problem):
        ExponentialHopping(table=table)


def test_hopping_table_offsets_may_be_integral_floats():
    model = ExponentialHopping(table=(
        (0.0, 0, 2.0), (1.0, 0, -0.5), (-1.0, 0.0, -0.5), (0, 1, -0.5), (0, -1, -0.5)))
    assert model.table == laplacian_table().table
    assert all(type(x) is int for x1, x2, _ in model.table for x in (x1, x2))


@pytest.mark.parametrize("off", [0.1, 1e-12])
def test_validate_detects_swap_asymmetry(off):
    # ehat(1, 0) != ehat(0, 1); read off the terms exactly, so an asymmetry
    # far inside the old grid check's 1e-9 fails too
    model = ExponentialHopping(table=(
        (0, 0, 2.0), (1, 0, -0.5), (-1, 0, -0.5), (0, 1, -0.5 + off),
        (0, -1, -0.5 + off)))
    assert validate_hypothesis(model).failures == (SWAP,)
    assert _grid_swap_fails(model.values) == (off > 1e-9)


def test_non_max_at_pi_rejected():
    flipped = flipped_laplacian()
    with pytest.raises(NonMaxAtPi):
        morse_data(flipped)
    rep = validate_hypothesis(flipped)
    assert rep.failures == (ABOVE_PI,)


def test_fourier_coefficients_laplacian(lap):
    table = fourier_coefficients(lap, 1)
    d = table.as_dict()
    assert d[(0, 0)] == pytest.approx(2.0, abs=1e-12)
    for x in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert d[x] == pytest.approx(-0.5, abs=1e-12)
    assert table.tail < 1e-12


def test_fourier_reconstruction(lap):
    table = fourier_coefficients(lap, 2).as_dict()
    rng = np.random.default_rng(5)
    for _ in range(16):
        p1, p2 = rng.uniform(-PI, PI, 2)
        rec = sum(v * np.cos(x1 * p1 + x2 * p2) for (x1, x2), v in table.items()) / 1.0
        # cos-sum double counts nothing: the table stores both +-x entries,
        # and e is real even, so sum ehat(x) e^{ip.x} = sum ehat(x) cos(p.x)
        assert rec == pytest.approx(lap.values(p1, p2), abs=1e-10)


def test_separable_hopping_structure():
    # separable kinds have ehat supported on the coordinate axes
    table = fourier_coefficients(PiecewisePhi(eps=0.5), 4).as_dict()
    for (x1, x2), v in table.items():
        if x1 != 0 and x2 != 0:
            assert abs(v) < 1e-10
    # axis values match the 1-D profile coefficients of the box oracle (in
    # turn checked against quadrature of values), up to FFT aliasing
    # (coefficients of the kinked profile decay like 1/n^2, so the N = 256
    # transform is accurate to ~1e-5)
    ref = _phi_coefficients(PiecewisePhi(eps=0.5), 3)
    for n in (1, 2, 3):
        assert table.get((n, 0), 0.0) == pytest.approx(ref[n], abs=1e-5)
        assert table.get((0, n), 0.0) == pytest.approx(ref[n], abs=1e-5)


def test_cutoff_too_small():
    # the kinked profile has slowly decaying coefficients
    with pytest.raises(CutoffTooSmall):
        fourier_coefficients(PiecewisePhi(eps=0.5), 3, tol=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_validate_hypothesis_passes(model):
    rep = validate_hypothesis(model)
    assert rep.passed, rep.failures


def test_validate_detects_non_unique_max():
    # at A = 1 the stepped family attains its maximum off (pi, pi) as well
    rep = validate_hypothesis(SteppedPhiA(a_param=1.0))
    assert rep.failures == (NOT_UNIQUE,)


def test_is_even_per_coordinate():
    # read off the terms, as the sampled check saw it
    skew = ExponentialHopping(table=((0, 0, 1.0), (1, 1, -0.5), (-1, -1, -0.5)))
    for model, even in [*((m, True) for m in ALL_MODELS),
                        (SteppedPhiA(a_param=1.0), True),
                        (next_nearest_hopping(0.1), True),
                        (diagonal_hop_table(0.1), False),
                        (diagonal_hop_table(0.3), False), (skew, False)]:
        assert is_even_per_coordinate(model) == _sampled_even(model.values) == even


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_model_spec_roundtrip(model):
    spec = model_to_spec(model)
    clone = model_from_spec(spec)
    rng = np.random.default_rng(1)
    p1 = rng.uniform(-PI, PI, 32)
    p2 = rng.uniform(-PI, PI, 32)
    assert np.allclose(model.values(p1, p2), clone.values(p1, p2), atol=1e-14)


def test_model_from_spec_unknown_kind():
    with pytest.raises(ValueError):
        model_from_spec({"kind": "mystery"})
