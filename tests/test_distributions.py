"""Distribution models: survival, quantile, tail integrals, sampling.

Gaussian values are checked against quadrature of the density (the model
itself goes through erfc), exponential values against closed forms.
"""

import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from orlicz_bounds import (
    DomainError,
    Gaussian,
    OrliczBoundsError,
    SymExponential,
    TabulatedSurvival,
    TabulationError,
    check_tail_integral_bound,
    parse_distribution,
)
from orlicz_bounds import distributions

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gauss_density(s):
    return SQRT_2_OVER_PI * math.exp(-0.5 * s * s)


def survival_by_quadrature(t):
    val, _ = integrate.quad(gauss_density, t, np.inf)
    return val


def tail_integral_by_quadrature(t):
    val, _ = integrate.quad(lambda s: s * gauss_density(s), t, np.inf)
    return val


class TestGaussian:
    def test_survival_at_zero(self, gaussian):
        assert gaussian.survival(0.0) == 1.0

    def test_survival_matches_quadrature_oracle(self, gaussian):
        for t in (0.3, 1.0, 2.0, 3.5, 5.0):
            assert gaussian.survival(t) == pytest.approx(
                survival_by_quadrature(t), abs=1e-12
            )

    def test_survival_frozen_value(self, gaussian):
        # quadrature oracle gave 0.31731050786291415 at t=1
        assert gaussian.survival(1.0) == pytest.approx(0.31731050786291415, rel=1e-12)

    def test_survival_rejects_negative(self, gaussian):
        with pytest.raises(DomainError):
            gaussian.survival(-0.5)

    def test_tail_integral_at_zero_is_half_normal_mean(self, gaussian):
        assert gaussian.tail_integral(0.0) == pytest.approx(SQRT_2_OVER_PI, rel=1e-14)

    def test_tail_integral_vanishes(self, gaussian):
        assert gaussian.tail_integral(40.0) < 1e-300

    def test_tail_integral_matches_quadrature_oracle(self, gaussian):
        for t in (0.0, 0.5, 1.0, 2.5, 4.0):
            assert gaussian.tail_integral(t) == pytest.approx(
                tail_integral_by_quadrature(t), abs=1e-12
            )

    def test_quantile_inverts_survival(self, gaussian):
        for t in np.linspace(0.01, 7.0, 50):
            assert gaussian.quantile(gaussian.survival(t)) == pytest.approx(t, rel=1e-10)

    def test_neg_log_survival(self, gaussian):
        assert gaussian.neg_log_survival(0.0) == 0.0
        assert gaussian.neg_log_survival(1.0) == pytest.approx(
            -math.log(0.31731050786291415), rel=1e-12
        )
        # precise at large t where erfc underflow territory starts
        n40 = gaussian.neg_log_survival(40.0)
        assert 780 < n40 < 820  # ~ t^2/2

    def test_pointwise_survival_sandwich(self, gaussian):
        t = np.linspace(0.05, 8.0, 400)
        f = gaussian.survival(t)
        upper = SQRT_2_OVER_PI / t * np.exp(-t * t / 2)
        lower = SQRT_2_OVER_PI / (math.e * t) * np.exp(-(t * t + 1 / t**2) / 2)
        assert np.all(f <= upper)
        assert np.all(lower <= f)


class TestSymExponential:
    def test_survival_closed_form(self, symexp):
        assert symexp.survival(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_tail_integral_closed_form_and_quadrature(self, symexp):
        # integral_t^inf s e^{-s} ds = (t + 1) e^{-t}
        assert symexp.tail_integral(1.0) == pytest.approx(2 * math.exp(-1), rel=1e-14)
        val, _ = integrate.quad(lambda s: s * math.exp(-s), 1.0, np.inf)
        assert symexp.tail_integral(1.0) == pytest.approx(val, abs=1e-12)

    def test_rate_parameter(self):
        model = SymExponential(rate=2.5)
        assert model.survival(1.0) == pytest.approx(math.exp(-2.5), rel=1e-15)
        assert model.mean_abs() == pytest.approx(0.4, rel=1e-15)
        assert model.neg_log_survival(3.0) == pytest.approx(7.5, rel=1e-15)

    def test_invalid_rate(self):
        for rate in (0.0, -2.0, math.nan, "2", None, True):
            with pytest.raises(DomainError):
                SymExponential(rate=rate)

    def test_quantile(self, symexp):
        assert symexp.quantile(math.exp(-2.0)) == pytest.approx(2.0, rel=1e-14)


class TestSampling:
    def test_seed_determinism(self, gaussian):
        a = gaussian.sample(np.random.default_rng(42), 5)
        b = gaussian.sample(np.random.default_rng(42), 5)
        assert np.array_equal(a, b)

    def test_gaussian_sample_mean(self, gaussian):
        draws = gaussian.sample(np.random.default_rng(42), 10**6)
        mean = np.abs(draws).mean()
        sigma = math.sqrt(1 - 2 / math.pi)  # std of |xi|
        assert abs(mean - SQRT_2_OVER_PI) < 4 * sigma / 1000.0
        # tail_integral(0) is E|xi|: the sample mean must agree
        assert abs(mean - gaussian.tail_integral(0.0)) < 4 * sigma / 1000.0

    def test_symexp_sample_survival_frequency(self, symexp):
        draws = symexp.sample(np.random.default_rng(7), 10**6)
        freq = np.mean(np.abs(draws) > 1.0)
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / 10**6)
        assert abs(freq - p) < 4 * se

    def test_count_validation(self, gaussian):
        with pytest.raises(DomainError):
            gaussian.sample(np.random.default_rng(0), 0)


class TestInvariants:
    @pytest.mark.parametrize("family", ["gaussian", "symexp"])
    def test_multiplicative_tail_bound(self, family, gaussian, symexp):
        model = gaussian if family == "gaussian" else symexp
        t = np.linspace(0.05, 3.0, 60)
        f = model.survival(t)
        for s in (1, 2, 3, 5):
            assert np.all(model.survival(s * t) <= f**s + 1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "symexp"])
    def test_tail_integral_decreasing_continuous(self, family, gaussian, symexp):
        model = gaussian if family == "gaussian" else symexp
        t = np.linspace(0.0, 6.0, 600)
        ti = model.tail_integral(t)
        assert np.all(np.diff(ti) <= 1e-15)
        assert np.max(np.abs(np.diff(ti))) < 0.02  # no jumps on a fine grid

    def test_grid_validation_requirements(self, gaussian, symexp, gaussian_table_model):
        for model in (gaussian, symexp, gaussian_table_model):
            grid = np.linspace(0.0, 8.0, 201)
            f = model.survival(grid)
            assert f[0] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(f) < 0)
            n = model.neg_log_survival(grid)
            d2 = n[2:] - 2 * n[1:-1] + n[:-2]
            assert np.all(d2 >= -1e-9)
            interior = grid[1:-1]
            back = model.quantile(model.survival(interior))
            assert np.allclose(back, interior, rtol=1e-8)


class TestSubMultiplicativeTailBound:
    def test_gaussian_cases(self, gaussian):
        for t in (1.0, 3.0):
            res = check_tail_integral_bound(gaussian, t)
            assert res.ok, (res.lhs, res.rhs)
            # both sides recomputed with the quadrature oracle
            lhs = tail_integral_by_quadrature(t)
            n = -math.log(survival_by_quadrature(t))
            rhs = (1 + 1 / n) * t * survival_by_quadrature(t)
            assert res.lhs == pytest.approx(lhs, abs=1e-10)
            assert res.rhs == pytest.approx(rhs, abs=1e-10)
            assert lhs <= rhs

    def test_symexp_boundary_equality(self, symexp):
        # (t+1)e^{-t} equals (1 + 1/t) t e^{-t}: the bound is tight here
        res = check_tail_integral_bound(symexp, 2.0)
        assert res.ok
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_requires_positive_t(self, gaussian):
        with pytest.raises(DomainError):
            check_tail_integral_bound(gaussian, 0.0)
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                check_tail_integral_bound(gaussian, t)


class TestTabulated:
    def test_matches_gaussian_source(self, gaussian, gaussian_table_model):
        tab = gaussian_table_model
        for t in (0.0, 0.7, 1.0, 2.3, 5.0, 9.0):
            assert tab.survival(t) == pytest.approx(gaussian.survival(t), rel=1e-9)
        for t in (0.0, 1.0, 3.0):
            assert tab.tail_integral(t) == pytest.approx(
                gaussian.tail_integral(t), abs=5e-9
            )
        assert tab.mean_abs() == pytest.approx(SQRT_2_OVER_PI, abs=5e-9)
        assert tab.n_is_convex()

    def test_quantile_roundtrip(self, gaussian_table_model):
        tab = gaussian_table_model
        interior = np.linspace(0.05, 9.9, 97)
        back = tab.quantile(tab.survival(interior))
        assert np.allclose(back, interior, rtol=1e-8)

    def test_beyond_range_refused(self, gaussian_table_model):
        with pytest.raises(TabulationError):
            gaussian_table_model.survival(10.5)
        with pytest.raises(TabulationError):
            gaussian_table_model.tail_integral(11.0)
        with pytest.raises(TabulationError):
            gaussian_table_model.quantile(1e-30)

    def test_sampling(self, gaussian_table_model):
        draws = gaussian_table_model.sample(np.random.default_rng(3), 10**5)
        mean = np.abs(draws).mean()
        sigma = math.sqrt(1 - 2 / math.pi)
        assert abs(mean - SQRT_2_OVER_PI) < 4 * sigma / math.sqrt(10**5)
        # symmetric signs
        assert abs(np.mean(draws > 0) - 0.5) < 0.02

    def test_writes_into_the_inputs_after_load_move_nothing(self, gaussian):
        """The model keeps copies of ts and fs, and its arrays are read-only:
        the range, the description and every value stay as loaded."""
        ts = np.linspace(0.0, 10.0, 401)
        fs = gaussian.survival(ts)
        model = TabulatedSurvival(ts, fs)
        u = np.linspace(0.0, 10.0, 97)
        before = [model.survival(u), model.neg_log_survival(u), model.tail_integral(u)]
        ts[-1], fs[5] = 5.0, 0.5
        assert model.upper_limit() == 10.0 and model.describe() == "table(n=401, tmax=10)"
        assert model.survival(9.0) == pytest.approx(gaussian.survival(9.0), rel=1e-9)
        after = [model.survival(u), model.neg_log_survival(u), model.tail_integral(u)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        for arr in (model.ts, model.fs, model.log_fs):
            with pytest.raises(ValueError, match="read-only"):
                arr[-1] = 5.0

    def test_rejects_nondecreasing_f(self):
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        fs = np.array([1.0, 0.5, 0.5, 1e-12])
        with pytest.raises(TabulationError, match="strictly decreasing"):
            TabulatedSurvival(ts, fs)

    def test_rejects_bad_first_row(self):
        with pytest.raises(TabulationError, match="t=0"):
            TabulatedSurvival(np.array([0.5, 1.0, 2.0]), np.array([1.0, 0.5, 0.1]))
        with pytest.raises(TabulationError, match="F\\(0\\)"):
            TabulatedSurvival(np.array([0.0, 1.0, 2.0]), np.array([0.9, 0.5, 0.1]))

    @pytest.mark.parametrize("ts, fs", [
        ([0.0, np.nan, 2.0], [1.0, 0.5, 0.1]),
        ([0.0, 1.0, np.inf], [1.0, 0.5, 0.1]),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 0.1]),
        ([0.0, 1.0, 1e308], [1.0, 0.5, 1e-300]),
    ])
    def test_rejects_non_finite_and_extreme_rows(self, ts, fs):
        with pytest.raises(TabulationError, match="cannot interpolate"):
            TabulatedSurvival(np.array(ts), np.array(fs))

    def test_knot_spacing_up_to_the_cube_root_of_the_largest_float(self):
        fs = np.array([1.0, 0.5, 1e-100, 1e-300])
        TabulatedSurvival(5e102 * np.arange(4.0), fs)  # loads without a warning
        with pytest.raises(TabulationError, match=r"^cannot interpolate ln F through the table: "
                                                  r"rows 1-2 are 1e\+103 apart"):
            TabulatedSurvival(1e103 * np.arange(4.0), fs)

    def test_rejects_short_tail(self):
        # F(tmax) far too large: unresolved mass is bad input, refused
        ts = np.linspace(0.0, 2.0, 50)
        fs = np.exp(-ts)
        with pytest.raises(TabulationError,
                           match=r"table too short: unresolved tail mass bound 1\.353e-01 "
                                 r"exceeds 1e-09"):
            TabulatedSurvival(ts, fs)

    def test_nonconvex_flagged(self, nonconvex_table_model):
        assert not nonconvex_table_model.n_is_convex()

    def test_csv_roundtrip(self, tmp_path, gaussian):
        ts = np.linspace(0.0, 12.0, 301)
        path = tmp_path / "table.csv"
        lines = ["t,F"] + [f"{t:.17g},{f:.17g}" for t, f in zip(ts, gaussian.survival(ts))]
        path.write_text("\n".join(lines) + "\n")
        tab = TabulatedSurvival.from_csv(path)
        assert tab.survival(1.0) == pytest.approx(gaussian.survival(1.0), rel=1e-9)

    def test_csv_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0.5,0.6\nnot-a-number,0.4\n")
        with pytest.raises(TabulationError, match="line 3"):
            TabulatedSurvival.from_csv(path)

    def test_csv_wrong_columns_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0.5\n")
        with pytest.raises(TabulationError, match="line 2"):
            TabulatedSurvival.from_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=200),
        st.lists(st.tuples(st.floats(), st.floats()), max_size=8).map(
            lambda rows: "".join(f"{t},{f}\n" for t, f in rows).encode()),
    ))
    def test_csv_any_bytes(self, data):
        # Whatever the file holds: a model or a package error, never another exception.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                TabulatedSurvival.from_csv(path)
            except OrliczBoundsError:
                pass


def test_symexp_refuses_rate_whose_reciprocal_overflows():
    assert SymExponential(rate=1e-308).mean_abs() == 1e308
    for rate in (1e-309, 5e-324):
        with pytest.raises(DomainError, match="reciprocal"):
            SymExponential(rate=rate)
    with pytest.raises(DomainError, match="reciprocal"):
        parse_distribution("symexp:1e-309")


class TestParseDistribution:
    def test_known_specs(self):
        assert isinstance(parse_distribution("gaussian"), Gaussian)
        model = parse_distribution("symexp:2.0")
        assert isinstance(model, SymExponential) and model.rate == 2.0

    def test_unknown_spec(self):
        with pytest.raises(DomainError):
            parse_distribution("cauchy")


@given(st.floats(min_value=0.01, max_value=6.0), st.floats(min_value=0.01, max_value=6.0))
def test_survival_strictly_decreasing_property(a, b):
    model = Gaussian()
    lo, hi = min(a, b), max(a, b)
    if hi - lo > 1e-9:
        assert model.survival(hi) < model.survival(lo)


@given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.05, max_value=2.0))
def test_multiplicative_tail_bound_property(s, t):
    model = SymExponential(rate=1.3)
    assert model.survival(s * t) <= model.survival(t) ** s + 1e-12


@pytest.mark.parametrize("primitive", ["survival", "neg_log_survival", "tail_integral"])
@pytest.mark.parametrize("family", ["gaussian", "symexp", "table"])
def test_public_primitives_validate(gaussian_table_model, family, primitive):
    """The public primitives validate their argument; the raw parts the
    Orlicz handles call do not, so the messages live only here."""
    model = {
        "gaussian": Gaussian(),
        "symexp": SymExponential(rate=2.0),
        "table": gaussian_table_model,
    }[family]
    method = getattr(model, primitive)
    with pytest.raises(DomainError, match="t must not be NaN"):
        method(math.nan)
    with pytest.raises(DomainError, match="t must not be NaN"):
        method(np.array([1.0, math.nan]))
    with pytest.raises(DomainError, match=r"t must be >= 0, got -1\.0"):
        method(-1.0)


def _reference_quantile(table, pchip, p):
    """The table quantile as first written: the guess and Newton loop run on
    the probabilities in the caller's order, on scipy's PCHIP ``pchip`` of
    the table and its derivative. Kept as the oracle for the sorted, blocked
    walk on the package's own PCHIP."""
    dpchip = pchip.derivative()
    lp = np.log(np.minimum(p, 1.0))
    t = np.interp(lp, table._dense_l[::-1], table._dense_t[::-1])
    for _ in range(60):
        resid = pchip(t) - lp
        deriv = dpchip(t)
        step = resid / deriv
        t = np.clip(t - step, table.ts[0], table.ts[-1])
        if np.max(np.abs(step)) <= 1e-13 * max(1.0, float(np.max(t))):
            break
    return t


def _reference_sample(model, pchip, rng, count):
    """``TabulatedSurvival.sample`` with ``_reference_quantile``."""
    u = 1.0 - rng.random(count)
    magnitude = _reference_quantile(model, pchip, u)
    return np.where(rng.random(count) < 0.5, -1.0, 1.0) * magnitude


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(scope="session")
def quantile_tables(gaussian_table_model, nonconvex_table_model):
    return {
        "erfc": gaussian_table_model,
        "nonconvex": nonconvex_table_model,
    }


@settings(max_examples=40)
@given(
    name=st.sampled_from(["erfc", "nonconvex"]),
    size=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extremes=st.integers(min_value=0, max_value=20),
    repeats=st.integers(min_value=0, max_value=500),
)
def test_sorted_quantile_matches_reference_bits(quantile_tables, scipy_pchip, name, size, seed,
                                                extremes, repeats):
    """The sorted walk gives the bits of the unsorted Newton on scipy's
    PCHIP, for quantile and sample, on draws with p = 1, p = F(t_max) and
    repeated entries."""
    model = quantile_tables[name]
    pchip = scipy_pchip(model)
    rng = np.random.default_rng(seed)
    p = rng.uniform(model.fs[-1], 1.0, size)
    p[rng.integers(0, size, extremes)] = 1.0
    p[rng.integers(0, size, extremes)] = model.fs[-1]
    p[rng.integers(0, size, repeats)] = p[rng.integers(0, size, repeats)]
    before = p.copy()
    got = model.quantile(p)
    assert _same_bits(p, before)  # the caller's probabilities are left alone
    assert _same_bits(got, _reference_quantile(model, pchip, p))
    count = int(rng.integers(1, 5001))
    assert _same_bits(model.sample(np.random.default_rng(seed), count),
                      _reference_sample(model, pchip, np.random.default_rng(seed), count))


def test_table_leaves_scipy_interpolate_unloaded():
    """Building the 401-knot erfc table, and reading F and the quantile off
    it, imports no scipy.interpolate: the table's PCHIP is the package's."""
    src = os.path.dirname(os.path.dirname(distributions.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; import numpy as np; from scipy import special; "
         "from orlicz_bounds import TabulatedSurvival; "
         "ts = np.linspace(0.0, 10.0, 401); "
         "model = TabulatedSurvival(ts, special.erfc(ts / np.sqrt(2.0))); "
         "model.survival(ts); model.quantile(np.linspace(0.5, 1.0, 9)); "
         "print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_blocked_quantile_matches_reference_bits(quantile_tables, scipy_pchip):
    """Over several Newton blocks, a last one partly filled."""
    model = quantile_tables["erfc"]
    p = np.random.default_rng(9).uniform(model.fs[-1], 1.0, 3 * distributions._NEWTON_BLOCK + 5)
    want = _reference_quantile(model, scipy_pchip(model), p)
    assert _same_bits(model.quantile(p), want)


def test_quantile_newton_walks_sorted_probabilities(gaussian_table_model, monkeypatch):
    """Every array the Newton loop hands to the interpolant is monotone and
    at most one block long: the speed of the table sampler rests on that,
    and timing would not catch a refactor that drops the sort."""
    seen = []
    kernel = gaussian_table_model._log_f_and_slope

    def recording(t):
        seen.append(np.array(t))
        return kernel(t)

    monkeypatch.setattr(gaussian_table_model, "_log_f_and_slope", recording)
    p = 1.0 - np.random.default_rng(5).random(20_000)
    gaussian_table_model.quantile(p)
    assert seen
    for t in seen:
        steps = np.diff(t)
        assert np.all(steps <= 0) or np.all(steps >= 0)
        assert t.size <= distributions._NEWTON_BLOCK
