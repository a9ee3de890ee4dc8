"""Orlicz function handles, the norm solver, and Young conjugates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, optimize

from orlicz_bounds import (
    DomainError,
    Gaussian,
    NonConvexError,
    NumericError,
    RangeError,
    SymExponential,
    TabulationError,
    UnboundedNormError,
    OrliczFunction,
    expected_overshoot_function,
    gaussian_comparison_function,
    linear_function,
    neg_log_survival_function,
    orlicz_norm,
    power_function,
    reciprocal_survival_function,
    young_conjugate,
)
from orlicz_bounds.orlicz import _as_weights, _weights_and_reciprocals

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gaussian_m_by_quadrature(s):
    """Oracle: sqrt(2/pi) * integral_0^s exp(-1/(2 t^2)) dt."""
    if s == 0:
        return 0.0
    val, _ = integrate.quad(
        lambda t: SQRT_2_OVER_PI * math.exp(-1.0 / (2.0 * t * t)), 0.0, s
    )
    return val


class TestMomentFunction:
    def test_zero(self, gaussian, symexp):
        assert expected_overshoot_function(gaussian)(0.0) == 0.0
        assert expected_overshoot_function(symexp)(0.0) == 0.0

    def test_gaussian_matches_quadrature_oracle(self, gaussian):
        m = expected_overshoot_function(gaussian)
        for s in (0.3, 1.0, 2.0, 5.0):
            assert m(s) == pytest.approx(gaussian_m_by_quadrature(s), abs=1e-10)

    def test_gaussian_frozen_value(self, gaussian):
        # quadrature oracle: M(1) = 0.16663094117537258
        m = expected_overshoot_function(gaussian)
        assert m(1.0) == pytest.approx(0.16663094117537258, rel=1e-10)

    def test_gaussian_matches_sampling_oracle(self, gaussian):
        # E(s|xi| - 1)_+ estimated directly
        m = expected_overshoot_function(gaussian)
        draws = np.abs(np.random.default_rng(11).standard_normal(10**6))
        for s in (0.8, 1.5):
            samples = np.maximum(s * draws - 1.0, 0.0)
            se = samples.std(ddof=1) / 1000.0
            assert abs(m(s) - samples.mean()) < 4 * se

    def test_symexp_closed_form(self, symexp):
        # integral_1^inf (u - 1) e^{-u} du = e^{-1} at s = 1; generally s e^{-1/s}
        m = expected_overshoot_function(symexp)
        assert m(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        val, _ = integrate.quad(lambda u: (u - 1) * math.exp(-u), 1.0, np.inf)
        assert m(1.0) == pytest.approx(val, abs=1e-12)
        assert m(2.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-12)

    def test_convexity_midpoint(self, gaussian):
        m = expected_overshoot_function(gaussian)
        pts = np.linspace(0.01, 6.0, 40)
        for a in pts[::4]:
            for b in pts[1::5]:
                assert m((a + b) / 2) <= (m(a) + m(b)) / 2 + 1e-9

    def test_handles_are_nondecreasing(self, gaussian):
        grid = np.linspace(0.0, 8.0, 300)
        for fun in (
            expected_overshoot_function(gaussian),
            neg_log_survival_function(gaussian),
            gaussian_comparison_function(),
            reciprocal_survival_function(gaussian, 3),
        ):
            vals = fun.values(grid)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= -1e-15)


class TestNegLogSurvival:
    def test_values(self, gaussian, symexp):
        n = neg_log_survival_function(gaussian)
        assert n(0.0) == 0.0
        assert n(1.0) == pytest.approx(1.147874464449318, rel=1e-12)
        ne = neg_log_survival_function(symexp)
        for t in (0.3, 1.0, 4.0):
            assert ne(t) == pytest.approx(t, rel=1e-14)

    def test_rejects_nonconvex_by_default(self, nonconvex_table_model):
        with pytest.raises(NonConvexError):
            neg_log_survival_function(nonconvex_table_model)
        fun = neg_log_survival_function(nonconvex_table_model, require_convex=False)
        assert fun(1.0) == nonconvex_table_model.neg_log_survival(1.0)

    def test_scaling_inequality(self, gaussian):
        # s * N(t) <= N(s t) for s >= 1, N convex with N(0) = 0
        n = neg_log_survival_function(gaussian)
        t = np.linspace(0.0, 4.0, 50)
        for s in (1.0, 1.5, 2.0, 4.0):
            assert np.all(s * n.values(t) <= n.values(s * t) + 1e-9)


class TestReciprocalSurvival:
    def test_gaussian_value(self, gaussian):
        fun = reciprocal_survival_function(gaussian, 2)
        assert fun(1.0) == pytest.approx(0.31731050786291415 / 4, rel=1e-12)

    def test_limit_at_zero(self, gaussian):
        fun = reciprocal_survival_function(gaussian, 2)
        assert fun(0.0) == 0.0
        assert fun(1e-9) < 1e-200

    def test_symexp_value(self, symexp):
        fun = reciprocal_survival_function(symexp, 3)
        assert fun(0.5) == pytest.approx(math.exp(-2.0) / 8.0, rel=1e-12)

    def test_k_validation(self, gaussian):
        with pytest.raises(RangeError):
            reciprocal_survival_function(gaussian, 1)

    def test_bounded_function_norm_is_zero(self, gaussian):
        # sup N_{F,k} = 1/(4(k-1)); few entries keep the modular sum below 1
        fun = reciprocal_survival_function(gaussian, 5)
        assert orlicz_norm([1.0, 2.0], fun) == 0.0


class TestComparisonFunction:
    def test_pieces(self):
        h = gaussian_comparison_function()
        assert h(0.5) == 0.5
        assert h(1.0) == 1.0
        assert h(3.0) == 9.0

    def test_gaussian_equivalence_grid(self, gaussian):
        t = np.linspace(0.01, 10.0, 1000)
        h = gaussian_comparison_function().values(t)
        n = gaussian.neg_log_survival(t)
        assert np.all(n >= h / math.sqrt(2 * math.pi * math.e))
        assert np.all(n <= 4.5 * h)


class TestNormSolver:
    def test_l1_recovery(self):
        assert orlicz_norm([1, 2, 3], linear_function()) == pytest.approx(6.0, rel=1e-10)

    def test_l2_recovery(self):
        assert orlicz_norm([3, 4], power_function(2)) == pytest.approx(5.0, rel=1e-10)

    def test_power_exponent_validation(self):
        for q in (0.5, math.nan):
            with pytest.raises(RangeError):
                power_function(q)
        # t^inf is the 0/1/inf step at 1: its norm is the max norm
        assert orlicz_norm([3, 4], power_function(math.inf)) == pytest.approx(4.0, rel=1e-10)

    def test_lp_recovery_random(self):
        rng = np.random.default_rng(0)
        lin, sq = linear_function(), power_function(2)
        for _ in range(100):
            x = rng.uniform(0.1, 10.0, rng.integers(1, 12))
            assert orlicz_norm(x, lin) == pytest.approx(np.sum(np.abs(x)), rel=1e-10)
            assert orlicz_norm(x, sq) == pytest.approx(
                math.sqrt(np.sum(x * x)), rel=1e-10
            )

    def test_gaussian_singleton(self, gaussian):
        # rho solves M(1/rho) = 1; oracle: root of the quadrature form of M
        m = expected_overshoot_function(gaussian)
        s_star = optimize.brentq(lambda s: gaussian_m_by_quadrature(s) - 1.0, 0.5, 4.0,
                                 xtol=1e-13)
        assert s_star == pytest.approx(2.2918613785635156, rel=1e-10)
        assert orlicz_norm([1.0], m) == pytest.approx(1.0 / s_star, rel=1e-9)

    def test_residual_at_root(self, gaussian):
        m = expected_overshoot_function(gaussian)
        x = np.array([0.7, 1.3, 2.9, 0.2])
        rho = orlicz_norm(x, m)
        assert abs(np.sum(m.values(x / rho)) - 1.0) <= 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            orlicz_norm([0.0, 0.0], linear_function())

    def test_infinite_entries_unbounded(self):
        with pytest.raises(UnboundedNormError):
            orlicz_norm([1.0, math.inf], linear_function())

    def test_zeros_are_ignored(self):
        assert orlicz_norm([0.0, 5.0, 0.0], linear_function()) == pytest.approx(5.0, rel=1e-10)

    def test_extended_value_domain_bound(self):
        # fun = t/4 on [0, 2], +inf beyond: the domain bound binds before the
        # modular budget does, so ||(v)|| = v/2
        fun = OrliczFunction("capped", lambda t: np.where(t > 2.0, math.inf, t / 4.0))
        assert orlicz_norm([4.0], fun) == pytest.approx(2.0, rel=1e-9)

    def test_weights_input(self):
        assert orlicz_norm(np.array([1.0, 2.0, 3.0]), linear_function()) == pytest.approx(6.0, rel=1e-10)

    def test_subnormal_norm_terminates(self):
        # Below about 5e-312 the relative bracket width is under the float
        # spacing; a bisection that relies on it alone never stops.
        calls = 0

        def counted_linear(t):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("norm solver did not terminate")
            return t

        fun = OrliczFunction("counted-t", counted_linear)
        rho = orlicz_norm([1e-320, 2e-320], fun)
        assert rho == pytest.approx(3e-320, rel=1e-3)
        assert 1e-320 / rho + 2e-320 / rho <= 1.0

    def test_overflowing_bracket_starts_at_the_largest_float(self):
        # n * max|x| / t_lo overflows; the bracket starts at the largest
        # float instead, and the norm itself is finite.
        rho = orlicz_norm([1e308, 1e307], linear_function())
        assert rho == pytest.approx(1.1e308, rel=1e-10)
        assert 1e308 / rho + 1e307 / rho <= 1.0

    def test_overflowing_norm_raises(self):
        with pytest.raises(NumericError):
            orlicz_norm([1e308, 1e308], linear_function())


class TestNormProperties:
    @pytest.mark.parametrize("lam", [0.1, 3.0, 100.0])
    def test_homogeneity(self, gaussian, lam):
        m = expected_overshoot_function(gaussian)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(0.1, 5.0, 7)
            assert orlicz_norm(lam * x, m) == pytest.approx(
                lam * orlicz_norm(x, m), rel=1e-8
            )

    def test_monotone_in_function(self, gaussian):
        # pointwise smaller function gives smaller norm
        m = expected_overshoot_function(gaussian)
        m2 = m.scaled(2.0)
        t = np.linspace(0.0, 50.0, 301)
        assert np.all(m.values(t) <= m2.values(t))
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(0.1, 5.0, 6)
            assert orlicz_norm(x, m) <= orlicz_norm(x, m2) + 1e-9

    def test_triangle_inequality(self, gaussian):
        funs = [
            linear_function(),
            power_function(2),
            expected_overshoot_function(gaussian),
            neg_log_survival_function(gaussian),
        ]
        rng = np.random.default_rng(3)
        for fun in funs:
            for _ in range(25):
                n = rng.integers(1, 9)
                a = rng.uniform(0.0, 4.0, n)
                b = rng.uniform(0.0, 4.0, n)
                if not a.any() or not b.any():
                    continue
                assert orlicz_norm(a + b, fun) <= (
                    orlicz_norm(a, fun) + orlicz_norm(b, fun) + 1e-9
                )

    def test_scale_identity(self, gaussian):
        n = neg_log_survival_function(gaussian)
        assert n.scaled(1.0) is n
        t = np.linspace(0, 5, 40)
        assert np.allclose(n.scaled(1.0).values(t), n.values(t))

    def test_scaled_norm_comparison(self, gaussian):
        # ||x||_{sM} <= s ||x||_M for s >= 1
        n = neg_log_survival_function(gaussian)
        s = 2 * math.e
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0.2, 4.0, 8)
            assert orlicz_norm(x, n.scaled(s)) <= s * orlicz_norm(x, n) * (1 + 1e-9)

    def test_comparison_function_scaled_norm(self):
        # ||(1,1,1,1)||_{H/4}: 4 * (1/4) * H(1/rho) = 1 at rho = 1
        h = gaussian_comparison_function()
        assert orlicz_norm(np.ones(4), h.scaled(0.25)) == pytest.approx(1.0, rel=1e-9)


class TestConjugate:
    def test_trivial_at_mean(self, gaussian):
        m = expected_overshoot_function(gaussian)
        assert young_conjugate(m, SQRT_2_OVER_PI) == pytest.approx(1.0, abs=1e-9)

    def test_matches_survival_at_threshold(self, gaussian):
        m = expected_overshoot_function(gaussian)
        s = gaussian.tail_integral(1.0)
        assert young_conjugate(m, s) == pytest.approx(0.31731050786291415, abs=1e-10)

    def test_infinite_beyond_mean(self, gaussian):
        m = expected_overshoot_function(gaussian)
        assert young_conjugate(m, 0.9) == math.inf
        assert young_conjugate(m, SQRT_2_OVER_PI * (1 + 1e-6)) == math.inf

    def test_search_agrees_with_shortcut(self, gaussian, symexp):
        for model in (gaussian, symexp):
            m = expected_overshoot_function(model)
            for t in (0.25, 1.0, 2.0, 3.5):
                s = model.tail_integral(t)
                a = young_conjugate(m, s)
                b = young_conjugate(m, s, method="search")
                assert b == pytest.approx(a, abs=1e-7)

    def test_search_infinite_beyond_mean(self, gaussian):
        m = expected_overshoot_function(gaussian)
        assert young_conjugate(m, SQRT_2_OVER_PI * (1 + 1e-6), method="search") == math.inf

    def test_power_conjugate(self):
        # sup ts - t^2 = s^2 / 4
        sq = power_function(2)
        for s in (0.5, 1.0, 3.0):
            assert young_conjugate(sq, s, method="search") == pytest.approx(
                s * s / 4, rel=1e-8
            )

    @pytest.mark.parametrize("s", [1e20, 1e100, 1e150])
    def test_search_at_large_scales(self, s):
        # the maximizer s/2 lies far past 1e15: the expansion runs on to
        # the top of the float range
        assert young_conjugate(power_function(2), s, method="search") == pytest.approx(
            s * s / 4, rel=1e-8
        )

    @pytest.mark.parametrize("rate", [1e10, 1e30, 1e200])
    def test_search_at_small_scales(self, rate):
        # phi = t s - M(t) stays far below 1 here: the expansion compares
        # each increase with phi itself, not with 1
        model = SymExponential(rate)
        m = expected_overshoot_function(model)
        for z in (0.0, 1.5):
            s = model.tail_integral(z / rate)
            got = young_conjugate(m, s, method="search")
            assert got == pytest.approx(math.exp(-z), abs=1e-6)

    def test_linear_conjugate(self):
        lin = linear_function()
        assert young_conjugate(lin, 0.5, method="search") == 0.0
        assert young_conjugate(lin, 1.5, method="search") == math.inf

    def test_zero_argument(self, gaussian):
        m = expected_overshoot_function(gaussian)
        assert young_conjugate(m, 0.0) == 0.0

    def test_duality_identity_grid(self, gaussian):
        m = expected_overshoot_function(gaussian)
        for t in np.arange(0.0, 4.01, 0.25):
            s = gaussian.tail_integral(float(t))
            err = abs(young_conjugate(m, s, method="search") - gaussian.survival(float(t)))
            assert err <= 1e-6

    @pytest.mark.parametrize("rate", [1e-100, 1e-20, 1.0, 1e20, 1e100])
    def test_shortcut_holds_at_every_gaussian_scale(self, rate):
        # A model has no scale; a symmetric exponential has one per rate.
        model = SymExponential(rate)
        got = young_conjugate(expected_overshoot_function(model), model.tail_integral(1.5 / rate))
        assert got == pytest.approx(math.exp(-1.5), rel=1e-10)

    @pytest.mark.parametrize("rate", [1e-5, 1e5])
    def test_shortcut_holds_at_extreme_symexp_rates(self, rate):
        model = SymExponential(rate)
        s = model.tail_integral(1.5 / rate)
        assert young_conjugate(expected_overshoot_function(model), s) == pytest.approx(
            math.exp(-1.5), rel=1e-10
        )

    def test_shortcut_near_the_top_of_the_float_range(self):
        # Rate 1e-308: tail_integral(t) = (t + 1e308) e^(-1e-308 t). At
        # s = mean/2 the threshold is 1.68e308 (mpmath: F = e^-z with
        # (z + 1) e^-z = 1/2); at s = mean/10 it is 3.9e308, past the range.
        model = SymExponential(1e-308)
        m = expected_overshoot_function(model)
        assert young_conjugate(m, 5e307) == pytest.approx(0.186682308850837, rel=1e-10)
        with pytest.raises(NumericError):
            young_conjugate(m, 1e307)

    @pytest.mark.parametrize("t", [8.5, 9.0, 9.99])
    def test_shortcut_reaches_the_end_of_a_table(self, gaussian_table_model, t):
        m = expected_overshoot_function(gaussian_table_model)
        got = young_conjugate(m, gaussian_table_model.tail_integral(t))
        assert got == pytest.approx(gaussian_table_model.survival(t), rel=1e-9)

    def test_shortcut_refuses_a_threshold_past_the_table(self, gaussian_table_model):
        m = expected_overshoot_function(gaussian_table_model)
        with pytest.raises(TabulationError):
            young_conjugate(m, 0.5 * gaussian_table_model.tail_integral(10.0))

    def test_unknown_method_refused(self, gaussian):
        m = expected_overshoot_function(gaussian)
        for fun in (m, linear_function()):
            for s in (0.5, 0.0):  # checked before the s = 0 shortcut
                with pytest.raises(DomainError, match="unknown conjugate method"):
                    young_conjugate(fun, s, method="bogus")
        # "auto" already takes the tail shortcut for a moment function
        with pytest.raises(DomainError, match="unknown conjugate method"):
            young_conjugate(m, 0.5, method="tail")


class TestWeights:
    """The one check of a weight vector, on plain arrays."""

    def test_order_violation_names_entry(self):
        with pytest.raises(DomainError, match="entry 3"):
            _weights_and_reciprocals([1.0, 2.0, 1.5], "ascending")
        with pytest.raises(DomainError, match="entry 2"):
            _weights_and_reciprocals([1.0, 2.0], "descending")

    def test_positive_validation(self):
        with pytest.raises(DomainError, match="entry 2"):
            _weights_and_reciprocals([1.0, -2.0, 3.0], "ascending")
        with pytest.raises(DomainError, match="entry 3 is inf"):
            _weights_and_reciprocals([1.0, 2.0, math.inf])

    def test_valid(self):
        w, inv = _weights_and_reciprocals([3.0, 2.0, 2.0, 1.0], "descending")
        assert w.tolist() == [3.0, 2.0, 2.0, 1.0]
        assert inv.tolist() == [1.0 / 3.0, 0.5, 0.5, 1.0]
        assert _as_weights([1e-310]).tolist() == [1e-310]


@given(
    st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=10),
    st.sampled_from([0.5, 2.0, 7.0]),
)
def test_homogeneity_property(xs, lam):
    fun = power_function(1.5)
    x = np.array(xs)
    assert orlicz_norm(lam * x, fun) == pytest.approx(lam * orlicz_norm(x, fun), rel=1e-8)


@given(st.floats(min_value=0.0, max_value=8.0), st.floats(min_value=0.0, max_value=8.0))
def test_h_midpoint_convexity(a, b):
    h = gaussian_comparison_function()
    assert h((a + b) / 2) <= (h(a) + h(b)) / 2 + 1e-9


_SUBNORMALS = np.array([5e-324, 1e-320, 1e-315, 1e-310, 2.2250738585072014e-308 * (1 - 2**-52)])


def _handles(models):
    out = [("linear", linear_function()), ("power", power_function(2.5)),
           ("comparison", gaussian_comparison_function()),
           ("scaled", power_function(2.0).scaled(1e-200))]
    for name, model in models.items():
        out += [
            (f"moment-{name}", expected_overshoot_function(model)),
            (f"N-{name}", neg_log_survival_function(model, require_convex=False)),
            (f"reciprocal-{name}", reciprocal_survival_function(model, 3)),
            (f"scaled-moment-{name}", expected_overshoot_function(model).scaled(7.0)),
        ]
    return out


def test_values_have_no_nan_on_subnormals_and_the_probe_grid(gaussian_table_model):
    from orlicz_bounds.orlicz import _PROBES

    models = {
        "gaussian": Gaussian(),
        "symexp": SymExponential(1.0),
        "symexp-1e-299": SymExponential(rate=1e-299),
        "symexp-1e300": SymExponential(rate=1e300),
        "table": gaussian_table_model,
    }
    points = np.concatenate(([0.0], _SUBNORMALS, _PROBES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fun in _handles(models):
            vals = fun.values(points)
            assert not np.any(np.isnan(vals)), (name, points[np.isnan(vals)])
        # M(0) = 0 and F(1/0) = F(inf) = 0, exactly, with no mask in the handles
        for name, model in models.items():
            for fun in (expected_overshoot_function(model), reciprocal_survival_function(model, 3)):
                for handle in (fun, fun.scaled(7.0)):
                    assert handle.values(points)[0] == 0.0, (name, handle.label)
                    assert handle(0.0) == 0.0, (name, handle.label)


def test_symexp_tail_integral_is_zero_at_infinity():
    model = SymExponential(1.0)
    with np.errstate(invalid="ignore"):  # as inside the solver
        assert model._tail_integral(np.array([np.inf]))[0] == 0.0
    assert model.tail_integral(math.inf) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expected_overshoot_function(SymExponential(1.0)).values(1e-310) == 0.0


def test_symexp_shared_exp_keeps_the_kernel_bits():
    u = np.exp(np.linspace(-30.0, 30.0, 301))
    for model in (SymExponential(1.0), SymExponential(0.37 / 2.5)):
        tail, surv = model._tail_integral_and_survival(u)
        assert np.array_equal(tail, model._tail_integral(u))
        assert np.array_equal(surv, model._survival(u))


def test_norm_at_tiny_symexp_rate_is_finite():
    # The M norm sits at 1.8e299, so v / rho is subnormal: M there is 0, not
    # nan, and the solver finds the norm instead of reporting an overflow.
    nm = orlicz_norm(np.ones(11), expected_overshoot_function(SymExponential(rate=1e-299)))
    assert nm == pytest.approx(1.8065e299, rel=1e-4)


def test_symexp_moment_is_finite_where_the_tail_shift_overflows():
    # u + 1/rate overflows for u = 1/s near 1e308 at rate 1e-308, though
    # M(s) = (s/rate) e^(-rate/s) is below 1 there.
    rate = 1e-308
    m = expected_overshoot_function(SymExponential(rate))
    s = np.array([6e-309, 1e-308, 1.2e-308])
    assert np.allclose(m.values(s), (s / rate) * np.exp(-rate / s), rtol=1e-12, atol=0.0)
    # mpmath: rho = 1 / (z rate) with z e^(-1/z) = 1, and 1e-10 / (z rate)
    # with z e^(-1/z) = 1/2.
    assert orlicz_norm([1.0], m) == pytest.approx(5.67143290409784e307, rel=1e-10)
    assert orlicz_norm([1e-10, 1e-10], m) == pytest.approx(8.52605502013725e297, rel=1e-10)
