import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from lst import DomainError, hyp2f1_family, integral_i_ab, integral_i_w
from lst.specialfuncs import ETA_MAX
from conftest import i_ab_quadrature

Z_GRID = [-80.0, -20.0, -5.0, -1.0, -0.4, -0.01, 0.0]


def i_w_direct(w, eta):
    value, _ = integrate.quad(lambda x: (x - w) ** 1.5 * x ** (eta - 1.0), w, 1.0,
                              epsabs=1e-14, epsrel=1e-13, limit=300)
    return value


def hyp2f1_euler(eta, z):
    # Euler integral 2F1(1 - eta, 5/2; 7/2; z) = (5/2) integral_0^1 y^(3/2) (1 - z y)^(eta - 1) dy,
    # valid for every z <= 0, |z| >= 1 included
    value, _ = integrate.quad(lambda y: y**1.5 * (1.0 - z * y) ** (eta - 1.0), 0.0, 1.0,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.5 * value


def i_w_half_log(w):
    # logarithmic closed form of the eta = 1/2 tail integral
    return ((4 - 10 * w) * math.sqrt(1 - w)
            + 3 * w * w * (2 * math.log(1 + math.sqrt(1 - w)) - math.log(w))) / 8


class TestHyp2f1Family:
    def test_eta_one_is_constant(self):
        for z in Z_GRID:
            assert hyp2f1_family(1.0, z) == pytest.approx(1.0, abs=1e-12)

    def test_eta_two_polynomial(self):
        for z in Z_GRID:
            assert hyp2f1_family(2.0, z) == pytest.approx(1 - 5 * z / 7, abs=1e-12 * (1 + abs(z)))

    def test_eta_three_polynomial(self):
        for z in Z_GRID:
            expected = (35 * z * z - 90 * z + 63) / 63
            assert hyp2f1_family(3.0, z) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_against_scipy_continuation(self):
        # independent oracle: scipy's series/continuation evaluation
        for eta in (0.5, 0.8, 1.5, 2.5, 4.0):
            for z in Z_GRID:
                expected = float(special.hyp2f1(1 - eta, 2.5, 3.5, z))
                assert hyp2f1_family(eta, z) == pytest.approx(expected, rel=1e-9)

    def test_against_euler_integral(self):
        # independent oracle at non-integer exponents, where no polynomial exists
        for eta in (0.5, 0.7, 1.7, 2.5, 4.2):
            for z in Z_GRID:
                assert hyp2f1_family(eta, z) == pytest.approx(hyp2f1_euler(eta, z), rel=1e-9)

    @pytest.mark.parametrize("eta", [2 - 4e-16, 3 + 5e-14, 1 + 1e-15, 4 - 9e-14])
    def test_exponent_next_to_an_integer(self, eta):
        # scipy returns +-inf here unless the first parameter is an integer
        for z in Z_GRID:
            assert hyp2f1_family(eta, z) == pytest.approx(hyp2f1_euler(eta, z), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_family(math.nan, -1.0)
        with pytest.raises(DomainError):
            hyp2f1_family(0.0, -1.0)
        with pytest.raises(DomainError):
            hyp2f1_family(1.0, 0.5)


class TestIntegralIW:
    def test_at_zero(self):
        for eta in (0.5, 1.0, 2.0, 3.0, 5.0):
            assert integral_i_w(0.0, eta) == pytest.approx(2 / (2 * eta + 3), rel=1e-14)

    def test_at_one(self):
        for eta in (0.5, 1.0, 2.0, 3.0, 5.0):
            assert integral_i_w(1.0, eta) == 0.0

    def test_half_point_gamma_form(self):
        # Gamma-function value at eta = 1 (the argument of the hypergeometric
        # is -1 at w = 1/2, where only the eta = 1 member is constant)
        expected = 3 * math.sqrt(math.pi) * math.gamma(1.0) / (2**4.5 * math.gamma(3.5))
        assert integral_i_w(0.5, 1.0) == pytest.approx(expected, abs=1e-10)
        assert integral_i_w(0.5, 1.0) == pytest.approx(0.4 * 0.5**2.5, rel=1e-12)

    def test_half_point_other_exponents_match_quadrature(self):
        for eta in (0.5, 2.0, 3.0, 5.0):
            assert integral_i_w(0.5, eta) == pytest.approx(i_w_direct(0.5, eta), rel=1e-10)

    def test_closed_form_vs_quadrature_grid(self):
        for eta in (0.5, 1.0, 2.0, 3.0, 5.0):
            for w in np.arange(0.01, 1.0, 0.07):
                direct = i_w_direct(float(w), eta)
                assert integral_i_w(float(w), eta) == pytest.approx(direct, rel=1e-8)

    def test_continuity_at_zero(self):
        for eta in (0.5, 1.0, 2.0, 3.0):
            limit = 2 / (2 * eta + 3)
            assert integral_i_w(1e-9, eta) == pytest.approx(limit, abs=1e-6)

    def test_half_exponent_log_form(self):
        for w in (0.05, 0.2, 0.5, 0.8, 0.99):
            assert integral_i_w(w, 0.5) == pytest.approx(i_w_half_log(w), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            integral_i_w(-0.1, 1.0)
        with pytest.raises(DomainError):
            integral_i_w(1.1, 1.0)


class TestIntegralIAB:
    def test_closed_forms_vs_quadrature_random(self):
        rng = np.random.default_rng(71)
        pairs = [(0.0, float(rng.uniform(0.05, 1.0)))] + [
            tuple(sorted(rng.uniform(0.0, 1.0, size=2))) for _ in range(99)
        ]
        for eta in (0.5, 1.0, 2.0, 3.0):
            for a, b in pairs:
                if b - a < 1e-6:
                    continue
                closed = integral_i_ab(a, b, eta)
                direct = i_ab_quadrature(a, b, eta)
                assert closed == pytest.approx(direct, rel=1e-8, abs=1e-14), (a, b, eta)

    @pytest.mark.parametrize("eta", [0.7, 1.7, 4.2])
    def test_closed_form_vs_quadrature_at_non_integer_exponents(self, eta):
        rng = np.random.default_rng(73)
        pairs = [(0.0, float(rng.uniform(0.05, 1.0)))] + [
            tuple(sorted(rng.uniform(0.0, 1.0, size=2))) for _ in range(49)
        ]
        for a, b in pairs:
            if b - a < 1e-6:
                continue
            closed = integral_i_ab(a, b, eta)
            direct = i_ab_quadrature(a, b, eta)
            assert closed == pytest.approx(direct, rel=1e-8, abs=1e-14), (a, b, eta)

    def test_reference_shapes(self):
        a, b = 0.2, 0.7
        d = b - a
        assert integral_i_ab(a, b, 1.0) == pytest.approx(0.4 * d**2.5, rel=1e-14)
        assert integral_i_ab(a, b, 2.0) == pytest.approx((2 / 35) * d**2.5 * (2 * a + 5 * b), rel=1e-14)
        assert integral_i_ab(a, b, 3.0) == pytest.approx(
            (2 / 315) * d**2.5 * (8 * a * a + 20 * a * b + 35 * b * b), rel=1e-14)

    def test_zero_lower_bound_branch(self):
        # at a = 0 and eta = 1/2 the integrand is x, so the value is b^2 / 2
        for b in (0.1, 0.5, 1.0):
            assert integral_i_ab(0.0, b, 0.5) == pytest.approx(b * b / 2, rel=1e-12)

    def test_positive_and_monotone_in_b(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            a = float(rng.uniform(0, 0.8))
            b1 = float(rng.uniform(a + 0.01, 0.9))
            b2 = float(rng.uniform(b1, 1.0))
            eta = float(rng.choice([0.5, 1.0, 2.0, 3.0, 1.7]))
            v1 = integral_i_ab(a, b1, eta)
            v2 = integral_i_ab(a, b2, eta)
            assert v1 > 0
            assert v2 >= v1

    def test_generic_exponent_uses_quadrature(self):
        assert integral_i_ab(0.1, 0.9, 1.7) == pytest.approx(
            i_ab_quadrature(0.1, 0.9, 1.7), rel=1e-12)

    def test_consistency_with_tail_integral(self):
        # I(w, 1; eta) is the tail integral evaluated by the 2F1 closed form
        for eta in (0.5, 1.0, 2.0, 3.0):
            for w in (0.1, 0.4, 0.75):
                assert integral_i_ab(w, 1.0, eta) == pytest.approx(
                    integral_i_w(w, eta), rel=1e-9)

    @pytest.mark.parametrize("eta", [0.3, 1.0, 1.7, 4.0])
    def test_array_call_equals_float_calls(self, eta):
        rng = np.random.default_rng(75)
        a = np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 0.9, size=60)])
        b = a + rng.uniform(1e-3, 0.1, size=a.size)
        expected = [integral_i_ab(x, y, eta) for x, y in zip(a.tolist(), b.tolist())]
        assert integral_i_ab(a, b, eta).tolist() == expected
        w = np.concatenate([[0.0, 1.0], a])
        assert integral_i_w(w, eta).tolist() == [integral_i_w(x, eta) for x in w.tolist()]
        z = -rng.uniform(0.0, 50.0, size=40)
        assert hyp2f1_family(eta, z).tolist() == [hyp2f1_family(eta, x) for x in z.tolist()]

    @pytest.mark.parametrize("eta", [0.3, 1.0, 4.0])
    def test_negligible_lower_bound(self, eta):
        # a^(eta-1) and (a - b)/a overflow here; the a = 0 value is exact to rounding
        for a in (5e-324, 1e-300, 1e-20):
            assert integral_i_ab(a, 0.5, eta) == pytest.approx(integral_i_ab(0.0, 0.5, eta),
                                                               rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            integral_i_ab(0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            integral_i_ab(-0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            integral_i_ab(0.1, 0.5, 0.0)
        with pytest.raises(DomainError):
            integral_i_ab(np.array([0.1, 0.5]), np.array([0.2, 0.5]), 1.0)


def hyp2f1_mpmath(eta, z):
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(1 - mpmath.mpf(eta), 2.5, 3.5, mpmath.mpf(z)))


class TestSeriesAgainstMpmath:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.05, 12.0) | st.integers(1, 12).map(float) | st.integers(1, 23).map(lambda k: k / 2),
           st.floats(-1e12, 0.0) | st.floats(-4.0, 0.0) | st.floats(-12.0, 12.0).map(lambda e: -10.0**e))
    def test_family_matches_mpmath(self, eta, z):
        assert hyp2f1_family(eta, z) == pytest.approx(hyp2f1_mpmath(eta, z), rel=1e-13, abs=0)

    @pytest.mark.parametrize("a, eta, expected", [
        # mpmath, 50 digits, of 0.4 (1 - a)^2.5 a^(eta-1) 2F1(1 - eta, 5/2; 7/2; (a - 1)/a);
        # scipy's hyp2f1 is off by 1.5e-4 to 2.7e-4 (a = 1e-12) and about 2e-7 (a = 1e-9) here
        (1e-12, 5.5, 0.14285714285689285714),
        (1e-12, 7.5, 0.11111111111092361111),
        (1e-12, 10.5, 0.083333333333196969697),
        (1e-9, 5.5, 0.14285714260714285722),
        (1e-9, 7.5, 0.11111111092361111116),
        (1e-9, 10.5, 0.083333333196969697007),
    ])
    def test_half_integer_exponent_far_from_the_origin(self, a, eta, expected):
        assert integral_i_ab(a, 1.0, eta) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("eta", [0.05, 0.5, 1.0, 2.5, 3.0, 4.2, 7.5, 11.3, 100.0])
    def test_array_elements_do_not_depend_on_each_other(self, eta):
        # both branches, the -2 seam, subnormal and huge |z|, in one array and in
        # sub-arrays that need fewer series terms; eta = 100, where sums run past
        # the float range (z = -170487.07), lies above ETA_MAX and is rejected whole
        # and element by element
        rng = np.random.default_rng(76)
        z = np.concatenate([-rng.uniform(0.0, 3.0, 40), -10.0 ** rng.uniform(-15.0, 15.0, 40),
                            [-170487.07, 0.0, -5e-324, -2.0, np.nextafter(-2.0, -3.0)]])
        rng.shuffle(z)
        if eta > ETA_MAX:
            for part in (z, *z.tolist()):
                with pytest.raises(DomainError, match=r"^eta must lie in \(0, 12\], got 100\.0$"):
                    hyp2f1_family(eta, part)
            return
        one_by_one = np.array([hyp2f1_family(eta, x) for x in z.tolist()])
        index = np.arange(z.size)
        for part in (index, index[:5], index[::3], index.reshape(5, 17)):
            np.testing.assert_array_equal(hyp2f1_family(eta, z[part]), one_by_one[part])

    def test_log_term_and_terminating_series(self):
        # eta = 1/2 puts s = 0 (the log term) in the binomial series; an integer eta
        # ends both series
        for z in (-2.5, -1e6):
            assert hyp2f1_family(0.5, z) == pytest.approx(hyp2f1_mpmath(0.5, z), rel=1e-15)
        for eta in (1.0, 2.0, 3.0):
            for z in (-1.0, -2.0, -3.0, -1e9):
                assert hyp2f1_family(eta, z) == pytest.approx(hyp2f1_mpmath(eta, z), rel=1e-14)

    @pytest.mark.parametrize("eta", [2.55, 4.3, 6.8, 9.1, 11.7])
    def test_far_tail_keeps_full_accuracy(self, eta):
        # y^s with a rounded s = eta + 3/2 - k would lose ln(y) ulps (2e-14 at y = 1e12)
        for z in (-1e6, -1e9, -1e12):
            assert hyp2f1_family(eta, z) == pytest.approx(hyp2f1_mpmath(eta, z), rel=2e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 3.0, 12.0]),
           st.floats(math.log10(2.0**60), 308.0) | st.sampled_from([math.log10(2.0**60), 308.0]))
    def test_past_two_to_the_sixty(self, eta, log_y):
        # y^eta, y^(3/2 - j) and y^(-5/2) apart overflow or underflow there:
        # (0.5, -1e200) was NaN, (0.5, -1e150) 0.0, (3, -1e100) inf, (12, -1e30) NaN
        z = max(-(10.0**log_y), -1e308)
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(1 - mpmath.mpf(eta), 2.5, 3.5, mpmath.mpf(z))
        value = hyp2f1_family(eta, z)  # a RuntimeWarning from lst fails the test
        if exact > sys.float_info.max:
            assert value == math.inf
        else:
            assert value == pytest.approx(float(exact), rel=3e-13, abs=0)

    @pytest.mark.parametrize("eta, z, expected", [
        (0.5, -1e200, 1.25e-100), (0.5, -1e150, 1.25e-75), (3.0, -1e100, 5.555555555555556e199),
        (12.0, -1e30, math.inf), (12.0, -1e308, math.inf)])
    def test_reported_far_values(self, eta, z, expected):
        assert hyp2f1_family(eta, z) == pytest.approx(expected, rel=3e-13)
        assert hyp2f1_family(eta, np.array([z, -1.0]))[0] == hyp2f1_family(eta, z)

    def test_exponent_must_be_finite(self):
        with pytest.raises(DomainError):
            hyp2f1_family(math.inf, -1.0)


class TestRejectedInputs:
    @pytest.mark.parametrize("call", [
        # past the bound y**eta overflows in the tail series for y = (b - a)/a near
        # 2^60 (from eta = 16), giving inf or NaN where the integral is about 1/(eta + 1.5)
        lambda: integral_i_ab(2.0**-59, 1.0, 17.0),
        lambda: integral_i_ab(2.0**-59, 1.0, 20.0),
        lambda: integral_i_ab(1e-12, 1.0, 40.0),
        lambda: integral_i_ab(1e-6, 1.0, 60.0),
        lambda: integral_i_w(np.array([0.0, 0.5]), np.nextafter(ETA_MAX, np.inf)),
        lambda: hyp2f1_family(0.0, -1.0),
        lambda: hyp2f1_family(math.nan, -1.0),
    ], ids=["eta-17", "eta-20", "eta-40", "eta-60", "just-above-bound", "eta-zero", "eta-nan"])
    def test_eta_outside_the_tested_range(self, call):
        with pytest.raises(DomainError, match=r"^eta must lie in \(0, 12\], got "):
            call()


class TestNonFiniteArguments:
    @pytest.mark.parametrize("call, message", [
        (lambda: hyp2f1_family(1.5, math.nan), "^argument z must be finite, got nan$"),
        (lambda: hyp2f1_family(1.5, -math.inf), "^argument z must be finite, got -inf$"),
        (lambda: hyp2f1_family(1.5, np.array([-1.0, math.nan, -math.inf])),
         "^argument z must be finite, got nan$"),
        (lambda: integral_i_ab(0.1, math.inf, 1.5), "^b must be finite, got inf$"),
        (lambda: integral_i_ab(np.array([0.1, 0.2]), np.array([1.0, math.inf]), 1.5),
         "^b must be finite, got inf$"),
        (lambda: integral_i_w(math.nan, 1.5), r"^w must lie in \[0, 1\], got nan$"),
        (lambda: integral_i_w(np.array([0.5, 1.5]), 1.5), r"^w must lie in \[0, 1\], got 1\.5$"),
    ], ids=["z-nan", "z-minus-inf", "z-array", "b-inf", "b-array", "w-nan", "w-array"])
    def test_rejected_by_name(self, call, message):
        # each returned nan or inf, with RuntimeWarnings for -inf and b = inf
        with pytest.raises(DomainError, match=message):
            call()
