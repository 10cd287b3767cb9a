import itertools
import math

import numpy as np
import pytest

from conftest import rot2
from crownlab.iwasawa import domain_test
from crownlab.liegroup import boundary_direction, haar_so, random_p_element
from crownlab.numkernel import group_exp, principal_minors
from crownlab.weights import (
    alpha_pow,
    cos_formula,
    fundamental_profile,
    taylor_coeffs,
)

PI = math.pi
H2 = np.array([PI / 4, -PI / 4])


def boundary_diag(n, rng):
    return boundary_direction(random_p_element(n, rng)).eigenvalues


class TestFundamentalProfile:
    def test_identity_rotation_concentrates(self):
        for n, rep in [(3, 1), (4, 2)]:
            prof = fundamental_profile(np.eye(n), rep)
            assert prof.norms_sq[0] == pytest.approx(1.0)
            assert np.allclose(prof.norms_sq[1:], 0.0)
            assert np.allclose(prof.weights[0], [1.0] * rep + [0.0] * (n - rep))

    def test_sl2_rotation(self):
        theta = 0.7
        prof = fundamental_profile(rot2(theta), 1)
        assert np.allclose(prof.norms_sq, [math.cos(theta) ** 2, math.sin(theta) ** 2])
        assert np.allclose(prof.weights, [[1.0, 0.0], [0.0, 1.0]])

    def test_so3_second_power_sums_to_one(self, rng):
        for _ in range(10):
            prof = fundamental_profile(haar_so(3, rng), 2)
            assert prof.norms_sq.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(prof.norms_sq >= 0.0)

    def test_rep_index_validation(self):
        with pytest.raises(ValueError):
            fundamental_profile(np.eye(3), 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_loop_oracle(self, n, rng):
        # one determinant per subset, stacked in lexicographic order
        for rep in range(1, n):
            k_rot = haar_so(n, rng)
            subsets = list(itertools.combinations(range(n), rep))
            blocks = np.stack([k_rot[np.array(idx), :rep] for idx in subsets])
            weights = np.zeros((len(subsets), n))
            for row, idx in enumerate(subsets):
                weights[row, list(idx)] = 1.0
            prof = fundamental_profile(k_rot, rep)
            assert prof.weights.tobytes() == weights.tobytes()
            assert prof.norms_sq.tobytes() == (np.linalg.det(blocks) ** 2).tobytes()

    def test_weights_are_the_callers_own(self):
        # the subset table is shared between calls; what a caller receives is not
        first = fundamental_profile(np.eye(3), 1)
        first.weights[:] = 7.0
        assert np.array_equal(fundamental_profile(np.eye(3), 1).weights, np.eye(3))


class TestAlphaPow:
    def test_unit_at_zero(self, rng):
        prof = fundamental_profile(haar_so(4, rng), 2)
        assert alpha_pow(prof, boundary_diag(4, rng), 0.0) == pytest.approx(1.0)

    def test_real_time_matches_exterior_power_norm(self, rng):
        # ||Lambda^k(exp(-t h) k_rot) e_{1..k}||^2 from raw submatrix minors
        for _ in range(10):
            n = int(rng.integers(2, 5))
            rep = int(rng.integers(1, n))
            h = boundary_diag(n, rng) * rng.uniform(0.2, 1.0)
            k_rot = haar_so(n, rng)
            t = rng.uniform(0.0, 1.0)
            a = (group_exp(np.diag(h), -t) @ k_rot).real
            direct = sum(
                np.linalg.det(a[np.array(idx), :rep]) ** 2
                for idx in itertools.combinations(range(n), rep)
            )
            prof = fundamental_profile(k_rot, rep)
            assert alpha_pow(prof, h, t) == pytest.approx(direct, rel=1e-11)

    def test_imaginary_time_matches_minors(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = boundary_diag(n, rng) * rng.uniform(0.2, 0.95)
            k_rot = haar_so(n, rng)
            t = rng.uniform(0.0, 0.95)
            g = group_exp(np.diag(h), -1j * t) @ k_rot
            assert domain_test(g)[0]
            minors = principal_minors(g.T @ g)
            for rep in range(1, n):
                prof = fundamental_profile(k_rot, rep)
                ap = alpha_pow(prof, h, 1j * t)
                assert abs(ap - minors[rep - 1]) < 1e-9 * abs(minors[rep - 1])


class TestCosFormula:
    def test_unit_at_zero(self, rng):
        prof = fundamental_profile(haar_so(3, rng), 1)
        assert cos_formula(prof, boundary_diag(3, rng), 0.0) == pytest.approx(1.0)

    def test_sl2_closed_form(self, rng):
        for _ in range(15):
            theta, t = rng.uniform(0, 2 * PI), rng.uniform(0, 1)
            prof = fundamental_profile(rot2(theta), 1)
            expected = math.cos(t * PI / 2) ** 2 + math.sin(t * PI / 2) ** 2 * math.cos(2 * theta) ** 2
            assert cos_formula(prof, H2, t) == pytest.approx(expected, abs=1e-13)

    def test_equals_alpha_pow_modulus_and_contraction(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            rep = int(rng.integers(1, n))
            h = boundary_diag(n, rng)
            prof = fundamental_profile(haar_so(n, rng), rep)
            t = rng.uniform(0.0, 1.0 - 1e-12)
            cf = cos_formula(prof, h, t)
            ap = alpha_pow(prof, h, 1j * t)
            assert abs(cf - abs(ap) ** 2) < 1e-10
            assert cf <= 1.0 + 1e-12
            assert math.sqrt(abs(ap)) <= 1.0 + 1e-9
            assert cf > 0.0


class TestTaylor:
    def test_leading_coefficient_is_boundary_value(self, rng):
        for theta in (0.0, 0.3, 1.1):
            prof = fundamental_profile(rot2(theta), 1)
            coeffs = taylor_coeffs(prof, H2, 4)
            assert coeffs[0] == pytest.approx(math.cos(2 * theta) ** 2, abs=1e-13)
            assert coeffs[0] == pytest.approx(cos_formula(prof, H2, 1.0), abs=1e-13)

    def test_double_zero_at_corner(self):
        coeffs = taylor_coeffs(fundamental_profile(rot2(PI / 4), 1), H2, 4)
        assert abs(coeffs[0]) < 1e-14
        assert abs(coeffs[1]) < 1e-14
        assert coeffs[2] == pytest.approx(PI**2 / 4)

    def test_flat_direction(self):
        prof = fundamental_profile(rot2(0.9), 1)
        coeffs = taylor_coeffs(prof, np.zeros(2), 6)
        assert coeffs[0] == pytest.approx(1.0)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-15)

    def test_partial_sums_reproduce_f(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            h = boundary_diag(n, rng)
            prof = fundamental_profile(haar_so(n, rng), int(rng.integers(1, n)))
            coeffs = taylor_coeffs(prof, h, 30)
            for t in np.linspace(0.5, 0.9999, 12):
                partial = float(np.polyval(coeffs[::-1], 1.0 - t))
                assert abs(partial - cos_formula(prof, h, t)) < 1e-6

    def test_coefficient_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = boundary_diag(n, rng)
            prof = fundamental_profile(haar_so(n, rng), int(rng.integers(1, n)))
            coeffs = taylor_coeffs(prof, h, 20)
            mu = prof.pairings(h)
            c_max = float(np.max(np.abs(mu[:, None] - mu[None, :])))
            for m, a in enumerate(coeffs):
                assert abs(a) <= (2 * c_max) ** m / math.factorial(m) * (1 + 1e-12)

    def test_order_validation(self, rng):
        prof = fundamental_profile(rot2(0.2), 1)
        with pytest.raises(ValueError):
            taylor_coeffs(prof, H2, -1)


class TestLeadingOrder:
    """The order of vanishing of f_{h,k} at t = 1: its first Taylor
    coefficient above 1e-10."""

    def test_generic_angle_is_zero(self):
        coeffs = taylor_coeffs(fundamental_profile(rot2(0.0), 1), H2, 2)
        assert abs(coeffs[0]) > 1e-10

    def test_corner_angle_is_two(self):
        # the SL(2) corner path: |Delta_1|^2 vanishes like (1 - t)^2, which
        # predicts the alpha exponent of 1
        coeffs = taylor_coeffs(fundamental_profile(rot2(PI / 4), 1), H2, 2)
        assert np.all(np.abs(coeffs[:2]) <= 1e-10)
        assert abs(coeffs[2]) > 1e-10

    def test_flat_direction_is_zero(self):
        coeffs = taylor_coeffs(fundamental_profile(rot2(0.7), 1), np.zeros(2), 2)
        assert abs(coeffs[0]) > 1e-10

    def test_matches_boundary_limit(self):
        # 0 < (1-t)^2 |alpha^{-2 lambda}|^2 < inf at t = 1 - 1e-4
        prof = fundamental_profile(rot2(PI / 4), 1)
        t = 1.0 - 1e-4
        scaled = cos_formula(prof, H2, t) / (1.0 - t) ** 2
        a_2 = taylor_coeffs(prof, H2, 2)[2]
        assert scaled == pytest.approx(a_2, rel=1e-3)
