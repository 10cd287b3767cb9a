import math

import numpy as np
import pytest

from crownlab.errors import SingularInputError, SymmetryError
from crownlab.liegroup import (
    PElement,
    boundary_direction,
    givens,
    haar_so,
    random_p_element,
    random_sl,
    rho,
    s_max,
)

PI = math.pi


class TestPElement:
    def test_caches_eigenvalues(self):
        x = PElement(np.diag([1.0, 0.0, -1.0]))
        assert np.allclose(x.eigenvalues, [-1.0, 0.0, 1.0])

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="traceless"):
            PElement(np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            PElement([[0.0, 1.0], [0.0, 0.0]])


class TestRho:
    def test_zero(self):
        assert rho(PElement(np.zeros((3, 3)))) == 0.0

    def test_sl2_boundary_point(self):
        assert rho(PElement(np.diag([PI / 4, -PI / 4]))) == pytest.approx(PI / 2)

    def test_sl3_spread(self):
        assert rho(PElement(np.diag([1.0, 0.0, -1.0]))) == pytest.approx(2.0)

    def test_ad_k_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            x = random_p_element(n, rng)
            k = haar_so(n, rng)
            assert abs(rho(PElement(k @ x.matrix @ k.T)) - rho(x)) < 1e-11


class TestCrown:
    def test_origin_inside(self):
        assert rho(PElement(np.zeros((2, 2)))) < PI / 2

    def test_boundary_point_excluded(self):
        assert rho(PElement(np.diag([PI / 4, -PI / 4]))) >= PI / 2

    def test_interior_point(self):
        assert rho(PElement(0.9 * np.diag([PI / 4, -PI / 4]))) < PI / 2


class TestBoundaryDirection:
    def test_sl2(self):
        b = boundary_direction(PElement(np.diag([1.0, -1.0])))
        assert np.allclose(b.matrix, np.diag([PI / 4, -PI / 4]))

    def test_fixed_point(self):
        x = PElement(np.diag([PI / 4, -PI / 4]))
        assert np.allclose(boundary_direction(x).matrix, x.matrix)

    def test_sl3(self):
        b = boundary_direction(PElement(np.diag([2.0, -1.0, -1.0])))
        assert np.allclose(b.matrix, (PI / 6) * np.diag([2.0, -1.0, -1.0]))

    def test_rho_is_half_pi(self, rng):
        for _ in range(25):
            b = boundary_direction(random_p_element(int(rng.integers(2, 7)), rng))
            assert abs(rho(b) - PI / 2) < 1e-13

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            boundary_direction(PElement(np.zeros((2, 2))))


class TestGivens:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stack_rows_special_orthogonal(self, n, rng):
        i, j = np.triu_indices(n, 1)
        angles = rng.uniform(-PI, PI, (7, 1))
        rot = givens(n, i, j, angles)
        assert rot.shape == (7, i.size, n, n)
        gap = np.abs(np.swapaxes(rot, -1, -2) @ rot - np.eye(n)).max()
        assert gap < 1e-15 and np.abs(np.linalg.det(rot) - 1.0).max() < 1e-15

    def test_single_call_is_the_m1_case(self, rng):
        for angle in rng.uniform(-PI, PI, 20):
            single = givens(4, 1, 3, angle)
            assert single.shape == (4, 4)
            assert single.tobytes() == givens(4, 1, 3, [angle])[0].tobytes()

    def test_sign_convention(self):
        rot = givens(4, 3, 1, 0.3)
        c, s = math.cos(0.3), math.sin(0.3)
        expected = np.eye(4)
        expected[np.ix_([3, 1], [3, 1])] = [[c, -s], [s, c]]
        assert np.array_equal(rot, expected)
        assert np.array_equal(givens(2, 0, 1, 0.3), [[c, -s], [s, c]])

    def test_rejects_a_degenerate_plane(self):
        with pytest.raises(ValueError, match="distinct"):
            givens(3, [0, 1], [1, 1], 0.5)

    def test_rejects_a_negative_axis(self):
        # -1 would index from the end and build the non-rotation [[c, c], [-s, s]]
        with pytest.raises(ValueError, match=r"0\.\.1"):
            givens(2, -1, 0, 0.3)

    def test_rejects_an_axis_past_n(self):
        # axis n would fall through to a bare IndexError from the scatter
        with pytest.raises(ValueError, match=r"0\.\.2"):
            givens(3, 0, 3, [0.1, 0.2])


class TestHaar:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_special_orthogonal(self, n):
        q = haar_so(n, 42)
        assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(haar_so(4, 7), haar_so(4, 7))
        assert not np.array_equal(haar_so(4, 7), haar_so(4, 8))

    def test_entry_square_mean_is_one_over_n(self):
        # any orthogonal matrix has entry-square mean exactly 1/n; the
        # distributional content is in a single entry over many draws
        n, draws = 3, 10_000
        samples = np.array([haar_so(n, [99, i])[0, 0] ** 2 for i in range(draws)])
        var = 3.0 / (n * (n + 2)) - 1.0 / n**2
        assert abs(samples.mean() - 1.0 / n) < 3.0 * math.sqrt(var / draws)

    def test_rejects_degenerate_n(self):
        with pytest.raises(ValueError):
            haar_so(1, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_block_rows_special_orthogonal(self, n):
        q = haar_so(n, [6, n], 256)
        gap = np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max()
        det_gap = np.abs(np.linalg.det(q) - 1.0).max()
        assert q.shape == (256, n, n) and gap < 1e-12 and det_gap < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m_prefix", [1, 16, 100, 511])
    def test_block_prefix_equals_smaller_block(self, n, m_prefix):
        assert np.array_equal(haar_so(n, [5, 2], 512)[:m_prefix], haar_so(n, [5, 2], m_prefix))

    def test_single_draw_pinned_int_seed(self):
        pinned = [
            [0.3056572521325831, -0.9440777770580763, -0.12365595450215668],
            [0.9434667295206645, 0.3177984972478506, -0.09420533655048038],
            [0.12823484123411946, -0.08787073467366081, 0.9878433881347647],
        ]
        assert np.array_equal(haar_so(3, 42), pinned)

    def test_single_draw_pinned_generator_stream(self):
        # the second draw from one Generator: each call consumes n * n normals
        rng = np.random.default_rng(2007)
        haar_so(3, rng)
        pinned = [
            [-0.7825358429801292, 0.6180469374784872, -0.07520397279958853],
            [-0.5036288505081981, -0.5573459742184128, 0.6600935130406292],
            [0.3660541426990951, 0.5544217240476703, 0.7474094704489899],
        ]
        assert np.array_equal(haar_so(3, rng), pinned)


class TestSMax:
    def test_unitary_is_one(self, rng):
        for n in (2, 4):
            assert s_max(haar_so(n, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_case_pins_identification(self):
        # diag(2, 1/2) = exp(X) with X = diag(ln 2, -ln 2): e^{rho(X)} = 4
        assert s_max(np.diag([2.0, 0.5])) == pytest.approx(4.0, rel=1e-12)
        assert s_max(np.diag([3.0, 1.0, 1.0 / 3.0])) == pytest.approx(9.0, rel=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularInputError):
            s_max(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
    def test_high_condition_matches_mpmath_oracle(self, scale):
        # g = Q diag(s, 1, 1/s) Q' has ratio s^2; the oracle is a 50-digit
        # SVD of the same float g, and eps * kappa is the conditioning limit
        mpmath = pytest.importorskip("mpmath")
        for seed in range(8):
            g = haar_so(3, [seed, 0]) @ np.diag([scale, 1.0, 1.0 / scale]) @ haar_so(3, [seed, 1])
            with mpmath.workdps(50):
                sv = mpmath.svd_r(mpmath.matrix(g.tolist()), compute_uv=False)
                kappa = float(max(sv) / min(sv))
            assert abs(s_max(g) / kappa - 1.0) <= 100 * np.finfo(float).eps * kappa

    def test_axioms_sampled(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            g, h = random_sl(n, rng), random_sl(n, rng)
            sg, sh = s_max(g), s_max(h)
            assert s_max(g @ h) <= sg * sh * (1 + 1e-10)
            assert abs(s_max(np.linalg.inv(g)) - sg) <= 1e-10 * sg * max(1.0, sg)
            u, v = haar_so(n, rng), haar_so(n, rng)
            assert abs(s_max(u @ g @ v) - sg) <= 1e-10 * sg


def test_random_sl_has_unit_determinant(rng):
    for n in (2, 3, 6):
        g = random_sl(n, rng)
        assert abs(np.linalg.det(g) - 1.0) < 1e-10
