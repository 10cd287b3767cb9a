import dataclasses
import math

import numpy as np
import pytest

from conftest import rot2
from crownlab import config, iwasawa
from crownlab.errors import BranchAmbiguityError, DomainExitError
from crownlab.growth import component_scales_batch
from crownlab.iwasawa import (
    check_H_range,
    continue_factors,
    decompose_path,
    decompose_real,
    domain_test,
)
from crownlab.liegroup import (
    PElement,
    boundary_direction,
    givens,
    haar_so,
    random_p_element,
    random_sl,
)
from crownlab.numkernel import group_exp
from crownlab.prinseries import sl2_iwasawa_closed

PI = math.pi
X2 = PElement(np.diag([PI / 4, -PI / 4]))
X3 = PElement(np.diag([PI / 4, 0.0, -PI / 4]))


def crown_point(x: PElement, k: np.ndarray, t: float) -> np.ndarray:
    return group_exp(x.matrix, -1j * t) @ k


def random_diag_direction(n, rng, scale=(0.3, 1.0)):
    d = rng.standard_normal(n)
    d -= d.mean()
    d *= rng.uniform(*scale) * (PI / 2) / (d.max() - d.min())
    return PElement(np.diag(d))


class TestDecomposeReal:
    def test_shear(self):
        f = decompose_real([[1.0, 0.0], [1.0, 1.0]])
        r = 1 / math.sqrt(2)
        assert np.allclose(f.kappa, [[r, -r], [r, r]])
        assert np.allclose(f.alpha, [math.sqrt(2), r])
        assert np.allclose(f.eta, [[1.0, 0.5], [0.0, 1.0]])

    def test_identity(self):
        f = decompose_real(np.eye(3))
        assert np.allclose(f.kappa, np.eye(3))
        assert np.allclose(f.H, np.zeros(3))
        assert np.allclose(f.eta, np.eye(3))

    def test_already_diagonal(self):
        f = decompose_real(np.diag([2.0, 0.5]))
        assert np.allclose(f.kappa, np.eye(2))
        assert np.allclose(f.H, [math.log(2), -math.log(2)])
        assert np.allclose(f.eta, np.eye(2))

    def test_rejects_non_sl(self):
        with pytest.raises(ValueError, match="SL"):
            decompose_real(2.0 * np.eye(2))

    def test_reconstruction_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g = random_sl(n, rng)
            f = decompose_real(g)
            assert np.linalg.norm(f.reconstruct().real - g) < 1e-10 * np.linalg.norm(g)
            assert np.linalg.norm(f.kappa.T @ f.kappa - np.eye(n)) < 1e-9
            assert abs(np.sum(f.H)) < 1e-10


class TestDomainTest:
    def test_real_sl_always_inside(self, rng):
        for _ in range(50):
            ok, _ = domain_test(random_sl(int(rng.integers(2, 6)), rng))
            assert ok

    def test_known_singular_point(self):
        ok, smallest = domain_test([[1.0, 0.0], [1j, 1.0]])
        assert not ok
        assert smallest == pytest.approx(0.0, abs=1e-15)

    def test_identity(self):
        ok, smallest = domain_test(np.eye(4))
        assert ok
        assert smallest == pytest.approx(1.0)

    def test_verdict_matches_component_scales_at_the_floor(self, monkeypatch):
        # The floor is placed exactly on each route's smallest minor magnitude
        # (outside) and just below it (inside); the scalar and the batched
        # route must agree on both sides every time.
        rng = np.random.default_rng(20261018)
        placed = 0
        for _ in range(300):
            n = int(rng.integers(2, 5))
            x = boundary_direction(random_p_element(n, rng))
            g = crown_point(x, haar_so(n, rng), 1.0 - 2.0 ** -rng.uniform(1.0, 30.0))
            s = np.einsum("ji,jk->ik", g, g)
            scale = max(1.0, float(np.linalg.norm(s, axis=(-2, -1))))
            batch_min = component_scales_batch(g[np.newaxis])["min_minor"][0]
            for magnitude in (domain_test(g)[1], batch_min):
                near = magnitude / scale
                exact = [r for r in (near, np.nextafter(near, np.inf), np.nextafter(near, 0.0))
                         if r * scale == magnitude]
                if not exact:
                    continue
                rel = exact[0]
                placed += 1
                below = rel
                while below * scale == magnitude:
                    below = np.nextafter(below, 0.0)
                for floor_rel in (rel, below):
                    monkeypatch.setattr(
                        config,
                        "TOLERANCES",
                        dataclasses.replace(config.TOLERANCES, minor_floor_rel=float(floor_rel)),
                    )
                    inside = domain_test(g)[0]
                    assert inside == component_scales_batch(g[np.newaxis])["ok"][0]
                    assert inside == (floor_rel == below)
        assert placed >= 400


class TestDecomposePath:
    def test_zero_time(self):
        k = haar_so(3, 5)
        f = decompose_path(PElement(np.diag([1.0, 0.0, -1.0])), k, 0.0)
        assert np.allclose(f.kappa, k)
        assert np.allclose(f.H, np.zeros(3))
        assert np.allclose(f.eta, np.eye(3))

    def test_sl2_alpha_branch(self):
        # exp(H1)^2 = cos(t pi/2) - i sin(t pi/2) cos(2 theta), branch from +1
        for theta, t in [(0.3, 0.4), (1.2, 0.8), (PI / 4, 0.97)]:
            f = decompose_path(X2, rot2(theta), t)
            w = math.cos(t * PI / 2) - 1j * math.sin(t * PI / 2) * math.cos(2 * theta)
            assert abs(np.exp(2 * f.H[0]) - w) < 1e-12

    def test_domain_exit_at_singular_corner(self):
        with pytest.raises(DomainExitError) as err:
            decompose_path(X2, rot2(PI / 4), 1.0)
        assert err.value.last_good_t > 0.999
        assert err.value.t_fail == pytest.approx(1.0, abs=1e-4)

    def test_domain_exit_bisected_to_float_resolution(self):
        # factors exist at 1 - 1e-12 on this path, so the report must not
        # place the last good t before it
        decompose_path(X2, rot2(PI / 4), 1.0 - 1e-12)
        with pytest.raises(DomainExitError) as err:
            decompose_path(X2, rot2(PI / 4), 1.0 - 1e-14)
        assert err.value.last_good_t > 1.0 - 1e-12
        assert err.value.t_fail - err.value.last_good_t < 1e-15

    def test_dual_oracle_against_closed_form(self, rng):
        for _ in range(40):
            theta = rng.uniform(0, 2 * PI)
            t = rng.uniform(0, 0.999)
            f = decompose_path(X2, rot2(theta), t)
            c = sl2_iwasawa_closed(PI / 2, theta, t)
            assert abs(np.exp(f.H[0]) - c.alpha1) < 1e-8
            assert abs(f.eta[0, 1] - c.nu) < 1e-8
            assert np.max(np.abs(f.kappa - c.kappa())) < 1e-8

    def test_reconstruction_and_complex_orthogonality(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            x = random_diag_direction(n, rng)
            k = haar_so(n, rng)
            t = rng.uniform(0, 0.99)
            f = decompose_path(x, k, t)
            g = crown_point(x, k, t)
            assert np.linalg.norm(f.reconstruct() - g) < 1e-9 * np.linalg.norm(g)
            assert np.linalg.norm(f.kappa.T @ f.kappa - np.eye(n)) < 1e-9
            assert abs(np.sum(f.H)) < 1e-10

    def test_refinement_consistency(self, monkeypatch):
        k = haar_so(2, 4)
        monkeypatch.setattr(iwasawa, "INITIAL_STEPS", 32)
        f32 = decompose_path(X2, k, 0.93)
        monkeypatch.setattr(iwasawa, "INITIAL_STEPS", 64)
        f64 = decompose_path(X2, k, 0.93)
        assert f64.steps_used == 65
        assert np.max(np.abs(f32.H - f64.H)) < 1e-10

    def test_holomorphy_probe(self):
        # centered Cauchy-Riemann check of z -> H(z) off the real path axis
        k = haar_so(2, 11)
        t0, eps = 0.6, 1e-4
        fd_re = (continue_factors(X2, k, t0 + eps).H - continue_factors(X2, k, t0 - eps).H) / (
            2 * eps
        )
        fd_im = (
            continue_factors(X2, k, complex(t0, eps)).H
            - continue_factors(X2, k, complex(t0, -eps)).H
        ) / (2j * eps)
        assert np.max(np.abs(fd_re - fd_im)) < 1e-5 * np.max(np.abs(fd_re))

    def test_branch_guard_escalates(self, monkeypatch):
        monkeypatch.setattr(iwasawa, "INITIAL_STEPS", 1)
        monkeypatch.setattr(iwasawa, "MAX_REFINEMENT_DEPTH", 0)
        monkeypatch.setattr(iwasawa, "MAX_ARG_JUMP", 0.05)
        with pytest.raises(BranchAmbiguityError):
            decompose_path(X2, rot2(1.1), 0.9)

    def test_imaginary_parameter_reaches_real_group(self, rng):
        # z = -i tau puts exp(-i z x) k = exp(-tau x) k back in SL(n,R), so
        # the continuation must land on the real KAN factors
        for _ in range(10):
            n = int(rng.integers(2, 5))
            x = random_diag_direction(n, rng)
            k = haar_so(n, rng)
            tau = rng.uniform(0.1, 1.5)
            cont = continue_factors(x, k, complex(0.0, -tau))
            real = decompose_real(group_exp(x.matrix, -tau).real @ k)
            assert np.max(np.abs(cont.H - real.H)) < 1e-10
            assert np.max(np.abs(cont.kappa - real.kappa)) < 1e-10
            assert np.max(np.abs(cont.eta - real.eta)) < 1e-10

    def test_deep_time_refinement_survives(self):
        t = 1.0 - 2.0**-20
        f = decompose_path(X2, rot2(math.pi / 4), t)
        g = crown_point(X2, rot2(math.pi / 4), t)
        assert np.linalg.norm(f.reconstruct() - g) < 1e-9 * np.linalg.norm(g)
        assert f.min_minor_magnitude < 1e-5

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            decompose_path(X2, np.eye(2), -0.5)

    def test_rejects_non_orthogonal_k(self):
        with pytest.raises(ValueError, match="orthogonal"):
            decompose_path(X2, [[1.0, 0.5], [0.0, 1.0]], 0.5)


class TestRefinementGrid:
    """Where the continuation inserts points: the point count and the smallest
    minor seen.  The minors near a corner lose relative accuracy to
    cancellation, so their pin is looser than the point count's."""

    @pytest.mark.parametrize(
        "x, k, t, points, min_minor",
        [
            (X2, rot2(PI / 4), 1.0 - 2.0**-20, 45, 1.4980281132781492e-06),
            (
                X3,
                givens(3, 0, 2, PI / 4) @ givens(3, 0, 1, 0.3),
                1.0 - 2.0**-30,
                55,
                1.4629181213373193e-09,
            ),
            (
                X3,
                givens(3, 0, 2, PI / 4 + 1e-3) @ givens(3, 0, 1, 0.2),
                1.0 - 2.0**-20,
                38,
                0.001999999227686921,
            ),
        ],
        ids=["sl2_corner", "sl3_corner", "sl3_near_corner"],
    )
    def test_pinned_grid(self, x, k, t, points, min_minor):
        f = decompose_path(x, k, t)
        assert f.steps_used == points
        assert f.min_minor_magnitude == pytest.approx(min_minor, rel=1e-6)

    def test_depth_resets_after_cap(self, monkeypatch):
        # On the real flow exp(-7x) the first minor falls by e^14 over the
        # path, so from one initial step only intervals of length 1/8 clear
        # the 10x drop guard.  Capped at depth 2, [0, 1/4] still fails it;
        # the pass moves on and the next interval bisects afresh, giving the
        # grid 0, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1 (uncapped: steps of 1/8).
        monkeypatch.setattr(iwasawa, "INITIAL_STEPS", 1)
        monkeypatch.setattr(iwasawa, "MAX_REFINEMENT_DEPTH", 2)
        x = PElement(np.diag([1.0, -1.0]))
        f = continue_factors(x, np.eye(2), complex(0.0, -7.0))
        assert f.steps_used == 8
        assert f.min_minor_magnitude == pytest.approx(math.exp(-14.0), rel=1e-12)
        assert np.max(np.abs(f.H - [-7.0, 7.0])) < 1e-12
        monkeypatch.setattr(iwasawa, "MAX_REFINEMENT_DEPTH", 40)
        assert continue_factors(x, np.eye(2), complex(0.0, -7.0)).steps_used == 9


class TestHRange:
    def test_zero_time_trivial(self):
        f = decompose_path(X2, rot2(0.4), 0.0)
        assert check_H_range(f, X2, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_sl2_closed_form_band(self, rng):
        # Im H1 = -(1/2) arg(a^2 + c^2) stays inside [-t pi/4, t pi/4]
        for _ in range(30):
            theta, t = rng.uniform(0, 2 * PI), rng.uniform(0, 0.99)
            f = decompose_path(X2, rot2(theta), t)
            w = math.cos(t * PI / 2) - 1j * math.sin(t * PI / 2) * math.cos(2 * theta)
            assert f.H[0].imag == pytest.approx(0.5 * np.angle(w), abs=1e-10)
            assert abs(f.H[0].imag) <= t * PI / 4 + 1e-12
            assert check_H_range(f, X2, t) <= 1e-8

    def test_random_n3_containment(self, rng):
        for _ in range(20):
            x = random_diag_direction(3, rng)
            k = haar_so(3, rng)
            t = rng.uniform(0.1, 0.99)
            try:
                f = decompose_path(x, k, t)
            except DomainExitError:
                continue
            violation = check_H_range(f, x, t)
            assert violation <= 1e-8, violation

    def test_rejects_non_diagonal_direction(self, rng):
        x = random_diag_direction(3, rng)
        f = decompose_path(x, haar_so(3, rng), 0.5)
        off = PElement(np.array([[0.0, 0.3, 0], [0.3, 0, 0], [0, 0, 0]]))
        with pytest.raises(ValueError, match="diagonal"):
            check_H_range(f, off, 0.5)
