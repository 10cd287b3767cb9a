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
    kappa_factor,
)
from crownlab.liegroup import (
    PElement,
    boundary_direction,
    givens,
    haar_so,
    random_p_element,
    random_sl,
)
from crownlab.numkernel import group_exp, sym_ldl
from crownlab.prinseries import sl2_iwasawa_closed

PI = math.pi
X2 = PElement(np.diag([PI / 4, -PI / 4]))
X3 = PElement(np.diag([PI / 4, 0.0, -PI / 4]))


# Paths whose continuation refines the initial grid, with their point count
# and smallest minor seen (TestRefinementGrid pins both).
REFINEMENT_PINS = [
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
]
PIN_IDS = ["sl2_corner", "sl3_corner", "sl3_near_corner"]


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

    def test_kappa_uses_the_alpha_of_reconstruct(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g = random_sl(n, rng)
            f = decompose_real(g)
            assert f.kappa.tobytes() == kappa_factor(g, f.eta, f.alpha).tobytes()
            assert np.linalg.norm(f.kappa.T @ f.kappa - np.eye(n)) < 1e-9


def test_every_endpoint_gram_is_exactly_symmetric(rng, monkeypatch):
    # the endpoint LDL of the real and the continued route factors a Gram
    # equal to its transpose bit for bit, as do the path's grid Grams
    factored = []

    def recording(s):
        factored.append(np.array(s))
        return sym_ldl(s)

    monkeypatch.setattr(iwasawa, "sym_ldl", recording)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        x = boundary_direction(random_p_element(n, rng))
        k = haar_so(n, rng)
        decompose_real(random_sl(n, rng))
        decompose_path(x, k, float(rng.uniform(0.1, 0.99)))
        grams = iwasawa._crown_path(x, k, 0.9)(np.linspace(0.0, 1.0, 9))[1]
        assert np.array_equal(grams, np.swapaxes(grams, -1, -2))
    assert len(factored) == 60
    assert all(np.array_equal(s, s.T) for s in factored)


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
            c = sl2_iwasawa_closed(theta, t)
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

    @pytest.mark.parametrize(
        "route, z",
        [
            ("decompose_path", math.nan),
            ("decompose_path", math.inf),
            ("continue_factors", complex(0.5, math.nan)),
            ("continue_factors", complex(0.0, -math.inf)),
        ],
    )
    def test_rejects_non_finite_time_before_any_point(self, route, z, monkeypatch):
        # a NaN point reads as a domain exit, so a NaN time must not get there
        def no_path(*args):
            raise AssertionError("path built for a non-finite time")

        monkeypatch.setattr(iwasawa, "_crown_path", no_path)
        call = decompose_path if route == "decompose_path" else continue_factors
        with pytest.raises(ValueError, match="t must be finite"):
            call(X2, rot2(0.3), z)

    def test_rejects_non_orthogonal_k(self):
        with pytest.raises(ValueError, match="orthogonal"):
            decompose_path(X2, [[1.0, 0.5], [0.0, 1.0]], 0.5)


def haar_exit_path(n, seed):
    """A seeded Haar path of size n to t = 3 and a floor that it must cross:
    minor_floor_rel is the geometric mean of the smallest relative minor
    |Delta_k| / max(1, ||S||_F) on a 301-point grid and that at t = 0."""
    rng = np.random.default_rng([20261020, n, seed])
    x = boundary_direction(random_p_element(n, rng))
    k = haar_so(n, rng)
    rel = []
    for t in np.linspace(0.0, 3.0, 301):
        g = crown_point(x, k, t)
        s = g.T @ g
        smallest = min(abs(np.linalg.det(s[:j, :j])) for j in range(1, n + 1))
        rel.append(smallest / max(1.0, float(np.linalg.norm(s))))
    return x, k, 3.0, math.sqrt(min(rel) * rel[0])


EXIT_PATHS = [(X2, rot2(PI / 4), t, None) for t in (1.0, 3.0, 10.0)] + [
    haar_exit_path(n, seed) for n in (3, 4) for seed in range(3)
]
EXIT_IDS = ["corner_t1", "corner_t3", "corner_t10"] + [
    f"haar_n{n}_{seed}" for n in (3, 4) for seed in range(3)
]


class TestExitRule:
    """A path exits where ``domain_test`` says its point leaves the domain."""

    @pytest.mark.parametrize("x, k, t, floor_rel", EXIT_PATHS, ids=EXIT_IDS)
    def test_exit_brackets_the_domain_test(self, x, k, t, floor_rel, monkeypatch):
        if floor_rel is not None:
            raised = dataclasses.replace(config.TOLERANCES, minor_floor_rel=floor_rel)
            monkeypatch.setattr(config, "TOLERANCES", raised)
        with pytest.raises(DomainExitError) as err:
            decompose_path(x, k, t)
        exc = err.value
        assert 0.0 < exc.last_good_t < exc.t_fail < t
        assert domain_test(crown_point(x, k, exc.last_good_t))[0]
        assert not domain_test(crown_point(x, k, exc.t_fail))[0]

    def test_corner_exit_does_not_depend_on_the_target(self):
        # the floor is the point's own, so a longer path meets the same exit
        fails = set()
        for t in (1.0, 3.0, 10.0):
            with pytest.raises(DomainExitError) as err:
                decompose_path(X2, rot2(PI / 4), t)
            fails.add(err.value.t_fail)
        assert len(fails) == 1 and 1.0 - 1e-13 < fails.pop() < 1.0

    @pytest.mark.parametrize("theta, t", [(0.3, 25.0), (2.0, 19.0), (1.1, 22.0)])
    def test_continuation_past_the_crown_matches_the_closed_form(self, theta, t):
        f = decompose_path(X2, rot2(theta), t)
        c = sl2_iwasawa_closed(theta, t)
        assert abs(np.exp(f.H[0]) - c.alpha1) < 1e-8
        assert abs(f.eta[0, 1] - c.nu) < 1e-8
        assert np.max(np.abs(f.kappa - c.kappa())) < 1e-8


class TestRefinementGrid:
    """Where the continuation inserts points: the point count and the smallest
    minor seen.  The minors near a corner lose relative accuracy to
    cancellation, so their pin is looser than the point count's."""

    @pytest.mark.parametrize("x, k, t, points, min_minor", REFINEMENT_PINS, ids=PIN_IDS)
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


def sequential_path(x, k, z_target):
    """Reference continuation: one left-to-right pass that tests every
    interval of the uniform grid in turn, bisecting in place.  Returns the
    tau grid and the minors, or raises as ``iwasawa._continued_path`` must."""
    path = iwasawa._crown_path(x, k, z_target)
    taus = list(np.linspace(0.0, 1.0, iwasawa.INITIAL_STEPS + 1))
    _, _, grid_minors, _, grid_outside = path(np.asarray(taus))
    minors, outside = list(grid_minors), list(grid_outside)

    def point(tau):
        _, _, m, _, out = path(np.array([tau]))
        return m[0], out[0]

    def t_of(tau):
        return tau * abs(z_target)

    def exit_error(lo, hi, m_hi):
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            m_mid, out_mid = point(mid)
            if out_mid.any():
                hi, m_hi = mid, m_mid
            else:
                lo = mid
        idx = int(np.argmin(np.abs(m_hi)))
        return DomainExitError(
            last_good_t=t_of(lo),
            t_fail=t_of(hi),
            minor_index=idx + 1,
            magnitude=float(np.abs(m_hi)[idx]),
        )

    i = depth = 0
    while i + 1 < len(taus):
        m0, m1 = minors[i], minors[i + 1]
        if outside[i + 1].any():
            raise exit_error(taus[i], taus[i + 1], m1)
        jumps = np.abs(np.angle(m1 / m0))
        arg_bad = bool(np.any(jumps > iwasawa.MAX_ARG_JUMP))
        guard_failed = arg_bad or bool(
            np.any(np.abs(m1) * iwasawa.MAGNITUDE_DROP_GUARD < np.abs(m0))
        )
        mid = 0.5 * (taus[i] + taus[i + 1])
        if guard_failed and depth < iwasawa.MAX_REFINEMENT_DEPTH and taus[i] < mid < taus[i + 1]:
            m_mid, out_mid = point(mid)
            taus.insert(i + 1, mid)
            minors.insert(i + 1, m_mid)
            outside.insert(i + 1, out_mid)
            depth += 1
        elif arg_bad:
            idx = int(np.argmax(jumps))
            raise BranchAmbiguityError(
                t_lo=t_of(taus[i]),
                t_hi=t_of(taus[i + 1]),
                minor_index=idx + 1,
                arg_jump=float(jumps[idx]),
            )
        else:
            i, depth = i + 1, 0
    return taus, np.asarray(minors)


def initial_grid_flags(x, k, z_target):
    """Per interval of the uniform grid, whether one of the three interval
    tests (right end outside the domain, argument jump, 10x drop) fails
    there, tested one at a time."""
    path = iwasawa._crown_path(x, k, z_target)
    _, _, minors, _, outside = path(np.linspace(0.0, 1.0, iwasawa.INITIAL_STEPS + 1))
    return [
        bool(
            out1.any()
            or np.any(np.abs(np.angle(m1 / m0)) > iwasawa.MAX_ARG_JUMP)
            or np.any(np.abs(m1) * iwasawa.MAGNITUDE_DROP_GUARD < np.abs(m0))
        )
        for m0, m1, out1 in zip(minors, minors[1:], outside[1:])
    ]


def continuation_outcome(route, x, k, z_target):
    """The point count and the bytes of taus and minors, or the error type
    and payload."""
    try:
        taus, minors = route(x, np.asarray(k, dtype=float), complex(z_target))[:2]
    except (DomainExitError, BranchAmbiguityError) as exc:
        return type(exc), vars(exc)
    return len(taus), np.asarray(taus).tobytes(), np.asarray(minors).tobytes()


class TestContinuationOracle:
    """The array pass over the initial grid plus the resumed bisection must
    reproduce the sequential pass bit for bit: the same taus, minors, error
    types and error payloads."""

    def assert_matches(self, x, k, z_target):
        got = continuation_outcome(iwasawa._continued_path, x, k, z_target)
        assert got == continuation_outcome(sequential_path, x, k, z_target)
        return got

    def test_corpus_like_paths(self):
        rng = np.random.default_rng(20261018)
        refined = 0
        for _ in range(300):
            n = int(rng.integers(2, 5))
            x = boundary_direction(random_p_element(n, rng))
            k = haar_so(n, rng)
            t = 1.0 - 2.0 ** -rng.uniform(1.0, 30.0)
            points, *_ = self.assert_matches(x, k, t)
            refined += points > iwasawa.INITIAL_STEPS + 1
            # the endpoint and its Gram come from the grid's batch; the
            # separate evaluation at tau = 1 gives the same bits
            _, _, g_end, s_end = iwasawa._continued_path(x, k, complex(t))
            single = iwasawa._crown_path(x, k, complex(t))(np.array([1.0]))
            assert g_end.tobytes() == single[0][0].tobytes()
            assert s_end.tobytes() == single[1][0].tobytes()
        assert refined >= 1

    @pytest.mark.parametrize("x, k, t, points, min_minor", REFINEMENT_PINS, ids=PIN_IDS)
    def test_refinement_pins(self, x, k, t, points, min_minor):
        assert self.assert_matches(x, k, t)[0] == points

    def test_depth_capped_real_flow(self, monkeypatch):
        monkeypatch.setattr(iwasawa, "INITIAL_STEPS", 1)
        monkeypatch.setattr(iwasawa, "MAX_REFINEMENT_DEPTH", 2)
        points, *_ = self.assert_matches(PElement(np.diag([1.0, -1.0])), np.eye(2), -7j)
        assert points == 8

    @pytest.mark.parametrize("t", [1.0, 1.0 - 1e-14])
    def test_corner_exit(self, t):
        kind, payload = self.assert_matches(X2, rot2(PI / 4), t)
        assert kind is DomainExitError
        assert payload["last_good_t"] < payload["t_fail"]

    def test_floor_crossing_without_a_guard_failure(self, monkeypatch):
        # On the real flow exp(-7x) the first minor e^{-14 tau} falls by
        # e^{-14/32} per interval, which fails neither guard; the pointwise
        # floor e^{-20.5} ||S||_F, with ||S||_F = e^{14 tau} to 1e-18, is
        # crossed at tau = 20.5/28 all the same, at t = 7 tau
        monkeypatch.setattr(
            config,
            "TOLERANCES",
            dataclasses.replace(config.TOLERANCES, minor_floor_rel=math.exp(-20.5)),
        )
        kind, payload = self.assert_matches(PElement(np.diag([1.0, -1.0])), np.eye(2), -7j)
        assert kind is DomainExitError
        assert payload["t_fail"] == pytest.approx(7.0 * 20.5 / 28.0, rel=1e-12)

    def test_branch_guard(self, monkeypatch):
        monkeypatch.setattr(iwasawa, "INITIAL_STEPS", 1)
        monkeypatch.setattr(iwasawa, "MAX_REFINEMENT_DEPTH", 0)
        monkeypatch.setattr(iwasawa, "MAX_ARG_JUMP", 0.05)
        kind, _ = self.assert_matches(X2, rot2(1.1), 0.9)
        assert kind is BranchAmbiguityError

    def test_clean_intervals_around_two_flagged_regions(self):
        # past the crown (z = 3.2) the first minor cos(phi) - i sin(phi)
        # cos(2 theta) swings its argument by ~pi near phi = pi/2 and 3 pi/2,
        # so the grid has clean intervals, a flagged run, clean intervals and
        # a second flagged run
        k = rot2(PI / 4 + 0.02)
        flags = initial_grid_flags(X2, k, 3.2)
        first = flags.index(True)
        assert first > 0
        assert not all(flags[first:])
        second = flags.index(True, flags.index(False, first))
        assert second > first + 1
        points, *_ = self.assert_matches(X2, k, 3.2)
        assert points > iwasawa.INITIAL_STEPS + 1


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


def test_error_messages_print_path_times_in_full():
    # six significant digits printed 1 - 3e-13 as "t=1"
    t = 1.0 - 3e-13
    exit_error = DomainExitError(np.float64(t), t, minor_index=1, magnitude=1e-12)
    assert f"domain exit near t={t!r} (last good t={t!r}," in str(exit_error)
    branch_error = BranchAmbiguityError(np.float64(t), 1.0 - 1e-13, minor_index=2, arg_jump=1.0)
    assert f"branch ambiguity on [{t!r}, {1.0 - 1e-13!r}]" in str(branch_error)
