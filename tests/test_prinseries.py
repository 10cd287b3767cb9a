import math

import numpy as np
import pytest

from conftest import rot2
from crownlab import prinseries
from crownlab.errors import DomainExitError
from crownlab.growth import fit_power_law
from crownlab.iwasawa import decompose_path
from crownlab.liegroup import PElement, random_sl
from crownlab.numkernel import path_minor_floor
from crownlab.prinseries import (
    ModeVector,
    SeriesParams,
    action_norm_sq,
    boundary_pairing,
    extended_norm_sq,
    growth_exponent,
    orbit_derivative_norm,
    real_time_norm_sq,
    sl2_iwasawa_closed,
    smooth_test_vector,
    unitary_axis_re,
    unitary_params,
)

PI = math.pi
XS = PI / 2
V_MIX = ModeVector({0: 1.0, 2: 0.5, -2: 0.5})
V_ASYM = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25})
P_AXIS = unitary_params(0.4)
P_OFF = SeriesParams(s=2.8 + 0.3j, rho_shift=True)


def flow(tau, x_scale=XS):
    h = tau * x_scale / 2
    return np.diag([math.exp(h), math.exp(-h)])


def march_components(x_scale, theta, z):
    """(H1, q) with the argument of w continued by the march."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    arg_w, _ = prinseries._march_arguments(x_scale, th, z, path_minor_floor(z, 0.5 * x_scale))
    # endpoint values in the library's arithmetic: near the corner |w| is
    # small, and w's rounding then moves log |w| well past 1e-14
    w, u, v, _ = prinseries._endpoint(x_scale, th, z)
    return 0.5 * (np.log(np.abs(w)) + 1j * arg_w), u / v


def sl2_components(x_scale, theta, t):
    c = sl2_iwasawa_closed(x_scale, theta, t)
    return c.alpha1, c.zeta, c.nu


def march_sl2(x_scale, theta, t):
    """sl2_iwasawa_closed's (alpha1, zeta, nu) with both arguments continued by the march."""
    th, z = np.array([float(theta)]), 1j * t
    arg_w, arg_u = prinseries._march_arguments(x_scale, th, z, path_minor_floor(z, 0.5 * x_scale))
    w, u, _, sinh2 = prinseries._endpoint(x_scale, th, z)
    h1 = 0.5 * (np.log(np.abs(w)) + 1j * arg_w)
    zeta = -1j * (np.log(np.abs(u)) + 1j * arg_u - h1)
    return complex(np.exp(h1[0])), complex(zeta[0]), complex((np.sin(2 * th) * sinh2 / w)[0])


def outcome(route, *args):
    """A route's components, or the payload of the DomainExitError it raised."""
    try:
        return route(*args)
    except DomainExitError as exc:
        return (exc.last_good_t, exc.t_fail, exc.minor_index, exc.magnitude)


def assert_same_outcome(closed, march):
    if isinstance(march[0], float):
        assert closed == march
        return
    for a, b in zip(closed, march):
        assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(b)))


def assert_routes_agree(x_scale, theta, z):
    assert_same_outcome(
        outcome(prinseries._closed_components, x_scale, theta, z),
        outcome(march_components, x_scale, theta, z),
    )


def dense_pairing(v, w_smooth, p, t_grid, quad_points, x_scale=XS):
    """The trapezoid pairing summed over a (nodes x modes) matrix of w's modes,
    each a fresh exp, in chunks of nodes so the matrix stays small."""
    ms, cs = w_smooth.arrays()
    values = []
    for t in t_grid:
        z = 1j * t
        pts = prinseries._effective_quad_points(quad_points, z, x_scale)
        thetas = PI * np.arange(pts) / pts
        orbit = prinseries._orbit_values(v, p, x_scale, z, thetas)
        total = 0.0
        for k in range(0, pts, 65536):
            w_vals = np.exp(1j * np.multiply.outer(thetas[k : k + 65536], ms)) @ cs
            total += np.sum(np.conj(w_vals) * orbit[k : k + 65536])
        values.append(complex(total) / pts)
    return values


class TestModeVector:
    def test_rejects_odd_modes(self):
        with pytest.raises(ValueError, match="even"):
            ModeVector({1: 1.0})

    def test_norm_sq(self):
        assert V_MIX.norm_sq == pytest.approx(1.5)

    def test_smooth_vector_decay(self):
        w = smooth_test_vector()
        assert max(abs(m) for m in w.modes) == 40
        assert w.modes[40] == pytest.approx((1 + 40) ** -8.0)


class TestClosedForm:
    def test_zero_time(self):
        c = sl2_iwasawa_closed(XS, 0.7, 0.0)
        assert c.alpha1 == pytest.approx(1.0)
        assert c.zeta == pytest.approx(0.7)
        assert c.nu == pytest.approx(0.0)

    def test_axis_angle_keeps_unit_modulus(self):
        for t in (0.3, 0.8, 0.999):
            c = sl2_iwasawa_closed(XS, 0.0, t)
            w = math.cos(t * PI / 2) - 1j * math.sin(t * PI / 2)
            assert abs(c.alpha1**2 - w) < 1e-13
            assert abs(abs(c.alpha1) - 1.0) < 1e-13

    def test_corner_domain_exit(self):
        with pytest.raises(DomainExitError):
            sl2_iwasawa_closed(XS, PI / 4, 1.0)

    def test_x_scale_validation(self):
        with pytest.raises(ValueError):
            sl2_iwasawa_closed(2.0, 0.1, 0.5)

    def test_reconstruction(self, rng):
        for _ in range(20):
            xs = rng.uniform(0.1, XS)
            theta, t = rng.uniform(0, 2 * PI), rng.uniform(0, 0.99)
            c = sl2_iwasawa_closed(xs, theta, t)
            g = np.diag(
                [np.exp(-1j * t * xs / 2), np.exp(1j * t * xs / 2)]
            ) @ rot2(theta)
            assert np.linalg.norm(c.reconstruct() - g) < 1e-10

    def test_corner_exit_keeps_march_payload(self):
        # at theta = pi/4 |w| = cos(t pi/2) crosses the floor near 1 - t = 3e-13;
        # below it the endpoint test fails over to the march, which reports
        # where along the segment the floor was crossed
        with pytest.raises(DomainExitError) as closed:
            sl2_iwasawa_closed(XS, PI / 4, 1.0 - 1e-14)
        march = outcome(march_components, XS, [PI / 4], 1j * (1.0 - 1e-14))
        exc = closed.value
        assert (exc.last_good_t, exc.t_fail, exc.minor_index, exc.magnitude) == march
        for gap in np.geomspace(1e-12, 1e-14, 17):
            assert_routes_agree(XS, [PI / 4, 0.3], 1j * (1.0 - gap))

    def test_long_segments_and_real_time_take_the_march(self, monkeypatch):
        calls = []
        march = prinseries._march_arguments
        monkeypatch.setattr(
            prinseries, "_march_arguments", lambda *a: calls.append(a[2]) or march(*a)
        )
        thetas = [0.1, 0.3, 2.0]
        prinseries._closed_components(XS, thetas, 0.9j)
        prinseries._closed_components(0.5, thetas, 3.0j)
        assert calls == []
        prinseries._closed_components(XS, thetas, 1.0j)
        prinseries._closed_components(0.5, thetas, 3.2j)
        prinseries._closed_components(XS, thetas, complex(0.9))
        assert calls == [1.0j, 3.2j, complex(0.9)]

    def test_sl2_continues_zeta_by_the_march_on_long_segments(self):
        # past t x_scale = 2 pi the argument of u winds, and its principal
        # value is 2 pi off the continued one
        for x_scale, t in ((0.5, 3.2), (0.5, 14.0), (1.0, 7.0)):
            for theta in (0.1, 0.4, 1.0, 2.0, 2.8):
                closed = outcome(sl2_components, x_scale, theta, t)
                assert_same_outcome(closed, outcome(march_sl2, x_scale, theta, t))

    def test_principal_route_matches_march_on_criterion_grids(self):
        # criterion 11's pairings at quad 1024; criteria 10/11's fits at 512,
        # with the derivative's difference points t +- h
        grid = [(1024, 1.0 - 2.0**-j) for j in range(4, 15)]
        for j in range(4, 13):
            t = 1.0 - 2.0**-j
            h = 1e-2 * (1.0 - t)
            grid += [(512, t - h), (512, t), (512, t + h)]
        for quad, t in grid:
            pts = prinseries._effective_quad_points(quad, 1j * t, XS)
            assert_routes_agree(XS, PI * np.arange(pts) / pts, 1j * t)

    def test_principal_route_matches_march_on_seeded_draws(self):
        rng = np.random.default_rng(20261018)
        for i in range(200):
            x_scale = XS if i % 2 else rng.uniform(0.05, XS)
            theta = rng.uniform(0.0, 2 * PI)
            t = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0)
            assert_routes_agree(x_scale, [theta], 1j * t)
            assert_same_outcome(
                outcome(sl2_components, x_scale, theta, t), outcome(march_sl2, x_scale, theta, t)
            )

    def test_both_routes_match_mpmath_oracle(self):
        # 50-digit principal-branch formulas (exact on this segment); w is the
        # conditioning: its rounding error eps divides by |w| in log w
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(50)
        for i in range(60):
            x_scale = XS if i % 2 else rng.uniform(0.05, XS)
            theta = rng.uniform(0.0, 2 * PI)
            t = 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
            with mpmath.workdps(50):
                x1, th, z = mpmath.mpf(x_scale) / 2, mpmath.mpf(theta), mpmath.mpc(0, t)
                w = mpmath.cosh(2 * z * x1) - mpmath.sinh(2 * z * x1) * mpmath.cos(2 * th)
                u = mpmath.exp(-z * x1) * mpmath.cos(th) + 1j * mpmath.exp(z * x1) * mpmath.sin(th)
                h1 = mpmath.log(w) / 2
                arg_u = th + mpmath.arg(u * mpmath.exp(-1j * th))
                zeta = -1j * (mpmath.log(abs(u)) + 1j * arg_u - h1)
                nu = mpmath.sin(2 * th) * mpmath.sinh(2 * z * x1) / w
                ref_h1_q = [complex(h1), complex(u * u / w)]
                ref_sl2 = [complex(v) for v in (mpmath.exp(h1), zeta, nu)]
                bound = 16 * eps / min(1.0, float(abs(w)))
            for route in (prinseries._closed_components, march_components):
                for got, want in zip(route(x_scale, [theta], 1j * t), ref_h1_q):
                    assert abs(complex(got[0]) - want) <= bound * max(1.0, abs(want))
            for route in (sl2_components, march_sl2):
                for got, want in zip(route(x_scale, theta, t), ref_sl2):
                    assert abs(got - want) <= bound * max(1.0, abs(want))

    def test_consistent_with_decompose_path(self, rng):
        x = PElement(np.diag([PI / 4, -PI / 4]))
        for _ in range(15):
            theta, t = rng.uniform(0, 2 * PI), rng.uniform(0, 0.995)
            c = sl2_iwasawa_closed(XS, theta, t)
            f = decompose_path(x, rot2(theta), t)
            assert abs(np.exp(f.H[0]) - c.alpha1) < 1e-10
            assert abs(f.eta[0, 1] - c.nu) < 1e-10
            assert np.max(np.abs(f.kappa - c.kappa())) < 1e-10


class TestOrbitValues:
    def test_orbit_values_match_mpmath_oracle(self):
        # 50-digit orbit e^{(shift - s) H1} sum c_m e^{i m zeta} from the
        # principal-branch H1 and zeta (exact on this segment).  The error is
        # measured against the sum of the terms' magnitudes, so that
        # cancellation inside the sum is not charged to the kernel; the
        # conditioning is w's rounding, as for the components
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        v = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25, -4: 0.1 - 0.2j, 6: 0.05j})
        params = (P_AXIS, P_OFF, SeriesParams(s=2.8 + 0.3j, rho_shift=False))
        rng = np.random.default_rng(8)
        for i in range(200):
            x_scale = XS if i % 2 else rng.uniform(0.05, XS)
            if i % 4 == 1:
                # both singular angles: q -> 0 at pi/4 and q -> infinity at 3 pi/4
                corner = PI / 4 if i % 8 == 1 else 3 * PI / 4
                gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, math.log10(0.3))
                theta = corner + gap
            else:
                theta = rng.uniform(0.0, 2 * PI)
            t = 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
            with mpmath.workdps(50):
                x1, th, z = mpmath.mpf(x_scale) / 2, mpmath.mpf(theta), mpmath.mpc(0, t)
                w = mpmath.cosh(2 * z * x1) - mpmath.sinh(2 * z * x1) * mpmath.cos(2 * th)
                u = mpmath.exp(-z * x1) * mpmath.cos(th) + 1j * mpmath.exp(z * x1) * mpmath.sin(th)
                h1 = mpmath.log(w) / 2
                zeta = -1j * (mpmath.log(u * mpmath.exp(-1j * th)) + 1j * th - h1)
                terms = [mpmath.mpc(c) * mpmath.exp(1j * m * zeta) for m, c in v.modes.items()]
                refs = []
                for p in params:
                    factor = mpmath.exp((int(p.rho_shift) - mpmath.mpc(p.s)) * h1)
                    refs.append((complex(factor * sum(terms)),
                                 float(abs(factor) * sum(abs(x) for x in terms))))
                bound = 16 * eps / min(1.0, float(abs(w)))
            for p, (want, scale) in zip(params, refs):
                got = prinseries._orbit_values(v, p, x_scale, 1j * t, np.array([theta]))[0]
                assert abs(got - want) <= bound * scale


class TestExtendedNorm:
    def test_zero_time_is_mode_norm(self):
        assert extended_norm_sq(V_MIX, P_AXIS, XS, 0.0, 256) == pytest.approx(
            V_MIX.norm_sq, abs=1e-12
        )

    def test_quadrature_self_consistency(self):
        for t in (0.5, 0.9, 0.99):
            a = extended_norm_sq(V_MIX, P_AXIS, XS, t, 4096)
            b = extended_norm_sq(V_MIX, P_AXIS, XS, t, 8192)
            assert abs(a - b) < 1e-10
            # off-axis values grow to ~1e5 where the absolute floor is
            # summation noise; doubling must still agree in relative terms
            a = extended_norm_sq(V_MIX, P_OFF, XS, t, 4096)
            b = extended_norm_sq(V_MIX, P_OFF, XS, t, 8192)
            assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_rejects_few_points(self):
        with pytest.raises(ValueError):
            extended_norm_sq(V_MIX, P_AXIS, XS, 0.5, 32)

    def test_real_time_two_code_paths(self, rng):
        for _ in range(8):
            tau = rng.uniform(0.0, 1.5)
            a = real_time_norm_sq(V_MIX, P_OFF, XS, tau, 8192)
            b = action_norm_sq(V_MIX, P_OFF, [flow(tau)], 8192)
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_monotone_on_sampled_grid(self):
        spherical = ModeVector({0: 1.0})
        for v in (spherical, V_MIX):
            vals = [extended_norm_sq(v, P_AXIS, XS, t, 512) for t in (0.5, 0.7, 0.9, 0.97)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestUnitaryAxis:
    @pytest.mark.parametrize("shift,re_s", [(True, 2.0), (False, 1.0)])
    def test_isometry_on_axis(self, shift, re_s, rng):
        assert unitary_axis_re(shift) == re_s
        p = SeriesParams(s=complex(re_s, 0.7), rho_shift=shift)
        for _ in range(10):
            g = random_sl(2, rng)
            nsq = action_norm_sq(V_MIX, p, [g], 4096)
            assert abs(nsq - V_MIX.norm_sq) < 1e-8

    def test_off_axis_is_not_isometric(self, rng):
        p = SeriesParams(s=2.5 + 0.7j, rho_shift=True)
        g = flow(1.0)
        assert abs(action_norm_sq(V_MIX, p, [g], 4096) - V_MIX.norm_sq) > 1e-3


class TestGroupLaw:
    def test_real_time_composition(self):
        for tau1, tau2 in ((0.4, 0.7), (0.2, 1.1)):
            a = real_time_norm_sq(V_MIX, P_OFF, XS, tau1 + tau2, 8192)
            b = action_norm_sq(V_MIX, P_OFF, [flow(tau1), flow(tau2)], 8192)
            assert abs(a - b) < 1e-8 * max(1.0, b)

    def test_general_composition(self, rng):
        for _ in range(5):
            g1, g2 = random_sl(2, rng), random_sl(2, rng)
            a = action_norm_sq(V_MIX, P_OFF, [g1, g2], 8192)
            b = action_norm_sq(V_MIX, P_OFF, [g1 @ g2], 8192)
            assert abs(a - b) < 1e-8 * max(1.0, b)

    def test_action_validates_determinant(self):
        with pytest.raises(ValueError, match="det"):
            action_norm_sq(V_MIX, P_OFF, [2.0 * np.eye(2)], 256)


QUADRATURE_ENTRY_POINTS = {
    "extended_norm_sq": lambda q: extended_norm_sq(V_MIX, P_AXIS, XS, 0.5, q),
    "real_time_norm_sq": lambda q: real_time_norm_sq(V_MIX, P_AXIS, XS, 0.5, q),
    "growth_exponent": lambda q: growth_exponent(V_MIX, P_AXIS, [0.5, 0.6, 0.7, 0.8], q),
    "action_norm_sq": lambda q: action_norm_sq(V_MIX, P_AXIS, [np.eye(2)], q),
    "orbit_derivative_norm": lambda q: orbit_derivative_norm(V_MIX, P_AXIS, XS, 0.5, q),
    "boundary_pairing": lambda q: boundary_pairing(
        V_MIX, smooth_test_vector(), P_AXIS, [0.0, 0.5, 0.75], q
    ),
}


@pytest.mark.parametrize("entry", sorted(QUADRATURE_ENTRY_POINTS))
def test_quadrature_entry_points_validate_quad_points(entry):
    call = QUADRATURE_ENTRY_POINTS[entry]
    for quad_points in (0, 1, 63):
        with pytest.raises(ValueError, match="quad_points must be >= 64"):
            call(quad_points)
    call(64)


class TestGrowthExponent:
    def test_synthetic_power_law_recovery(self):
        ts = [1 - 2.0**-j for j in range(4, 13)]
        fit = fit_power_law(ts, [5.0 * (1 - t) ** -1.5 for t in ts])
        assert fit.n_hat == pytest.approx(1.5, abs=1e-6)
        assert fit.log_c_hat == pytest.approx(math.log(5.0), abs=1e-6)

    def test_mode_pair_blowup_is_clean(self):
        ts = [1 - 2.0**-j for j in range(4, 12)]
        fit = growth_exponent(ModeVector({2: 1.0, -2: 1.0}), P_AXIS, ts, 256)
        assert fit.r_squared > 0.999
        assert fit.n_hat == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "m,s",
        [(2, 2 + 0.4j), (4, 2 + 0.4j), (6, 2 + 0.4j)]
        + [(2, re_s + 0.4j) for re_s in (1.5, 2.5, 3.0)],
    )
    def test_exponent_law(self, m, s):
        # mode m contributes |w|^(-|m|) and the rho-shifted character
        # |w|^(1 - Re s) near the corner; integrated across a width of order
        # 1 - t this gives N = (max|m| + Re s - 2) / 2
        ts = [1 - 2.0**-j for j in range(4, 13)]
        fit = growth_exponent(ModeVector({m: 1.0, -m: 1.0}), SeriesParams(s=s), ts, 512)
        assert fit.n_hat == pytest.approx((m + s.real - 2.0) / 2.0, abs=0.01)

    def test_spherical_axis_orbit_measured_behavior(self):
        # sqrt-log truth: small finite exponent, fit quality below a clean
        # power law (measured 0.982 on this grid) but stable
        ts = [1 - 2.0**-j for j in range(4, 13)]
        fit = growth_exponent(ModeVector({0: 1.0}), P_AXIS, ts, 256)
        assert math.isfinite(fit.n_hat)
        assert 0.0 < fit.n_hat < 0.3
        assert fit.r_squared > 0.97

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            growth_exponent(ModeVector({}), P_AXIS, [0.5, 0.75, 0.9, 0.95], 256)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            growth_exponent(V_MIX, P_AXIS, [0.2, 0.5, 0.9, 0.95], 256)


class TestBoundaryPairing:
    def test_value_at_zero_time(self):
        v = ModeVector({0: 1.0})
        rep = boundary_pairing(v, v, P_AXIS, [0.0, 0.5, 0.75], 256)
        assert rep.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_structure_at_unit_scale(self):
        ts = [1 - 2.0**-j for j in range(4, 15)]
        rep = boundary_pairing(V_MIX, smooth_test_vector(), P_AXIS, ts, 1024)
        assert rep.decreasing
        ratios = [b / a for a, b in zip(rep.diffs, rep.diffs[1:])]
        assert all(0.4 < r < 0.6 for r in ratios[2:])

    def test_scaled_probe_reaches_cauchy_verdict(self):
        ts = [1 - 2.0**-j for j in range(4, 15)]
        w = smooth_test_vector()
        w_small = ModeVector({m: 0.01 * c for m, c in w.modes.items()})
        rep = boundary_pairing(V_MIX, w_small, P_AXIS, ts, 1024)
        assert rep.cauchy
        assert rep.final_diff < 1e-6

    # criterion 11's orbit is even in theta, so its DFT cannot tell bin m/2
    # from -m/2; the other cases pair an orbit that is not
    @pytest.mark.parametrize(
        "w,v,quad,t_grid",
        [
            (smooth_test_vector(), V_MIX, 1024, [1 - 2.0**-j for j in range(4, 15)]),
            (smooth_test_vector(), V_ASYM, 1000, [0.0, 0.5, 0.75, 0.9]),
            (ModeVector({4: 0.3 - 0.2j}), V_ASYM, 1024, [0.5, 0.75, 0.9, 0.99]),
            (ModeVector({-2: 1.0, -4: 0.5j, -10: 1e-5}), V_ASYM, 1000, [0.5, 0.75, 0.9]),
        ],
        ids=["criterion_11", "quad_1000", "single_mode", "negative_modes"],
    )
    def test_spectral_sum_matches_dense_oracle(self, w, v, quad, t_grid):
        rep = boundary_pairing(v, w, P_AXIS, t_grid, quad)
        for got, want in zip(rep.values, dense_pairing(v, w, P_AXIS, t_grid, quad)):
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_rejects_fat_tail_test_vector(self):
        fat = ModeVector({m: 1.0 for m in range(-20, 21, 2)})
        with pytest.raises(ValueError, match="decay"):
            boundary_pairing(V_MIX, fat, P_AXIS, [0.5, 0.75, 0.9], 256)

    def test_derivative_bump(self):
        ts = [1 - 2.0**-j for j in range(4, 12)]
        norms = [math.sqrt(extended_norm_sq(V_MIX, P_AXIS, XS, t, 256)) for t in ts]
        dnorms = [orbit_derivative_norm(V_MIX, P_AXIS, XS, t, 256) for t in ts]
        bump = fit_power_law(ts, dnorms).n_hat - fit_power_law(ts, norms).n_hat
        assert bump == pytest.approx(1.0, abs=0.1)
