import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import rot2
from crownlab import config, prinseries
from crownlab.errors import DomainExitError
from crownlab.growth import fit_power_law
from crownlab.iwasawa import decompose_path
from crownlab.liegroup import PElement, givens, random_sl
from crownlab.numkernel import path_minor_floor
from crownlab.prinseries import (
    ModeVector,
    action_norm_sq,
    boundary_pairing,
    extended_norm_sq,
    growth_exponent,
    orbit_derivative_norm,
    real_time_norm_sq,
    sl2_iwasawa_closed,
    smooth_test_vector,
    unitary_params,
)

PI = math.pi
XS = PI / 2
X1 = prinseries.X1
V_MIX = ModeVector({0: 1.0, 2: 0.5, -2: 0.5})
V_ASYM = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25})
S_AXIS = unitary_params(0.4)
S_OFF = 2.8 + 0.3j


def scaled(t, x_scale):
    """The time whose phase t pi/2 is t x_scale: a segment of the direction
    diag(x_scale, -x_scale) / 2 as a segment of the bench's x."""
    return t * x_scale / XS


def flow(tau):
    return np.diag([math.exp(tau * X1), math.exp(-tau * X1)])


def march_steps(z: complex) -> int:
    return max(16, int(math.ceil(abs(z) * XS / 0.15)) + 1)


def march_arguments(th: np.ndarray, z: complex, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Continued arguments of w = a^2 + c^2 and u = a + i c at the end of the
    segment to z, by nearest-argument steps in tau from 0 to 1, each step
    evaluating w and u by ``_endpoint``.

    Raises DomainExitError at the first step where min |w| <= floor.

    The oracle for the closed-form branch rule: it continues the same
    endpoint formula by steps, and its floor test sees only the steps.
    """
    taus = np.linspace(0.0, 1.0, march_steps(z))
    w_prev, u_prev, *_ = prinseries._endpoint(th, taus[0] * complex(z))
    arg_w = np.zeros_like(th)
    arg_u = th.copy()
    for j in range(1, taus.size):
        w_cur, u_cur, *_ = prinseries._endpoint(th, taus[j] * complex(z))
        mags = np.abs(w_cur)
        i_min = int(np.argmin(mags))
        if mags[i_min] <= floor:
            raise DomainExitError(
                last_good_t=float(taus[j - 1] * abs(z)),
                t_fail=float(taus[j] * abs(z)),
                minor_index=1,
                magnitude=float(mags[i_min]),
            )
        arg_w += np.angle(w_cur / w_prev)
        arg_u += np.angle(u_cur / u_prev)
        w_prev, u_prev = w_cur, u_cur
    return arg_w, arg_u


def march_components(theta, z):
    """(H1, q) with the argument of w continued by the march."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    arg_w, _ = march_arguments(th, z, path_minor_floor(z, X1))
    # endpoint values in the library's arithmetic: near the corner |w| is
    # small, and w's rounding then moves log |w| well past 1e-14
    w, u, v, *_ = prinseries._endpoint(th, z)
    return 0.5 * (np.log(np.abs(w)) + 1j * arg_w), u / v


def sl2_components(theta, t):
    c = sl2_iwasawa_closed(theta, t)
    return c.alpha1, c.zeta, c.nu


def march_sl2(theta, t):
    """sl2_iwasawa_closed's (alpha1, zeta, nu) with both arguments continued by the march."""
    th, z = np.array([float(theta)]), 1j * t
    arg_w, arg_u = march_arguments(th, z, path_minor_floor(z, X1))
    w, u, _, sinh2, _ = prinseries._endpoint(th, z)
    h1 = 0.5 * (np.log(np.abs(w)) + 1j * arg_w)
    zeta = -1j * (np.log(np.abs(u)) + 1j * arg_u - h1)
    return complex(np.exp(h1[0])), complex(zeta[0]), complex((np.sin(2 * th) * sinh2 / w)[0])


def outcome(route, *args):
    """A route's components, or the payload of the DomainExitError it raised."""
    try:
        return route(*args)
    except DomainExitError as exc:
        return (exc.last_good_t, exc.t_fail, exc.minor_index, exc.magnitude)


def exited(result):
    return isinstance(result[0], float)


def assert_same_outcome(closed, march, rel=1e-14):
    """The same values, or both routes exit: the closed form at the exact
    first crossing, which the march detects at a step on or after it."""
    if exited(march):
        assert exited(closed) and closed[0] == closed[1] <= march[1]
        return
    assert not exited(closed)
    for a, b in zip(closed, march):
        assert np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b)))


def assert_routes_agree(theta, z):
    assert_same_outcome(
        outcome(prinseries._closed_components, theta, z), outcome(march_components, theta, z)
    )


def assert_first_crossing(thetas, z, t_fail):
    """min |w| over the nodes stays above the floor on 256 points of the
    segment before path time t_fail and reaches the floor at t_fail."""
    floor = path_minor_floor(z, X1)
    th, unit = np.atleast_1d(np.asarray(thetas, dtype=float)), z / abs(z)
    for t in np.linspace(0.0, t_fail, 257)[:-1]:
        assert np.abs(prinseries._endpoint(th, t * unit)[0]).min() > floor
    at = np.abs(prinseries._endpoint(th, t_fail * unit)[0]).min()
    assert at <= 1.01 * floor and (t_fail == 0.0 or at >= 0.99 * floor)


def orbit_values(v, s, z, thetas):
    """(pi_sigma(exp(z x)) v)(k_theta) at arbitrary angles, node by node with
    no use of the grid's symmetry: the prefactor e^{(1 - s) H1} times the
    mode sum at q = e^{2 i zeta}."""
    h1, q = prinseries._closed_components(thetas, z)
    return prinseries._orbit_prefactor(s, h1) * v.evaluate(q)


def one_shot_grid_orbit(v, s, z, pts):
    """The orbit on the grid theta_k = pi k / P, P = pts, in one pass over the
    half grid k = 0 ... P // 2, reflected onto nodes P - k: the unblocked
    route, whose bytes and exits the blocked ``_grid_orbit`` must reproduce."""
    h1, q = prinseries._closed_components(prinseries._nodes(0, pts // 2 + 1, pts), z)
    half = h1.size
    # vals[half:] holds nodes P - k for k = (P - 1) // 2 down to 1
    mirror = slice((pts - 1) // 2, 0, -1)
    vals = np.empty(pts, dtype=complex)
    vals[:half] = v.evaluate(q)
    vals[half:] = ModeVector({-m: c for m, c in v.modes.items()}).evaluate(q[mirror])
    pre = prinseries._orbit_prefactor(s, h1)
    vals[:half] *= pre
    vals[half:] *= pre[mirror]
    return vals


def same_bytes(a, b):
    """Both outcomes exit with the same payload, or their values agree bit for bit."""
    if exited(a) or exited(b):
        return a == b
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_pairing(v, w_smooth, s, t_grid, quad_points):
    """The trapezoid pairing summed over a (nodes x modes) matrix of w's modes,
    each a fresh exp, in chunks of nodes so the matrix stays small.  The orbit
    values are the library's grid values: the subject is the DFT-bin sum."""
    ms, cs = w_smooth.arrays()
    values = []
    for t in t_grid:
        z = 1j * t
        pts = prinseries._quad_nodes(quad_points, z)
        thetas = prinseries._nodes(0, pts, pts)
        orbit = prinseries._grid_orbit(v, s, z, pts)
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
        c = sl2_iwasawa_closed(0.7, 0.0)
        assert c.alpha1 == pytest.approx(1.0)
        assert c.zeta == pytest.approx(0.7)
        assert c.nu == pytest.approx(0.0)

    def test_axis_angle_keeps_unit_modulus(self):
        for t in (0.3, 0.8, 0.999):
            c = sl2_iwasawa_closed(0.0, t)
            w = math.cos(t * PI / 2) - 1j * math.sin(t * PI / 2)
            assert abs(c.alpha1**2 - w) < 1e-13
            assert abs(abs(c.alpha1) - 1.0) < 1e-13

    def test_corner_domain_exit(self):
        with pytest.raises(DomainExitError):
            sl2_iwasawa_closed(PI / 4, 1.0)

    def test_reconstruction(self, rng):
        for _ in range(20):
            xs = rng.uniform(0.1, XS)
            theta, t = rng.uniform(0, 2 * PI), scaled(rng.uniform(0, 0.99), xs)
            c = sl2_iwasawa_closed(theta, t)
            g = np.diag([np.exp(-1j * t * X1), np.exp(1j * t * X1)]) @ rot2(theta)
            assert np.linalg.norm(c.reconstruct() - g) < 1e-10

    def test_corner_exit_reports_the_exact_crossing(self):
        # at theta = pi/4 |w| = cos(t pi/2) crosses the floor near 1 - t = 3e-13,
        # and the exit names the crossing itself
        z = 1j * (1.0 - 1e-14)
        with pytest.raises(DomainExitError) as closed:
            sl2_iwasawa_closed(PI / 4, z.imag)
        exc = closed.value
        assert exc.last_good_t == exc.t_fail and exc.minor_index == 1
        assert exc.magnitude == path_minor_floor(z, X1)
        assert_first_crossing([PI / 4], z, exc.t_fail)
        march = outcome(march_components, [PI / 4], z)
        assert_same_outcome((exc.last_good_t, exc.t_fail), march)
        for gap in np.geomspace(1e-12, 1e-14, 17):
            assert_routes_agree([PI / 4, 0.3], 1j * (1.0 - gap))

    # near-corner principal segments, drawn (seed 272) with theta near pi/4
    # and the endpoint |w| within a factor 1.5 of the floor, on which the
    # rounded endpoint |w|, within 5e-4 of the floor, and the exact crossing
    # at the segment's end disagreed where they were drawn.  Whether they do
    # turns on a few ulps of cos, sqrt and arctan2, which numpy's loops may
    # round differently on another CPU; the exit rule holds on any.
    @pytest.mark.parametrize(
        "theta, t",
        [(0.7853981633973449, 0.9999999999997236),
         (0.7853981633972109, 0.9999999999999507)],
        ids=["endpoint_above_floor_crossing_inside", "endpoint_below_floor_crossing_past_end"],
    )
    def test_exact_crossing_decides_a_principal_segment(self, theta, t):
        z = 1j * t
        floor = path_minor_floor(z, X1)
        w, *_, c = prinseries._endpoint(np.array([theta]), z)
        first = prinseries._first_crossing(c, z, floor)
        exits = first <= t * (2.0 * X1)
        for got in (outcome(prinseries._closed_components, [theta], z),
                    outcome(sl2_components, theta, t)):
            assert exited(got) == exits
            if exits:
                assert got[0] == got[1] == first / (2.0 * X1) and got[3] == floor
        if (abs(w[0]) > floor) != exits:
            pytest.skip("the endpoint |w| agrees with the exact crossing on this platform")

    @staticmethod
    def count_endpoint_nodes(monkeypatch):
        """Nodes per time z that reach ``_endpoint`` and ``_continued_endpoint``."""
        nodes = {"endpoint": Counter(), "continued": Counter()}
        endpoint, continued = prinseries._endpoint, prinseries._continued_endpoint

        def counted(name, fn):
            def wrapper(th, z):
                nodes[name][z] += np.size(th)
                return fn(th, z)

            return wrapper

        monkeypatch.setattr(prinseries, "_endpoint", counted("endpoint", endpoint))
        monkeypatch.setattr(prinseries, "_continued_endpoint", counted("continued", continued))
        return nodes

    def test_every_route_evaluates_the_endpoint_once(self, monkeypatch):
        # principal and long segments and real time: no route steps along
        # the segment, and each node of a blocked grid is evaluated once;
        # t = 0.999 grows the pairing grid to 32,000 nodes, several blocks
        nodes = self.count_endpoint_nodes(monkeypatch)
        thetas = [0.1, 0.3, 2.0]
        times = [scaled(z, x) for x, z in ((XS, 0.9j), (0.5, 3.0j), (XS, 1.0j), (0.5, 3.2j))]
        for z in [*times, complex(0.9)]:
            prinseries._closed_components(thetas, z)
        real_time_norm_sq(V_MIX, S_OFF, 0.7, 1024)
        boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, [0.0, 0.5, 0.999], 1024)
        assert 32_000 // 2 + 1 > prinseries.GRID_BLOCK
        want = {z: 3 for z in times} | {complex(0.9): 3, complex(0.7): 513, 0j: 513, 0.5j: 513}
        want[0.999j] = 32_000 // 2 + 1
        assert nodes == {"endpoint": want, "continued": want}

    def test_sl2_evaluates_the_endpoint_once_on_a_long_segment(self, monkeypatch):
        nodes = self.count_endpoint_nodes(monkeypatch)
        z = 1j * scaled(14.0, 0.5)
        sl2_iwasawa_closed(0.4, z.imag)
        assert nodes == {"endpoint": {z: 1}, "continued": {z: 1}}

    @pytest.mark.parametrize("z", [0.3 + 0.4j, complex(math.inf), 1j * math.nan])
    def test_rejects_complex_or_non_finite_time(self, z):
        with pytest.raises(ValueError, match="finite and real or imaginary"):
            prinseries._closed_components([0.1, 0.3], z)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_sl2_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            sl2_iwasawa_closed(0.1, t)

    def test_march_steps_through_endpoint(self, monkeypatch):
        # a conjugating endpoint must negate the oracle's increments: the
        # march has no formula for w or u of its own
        th, z = np.array([0.1, 0.4, 1.0, 2.0]), scaled(7.0j, 0.5)
        floor = path_minor_floor(z, X1)
        arg_w, arg_u = march_arguments(th, z, floor)
        endpoint, zs = prinseries._endpoint, []

        def conjugated(th_, z_):
            zs.append(z_)
            return tuple(np.conj(a) for a in endpoint(th_, z_))

        monkeypatch.setattr(prinseries, "_endpoint", conjugated)
        conj_w, conj_u = march_arguments(th, z, floor)
        assert zs == list(np.linspace(0.0, 1.0, march_steps(z)) * z)
        assert np.allclose(conj_w, -arg_w, rtol=0.0, atol=1e-13)
        assert np.allclose(conj_u - th, th - arg_u, rtol=0.0, atol=1e-13)

    def test_sl2_continues_zeta_by_the_march_on_long_segments(self):
        # past t pi/2 = 2 pi the argument of u winds, and its principal
        # value is 2 pi off the continued one
        for x_scale, t in ((0.5, 3.2), (0.5, 14.0), (1.0, 7.0)):
            t = scaled(t, x_scale)
            for theta in (0.1, 0.4, 1.0, 2.0, 2.8):
                closed = outcome(sl2_components, theta, t)
                assert_same_outcome(closed, outcome(march_sl2, theta, t))

    def test_closed_form_matches_march_on_long_segments_and_real_time(self):
        # seeded segments with phase |z| pi/2 up to 40, some nodes near the
        # corners pi/4 and 3 pi/4: where the march exits the closed form
        # exits no later; where only the closed form exits the march stepped
        # over the crossing; elsewhere the values agree
        rng = np.random.default_rng(20261019)
        tally = {"values": 0, "both_exit": 0, "closed_only": 0}
        for i in range(240):
            phase = rng.choice([-1.0, 1.0]) * rng.uniform(0.5 * PI, 40.0)
            z = complex(phase / XS) if i % 3 == 0 else 1j * phase / XS
            thetas = rng.uniform(0.0, PI, 8)
            if i % 4 == 0:
                thetas[0] = rng.choice([PI / 4, 3 * PI / 4]) + 10.0 ** rng.uniform(-16.0, -11.0)
            closed = outcome(prinseries._closed_components, thetas, z)
            march = outcome(march_components, thetas, z)
            if exited(closed) and not exited(march):
                tally["closed_only"] += 1
                assert_first_crossing(thetas, z, closed[1])
                continue
            tally["both_exit" if exited(march) else "values"] += 1
            assert_same_outcome(closed, march, rel=1e-13)
            if z.real == 0.0 and not exited(closed):
                for theta in thetas[:2]:
                    assert_same_outcome(
                        outcome(sl2_components, theta, z.imag),
                        outcome(march_sl2, theta, z.imag),
                        rel=1e-13,
                    )
        assert min(tally.values()) >= 10, tally

    def test_long_segment_exit_matches_decompose_path(self):
        # theta = pi/4 + 1e-14 passes the corner at t = 1, between two of the
        # march's steps
        theta, t = PI / 4 + 1e-14, scaled(2.5, 1.0)
        with pytest.raises(DomainExitError) as closed:
            sl2_iwasawa_closed(theta, t)
        with pytest.raises(DomainExitError) as path:
            decompose_path(PElement(np.diag([X1, -X1])), givens(2, 0, 1, theta), t)
        assert abs(closed.value.t_fail - path.value.t_fail) <= 1e-9
        assert not exited(outcome(march_sl2, theta, t))

    def test_principal_route_matches_march_on_criterion_grids(self):
        # criterion 11's pairings at quad 1024; criteria 10/11's fits at 512,
        # with the derivative's difference points t +- h
        grid = [(1024, 1.0 - 2.0**-j) for j in range(4, 15)]
        for j in range(4, 13):
            t = 1.0 - 2.0**-j
            h = 1e-2 * (1.0 - t)
            grid += [(512, t - h), (512, t), (512, t + h)]
        for quad, t in grid:
            pts = prinseries._quad_nodes(quad, 1j * t)
            assert_routes_agree(prinseries._nodes(0, pts, pts), 1j * t)

    def test_principal_route_matches_march_on_seeded_draws(self):
        rng = np.random.default_rng(20261018)
        for i in range(200):
            x_scale = XS if i % 2 else rng.uniform(0.05, XS)
            theta = rng.uniform(0.0, 2 * PI)
            t = scaled(1.0 - 10.0 ** rng.uniform(-12.0, 0.0), x_scale)
            assert_routes_agree([theta], 1j * t)
            assert_same_outcome(outcome(sl2_components, theta, t), outcome(march_sl2, theta, t))

    def test_both_routes_match_mpmath_oracle(self):
        # 50-digit principal-branch formulas (exact on this segment); w is the
        # conditioning: its rounding error eps divides by |w| in log w
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(50)
        for i in range(60):
            x_scale = XS if i % 2 else rng.uniform(0.05, XS)
            theta = rng.uniform(0.0, 2 * PI)
            t = scaled(1.0 - 10.0 ** rng.uniform(-9.0, 0.0), x_scale)
            with mpmath.workdps(50):
                x1, th, z = mpmath.mpf(X1), mpmath.mpf(theta), mpmath.mpc(0, t)
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
                for got, want in zip(route([theta], 1j * t), ref_h1_q):
                    assert abs(complex(got[0]) - want) <= bound * max(1.0, abs(want))
            for route in (sl2_components, march_sl2):
                for got, want in zip(route(theta, t), ref_sl2):
                    assert abs(got - want) <= bound * max(1.0, abs(want))

    def test_consistent_with_decompose_path(self, rng):
        x = PElement(np.diag([PI / 4, -PI / 4]))
        for _ in range(15):
            theta, t = rng.uniform(0, 2 * PI), rng.uniform(0, 0.995)
            c = sl2_iwasawa_closed(theta, t)
            f = decompose_path(x, rot2(theta), t)
            assert abs(np.exp(f.H[0]) - c.alpha1) < 1e-10
            assert abs(f.eta[0, 1] - c.nu) < 1e-10
            assert np.max(np.abs(f.kappa - c.kappa())) < 1e-10


class TestOrbitValues:
    def test_orbit_values_match_mpmath_oracle(self):
        # 50-digit orbit e^{(1 - s) H1} sum c_m e^{i m zeta} from the
        # principal-branch H1 and zeta (exact on this segment).  The error is
        # measured against the sum of the terms' magnitudes, so that
        # cancellation inside the sum is not charged to the kernel; the
        # conditioning is w's rounding, as for the components
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        v = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25, -4: 0.1 - 0.2j, 6: 0.05j})
        params = (S_AXIS, S_OFF, 1.8 + 0.3j)
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
            t = scaled(1.0 - 10.0 ** rng.uniform(-9.0, 0.0), x_scale)
            with mpmath.workdps(50):
                x1, th, z = mpmath.mpf(X1), mpmath.mpf(theta), mpmath.mpc(0, t)
                w = mpmath.cosh(2 * z * x1) - mpmath.sinh(2 * z * x1) * mpmath.cos(2 * th)
                u = mpmath.exp(-z * x1) * mpmath.cos(th) + 1j * mpmath.exp(z * x1) * mpmath.sin(th)
                h1 = mpmath.log(w) / 2
                zeta = -1j * (mpmath.log(u * mpmath.exp(-1j * th)) + 1j * th - h1)
                terms = [mpmath.mpc(c) * mpmath.exp(1j * m * zeta) for m, c in v.modes.items()]
                refs = []
                for p in params:
                    factor = mpmath.exp((1 - mpmath.mpc(p)) * h1)
                    refs.append((complex(factor * sum(terms)),
                                 float(abs(factor) * sum(abs(x) for x in terms))))
                bound = 16 * eps / min(1.0, float(abs(w)))
            for p, (want, scale) in zip(params, refs):
                got = orbit_values(v, p, 1j * t, np.array([theta]))[0]
                assert abs(got - want) <= bound * scale


def grid_orbit_oracle(mpmath, v, params, z, node):
    """50-digit orbit at one node (an mpf angle), one (value, scale) per
    parameter set; scale is |prefactor| sum |c_m q^{m/2}|.  The principal log
    of w is its continued log on every segment used here (real time, or
    t < 2, where w crosses no negative real axis)."""
    x1, z = mpmath.mpf(X1), mpmath.mpc(z)
    w = mpmath.cosh(2 * z * x1) - mpmath.sinh(2 * z * x1) * mpmath.cos(2 * node)
    u = mpmath.exp(-z * x1) * mpmath.cos(node) + 1j * mpmath.exp(z * x1) * mpmath.sin(node)
    q = u * u / w
    terms = [mpmath.mpc(c) * q ** (m // 2) for m, c in v.modes.items()]
    refs = []
    for p in params:
        factor = mpmath.exp((1 - mpmath.mpc(p)) * mpmath.log(w) / 2)
        refs.append((complex(factor * sum(terms)), float(abs(factor) * sum(abs(x) for x in terms))))
    return refs, float(abs(w))


class TestGridOrbit:
    # (z, P): the principal route near the corner, real time, and a long
    # segment, whose P is not divisible by 4 so that no node sits on the
    # corner pi/4 the segment passes
    ROUTES = [
        pytest.param(scaled(z, x_scale), pts, id=f"{route}-{pts}")
        for route, x_scale, z, long_pts in (
            ("principal", XS, 1j * (1.0 - 2.0**-8), 1024),
            ("real_time", XS, complex(1.1), 1024),
            ("long_segment", 1.0, 2.5j, 1026),
        )
        for pts in (long_pts, 1001)
    ]

    @pytest.mark.parametrize("z, pts", ROUTES)
    def test_mirrored_values_match_mpmath_at_the_mirrored_node(self, z, pts):
        # node P - k is evaluated at exactly pi - theta_k, not at its own
        # rounded angle; both halves are held to the pointwise oracle bound
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        v = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25, -4: 0.1 - 0.2j, 6: 0.05j})
        params = (S_AXIS, 1.8 + 0.3j)
        thetas = prinseries._nodes(0, pts, pts)
        got = [prinseries._grid_orbit(v, p, z, pts) for p in params]
        rng = np.random.default_rng(pts)
        near_corner = int(round(0.75 * pts))  # q -> infinity at 3 pi / 4
        picks = {0, 1, pts // 2, pts // 2 + 1, pts - 1, near_corner - 1, near_corner, near_corner + 1}
        picks |= set(rng.integers(0, pts, 24).tolist())
        for k in sorted(picks):
            with mpmath.workdps(50):
                if k <= pts // 2:
                    node = mpmath.mpf(thetas[k])
                else:
                    node = mpmath.pi - mpmath.mpf(thetas[pts - k])
                refs, mag_w = grid_orbit_oracle(mpmath, v, params, z, node)
            bound = 16 * eps / min(1.0, mag_w)
            for vals, (want, scale) in zip(got, refs):
                assert abs(vals[k] - want) <= bound * scale

    @pytest.mark.parametrize("quad", [1024, 1001])
    def test_half_the_nodes_reach_the_components(self, quad, monkeypatch):
        # one grid per time, and nodes per time z: a grid of several blocks
        # reaches the components in one call per block (t = 0.999 grows the
        # grid to 32,000 nodes)
        grids, nodes = [], Counter()
        quad_nodes, closed = prinseries._quad_nodes, prinseries._closed_components

        def counted_grid(quad_points, z):
            pts = quad_nodes(quad_points, z)
            grids.append((z, pts))
            return pts

        def counted_components(theta, z):
            nodes[z] += np.size(theta)
            return closed(theta, z)

        monkeypatch.setattr(prinseries, "_quad_nodes", counted_grid)
        monkeypatch.setattr(prinseries, "_closed_components", counted_components)
        extended_norm_sq(V_MIX, S_AXIS, 0.9, quad)  # P = quad
        extended_norm_sq(V_MIX, S_AXIS, 0.999, quad)
        real_time_norm_sq(V_MIX, S_OFF, 0.7, quad)
        boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, [0.0, 0.5, 0.99, 0.9995], quad)
        assert [z for z, _ in grids] == [0.9j, 0.999j, 0.7, 0j, 0.5j, 0.99j, 0.9995j]
        assert dict(grids)[0.999j] // 2 + 1 > prinseries.GRID_BLOCK
        assert nodes == {z: size // 2 + 1 for z, size in grids}
        # one grid, built for the stencil point nearer the boundary, serves both
        grids.clear()
        nodes.clear()
        orbit_derivative_norm(V_MIX, S_AXIS, 0.999, quad)
        h = prinseries.FD_SCALE * (1.0 - 0.999)
        assert len(grids) == 1 and grids[0][0] == 1j * (0.999 + h)
        size = grids[0][1]
        assert nodes == {1j * (0.999 + h): size // 2 + 1, 1j * (0.999 - h): size // 2 + 1}

    B = prinseries.GRID_BLOCK
    # P and what its half grid k = 0 ... P // 2 makes of the blocks
    BLOCK_GRIDS = {
        "one_block_less_one_node": 2 * B - 4,
        "one_block": 2 * B - 2,
        "one_block_plus_one_node": 2 * B,
        # odd P: node k = B, alone in the second block, is mirrored to P - B,
        # so the mirrored nodes straddle the block edge
        "odd_mirror_straddles_edge": 2 * B + 1,
        "several_blocks": 6 * B + 10,
        "several_blocks_odd": 5 * B + 3,
    }
    BLOCK_TIMES = {
        "principal": 1j * (1.0 - 2.0**-8),
        "real_time": complex(1.1),
        "negative_real_time": complex(-0.7),
        "long_segment": scaled(2.5j, 1.0),
    }

    @pytest.mark.parametrize("route", sorted(BLOCK_TIMES))
    @pytest.mark.parametrize("grid", sorted(BLOCK_GRIDS))
    def test_blocked_orbit_matches_the_one_shot_oracle(self, grid, route):
        pts, z = self.BLOCK_GRIDS[grid], self.BLOCK_TIMES[route]
        v = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25, -4: 0.1 - 0.2j, 6: 0.05j})
        for p in (S_AXIS, S_OFF):
            blocked = outcome(prinseries._grid_orbit, v, p, z, pts)
            assert same_bytes(blocked, outcome(one_shot_grid_orbit, v, p, z, pts))

    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_every_block_layout_matches_the_one_shot_oracle(self, block, monkeypatch):
        # tiny blocks put block edges, single-node blocks and mirror edges
        # at every position of small grids, exits included (1.0 i and
        # 1 - 1e-14 i cross the floor at the node pi/4 when 4 divides P)
        monkeypatch.setattr(prinseries, "GRID_BLOCK", block)
        for pts in range(64, 84):
            for z in [*self.BLOCK_TIMES.values(), 1.0j, 1j * (1.0 - 1e-14)]:
                blocked = outcome(prinseries._grid_orbit, V_ASYM, S_OFF, z, pts)
                assert same_bytes(blocked, outcome(one_shot_grid_orbit, V_ASYM, S_OFF, z, pts))

    def test_exit_names_a_crossing_in_a_later_block(self):
        # at real time -tau with floor 1/2, nodes within about pi/12 of pi/2
        # reach the floor, the later the farther from pi/2: the first block
        # that exits holds none of the earliest crossing, at node P/2 in the
        # last block, which the oracle reports
        tau = math.log(0.5 / config.TOLERANCES.minor_floor_rel) / (2.0 * X1)
        z, pts = complex(-tau), 16 * prinseries.GRID_BLOCK
        thetas = prinseries._nodes(0, pts, pts)
        oracle = outcome(one_shot_grid_orbit, V_MIX, S_AXIS, z, pts)
        assert exited(oracle) and outcome(prinseries._grid_orbit, V_MIX, S_AXIS, z, pts) == oracle
        assert oracle[1] == pytest.approx(math.log(2.0) / (2.0 * X1), rel=1e-12)
        starts = range(0, pts // 2 + 1, prinseries.GRID_BLOCK)
        blocks = [thetas[k : k + prinseries.GRID_BLOCK] for k in starts]
        first = next(b for b in blocks if exited(outcome(prinseries._closed_components, b, z)))
        assert outcome(prinseries._closed_components, first, z)[1] > oracle[1]
        assert first[-1] < thetas[pts // 2]

    @pytest.mark.parametrize("pts", [1024, 1000])
    @pytest.mark.parametrize("z", [1.0j, 1j * (1.0 - 1e-14)])
    def test_exit_reports_the_full_grid_crossing(self, pts, z):
        # a node at or next to pi/4 crosses the floor; the reflected grid
        # reports the crossing the full grid reports, which the march also
        # detects, at a step on or after it
        thetas = prinseries._nodes(0, pts, pts)
        half = outcome(prinseries._grid_orbit, V_MIX, S_AXIS, z, pts)
        full = outcome(prinseries._closed_components, thetas, z)
        assert exited(full) and half == full
        assert_same_outcome(full, outcome(march_components, thetas, z))
        assert_first_crossing(thetas, z, full[1])

    def test_long_segment_grid_exits_at_the_corner_node(self):
        # node 256 of 1,024 is fl(pi/4), where |c| = 6.1e-17 is far below the
        # floor; the segment to 2.5 i at x_scale = 1 passes the corner at
        # t = 1, which the march steps over
        thetas, t = prinseries._nodes(0, 1024, 1024), scaled(2.5, 1.0)
        half = outcome(prinseries._grid_orbit, V_MIX, S_AXIS, 1j * t, 1024)
        assert exited(half) and not exited(outcome(march_components, thetas, 1j * t))
        with pytest.raises(DomainExitError) as path:
            decompose_path(PElement(np.diag([X1, -X1])), givens(2, 0, 1, thetas[256]), t)
        assert abs(half[1] - path.value.t_fail) <= 1e-9


class TestExtendedNorm:
    def test_zero_time_is_mode_norm(self):
        assert extended_norm_sq(V_MIX, S_AXIS, 0.0, 256) == pytest.approx(
            V_MIX.norm_sq, abs=1e-12
        )

    def test_quadrature_self_consistency(self):
        for t in (0.5, 0.9, 0.99):
            a = extended_norm_sq(V_MIX, S_AXIS, t, 4096)
            b = extended_norm_sq(V_MIX, S_AXIS, t, 8192)
            assert abs(a - b) < 1e-10
            # off-axis values grow to ~1e5 where the absolute floor is
            # summation noise; doubling must still agree in relative terms
            a = extended_norm_sq(V_MIX, S_OFF, t, 4096)
            b = extended_norm_sq(V_MIX, S_OFF, t, 8192)
            assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_rejects_few_points(self):
        with pytest.raises(ValueError):
            extended_norm_sq(V_MIX, S_AXIS, 0.5, 32)

    def test_real_time_two_code_paths(self, rng):
        for _ in range(8):
            tau = rng.uniform(0.0, 1.5)
            a = real_time_norm_sq(V_MIX, S_OFF, tau, 8192)
            b = action_norm_sq(V_MIX, S_OFF, [flow(tau)], 8192)
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_monotone_on_sampled_grid(self):
        spherical = ModeVector({0: 1.0})
        for v in (spherical, V_MIX):
            vals = [extended_norm_sq(v, S_AXIS, t, 512) for t in (0.5, 0.7, 0.9, 0.97)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestUnitaryAxis:
    @pytest.mark.parametrize("shift,re_s", [(True, 2.0), (False, 1.0)])
    def test_isometry_on_axis(self, shift, re_s, rng):
        # the unshifted convention's axis Re s = 1 is Re s = 2 here
        p = complex(re_s if shift else re_s + 1.0, 0.7)
        assert p == unitary_params(0.7)
        for _ in range(10):
            g = random_sl(2, rng)
            nsq = action_norm_sq(V_MIX, p, [g], 4096)
            assert abs(nsq - V_MIX.norm_sq) < 1e-8

    def test_off_axis_is_not_isometric(self, rng):
        p = 2.5 + 0.7j
        g = flow(1.0)
        assert abs(action_norm_sq(V_MIX, p, [g], 4096) - V_MIX.norm_sq) > 1e-3


class TestGroupLaw:
    def test_real_time_composition(self):
        for tau1, tau2 in ((0.4, 0.7), (0.2, 1.1)):
            a = real_time_norm_sq(V_MIX, S_OFF, tau1 + tau2, 8192)
            b = action_norm_sq(V_MIX, S_OFF, [flow(tau1), flow(tau2)], 8192)
            assert abs(a - b) < 1e-8 * max(1.0, b)

    def test_general_composition(self, rng):
        for _ in range(5):
            g1, g2 = random_sl(2, rng), random_sl(2, rng)
            a = action_norm_sq(V_MIX, S_OFF, [g1, g2], 8192)
            b = action_norm_sq(V_MIX, S_OFF, [g1 @ g2], 8192)
            assert abs(a - b) < 1e-8 * max(1.0, b)

    def test_action_validates_determinant(self):
        with pytest.raises(ValueError, match="det"):
            action_norm_sq(V_MIX, S_OFF, [2.0 * np.eye(2)], 256)

    @pytest.mark.parametrize(
        "g",
        [np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.full((2, 2), np.nan),
         np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(4)],
        ids=["3x3", "2x3", "nan", "inf", "flat"],
    )
    def test_action_needs_a_finite_2x2_matrix(self, g):
        # the det test reads only the leading 2x2 block, and NaN passes it
        with pytest.raises(ValueError, match="finite 2x2"):
            action_norm_sq(V_MIX, S_OFF, [np.eye(2), g], 256)


QUADRATURE_ENTRY_POINTS = {
    "extended_norm_sq": lambda q: extended_norm_sq(V_MIX, S_AXIS, 0.5, q),
    "real_time_norm_sq": lambda q: real_time_norm_sq(V_MIX, S_AXIS, 0.5, q),
    "growth_exponent": lambda q: growth_exponent(V_MIX, S_AXIS, [0.5, 0.6, 0.7, 0.8], q),
    "action_norm_sq": lambda q: action_norm_sq(V_MIX, S_AXIS, [np.eye(2)], q),
    "orbit_derivative_norm": lambda q: orbit_derivative_norm(V_MIX, S_AXIS, 0.5, q),
    "boundary_pairing": lambda q: boundary_pairing(
        V_MIX, smooth_test_vector(), S_AXIS, [0.0, 0.5, 0.75], q
    ),
}


@pytest.mark.parametrize("entry", sorted(QUADRATURE_ENTRY_POINTS))
def test_quadrature_entry_points_validate_quad_points(entry):
    call = QUADRATURE_ENTRY_POINTS[entry]
    for quad_points in (0, 1, 63):
        with pytest.raises(ValueError, match="quad_points must be >= 64"):
            call(quad_points)
    call(64)


@pytest.mark.parametrize("quad_points", [128.5, 128.0, np.float64(256.0), "128", None])
@pytest.mark.parametrize("entry", sorted(QUADRATURE_ENTRY_POINTS))
def test_quadrature_entry_points_need_an_integer_count(entry, quad_points):
    # a float count built a grid whose spacing is not pi / P: the isometry
    # at real time 0 returned 1.24612 for a vector of norm^2 1.25
    message = f"quad_points must be an integer, got {quad_points!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        QUADRATURE_ENTRY_POINTS[entry](quad_points)


@pytest.mark.parametrize("entry", sorted(QUADRATURE_ENTRY_POINTS))
def test_quadrature_entry_points_take_numpy_integers(entry):
    want = QUADRATURE_ENTRY_POINTS[entry](128)
    for quad_points in (np.int64(128), np.int32(128), np.uint16(128)):
        got = QUADRATURE_ENTRY_POINTS[entry](quad_points)
        assert got == want


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the blocked orbit, which forms only its blocks' nodes, the in-place FFT
# and one |vals|^2 temporary keep the peak near the output array: measured
# 1.1 to 1.4 x 16 B per node (pairing) and 1.5 (norm, the temporary).  A
# whole node grid of 0.5 more, held through the quadrature, peaked at 1.9
# (pairing, j = 12) and 2.0 (norm); the one-shot pipeline at 4.5 and 4.0
PEAK_BYTES_PER_NODE = 1.75 * 16


@pytest.mark.parametrize("j", [12, 13, 14])
def test_pairing_peak_memory_stays_within_budget(j):
    t = 1.0 - 2.0**-j
    pts = prinseries._quad_nodes(1024, 1j * t)
    w = smooth_test_vector()
    peak = traced_peak(lambda: boundary_pairing(V_MIX, w, S_AXIS, [0.5, 0.75, t], 1024))
    assert peak <= PEAK_BYTES_PER_NODE * pts


def test_norm_peak_memory_stays_within_budget():
    t = 1.0 - 2.0**-14
    pts = prinseries._quad_nodes(1024, 1j * t)
    peak = traced_peak(lambda: extended_norm_sq(V_MIX, S_AXIS, t, 1024))
    assert peak <= PEAK_BYTES_PER_NODE * pts


CROWN_TIME_ENTRY_POINTS = {
    "extended_norm_sq": lambda t: extended_norm_sq(V_MIX, S_AXIS, t, 1024),
    "orbit_derivative_norm": lambda t: orbit_derivative_norm(V_MIX, S_AXIS, t, 1024),
    "boundary_pairing": lambda t: boundary_pairing(
        V_MIX, smooth_test_vector(), S_AXIS, [t - 0.2, t - 0.1, t], 1024
    ),
}


@pytest.mark.parametrize("x_scale, t", [(XS, 1.0), (PI / 4, 2.0)])
@pytest.mark.parametrize("entry", sorted(CROWN_TIME_ENTRY_POINTS))
def test_crown_boundary_time_is_rejected_before_any_node(entry, x_scale, t, monkeypatch):
    # |t| = 1 puts the corner angle's |w| at 0; the grid would grow to
    # MAX_QUAD_POINTS nodes and march into a DomainExitError
    def no_orbit(*args):
        raise AssertionError("orbit evaluated for a crown-boundary time")

    monkeypatch.setattr(prinseries, "_closed_components", no_orbit)
    with pytest.raises(ValueError, match="crown boundary"):
        CROWN_TIME_ENTRY_POINTS[entry](scaled(t, x_scale))


NON_FINITE_TIME_ENTRY_POINTS = {
    "extended_norm_sq": lambda t: extended_norm_sq(V_MIX, S_AXIS, t, 256),
    "real_time_norm_sq": lambda t: real_time_norm_sq(V_MIX, S_AXIS, t, 256),
    "orbit_derivative_norm": lambda t: orbit_derivative_norm(V_MIX, S_AXIS, t, 256),
    "boundary_pairing": lambda t: boundary_pairing(
        V_MIX, smooth_test_vector(), S_AXIS, [0.5, 0.6, t], 256
    ),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_TIME_ENTRY_POINTS))
def test_non_finite_time_is_rejected_before_any_node(entry, t, monkeypatch):
    # i * nan has a NaN real part and i * inf is nan + inf i, so neither
    # reaches the strip test, and the march cannot turn NaN or inf into a
    # step count
    def no_orbit(*args):
        raise AssertionError("orbit evaluated for a non-finite time")

    monkeypatch.setattr(prinseries, "_closed_components", no_orbit)
    with pytest.raises(ValueError, match="t must be finite"):
        NON_FINITE_TIME_ENTRY_POINTS[entry](t)


class TestGrowthExponent:
    def test_synthetic_power_law_recovery(self):
        ts = [1 - 2.0**-j for j in range(4, 13)]
        fit = fit_power_law(ts, [5.0 * (1 - t) ** -1.5 for t in ts])
        assert fit.n_hat == pytest.approx(1.5, abs=1e-6)
        assert fit.log_c_hat == pytest.approx(math.log(5.0), abs=1e-6)

    def test_mode_pair_blowup_is_clean(self):
        ts = [1 - 2.0**-j for j in range(4, 12)]
        fit = growth_exponent(ModeVector({2: 1.0, -2: 1.0}), S_AXIS, ts, 256)
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
        fit = growth_exponent(ModeVector({m: 1.0, -m: 1.0}), s, ts, 512)
        assert fit.n_hat == pytest.approx((m + s.real - 2.0) / 2.0, abs=0.01)

    @pytest.mark.parametrize("m,re_s", [(2, 1.0), (2, 1.5), (4, 1.0)])
    def test_exponent_law_without_rho_shift(self, m, re_s):
        # the unshifted convention's s is s + 1 here: its character
        # contributes |w|^(-Re s), so its axis is 1 and N = (max|m| + Re s - 1) / 2
        ts = [1 - 2.0**-j for j in range(4, 13)]
        p = complex(re_s + 1.0, 0.4)
        fit = growth_exponent(ModeVector({m: 1.0, -m: 1.0}), p, ts, 512)
        assert fit.n_hat == pytest.approx((m + re_s - 1.0) / 2.0, abs=0.01)

    def test_spherical_axis_orbit_measured_behavior(self):
        # sqrt-log truth: small finite exponent, fit quality below a clean
        # power law (measured 0.982 on this grid) but stable
        ts = [1 - 2.0**-j for j in range(4, 13)]
        fit = growth_exponent(ModeVector({0: 1.0}), S_AXIS, ts, 256)
        assert math.isfinite(fit.n_hat)
        assert 0.0 < fit.n_hat < 0.3
        assert fit.r_squared > 0.97

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            growth_exponent(ModeVector({}), S_AXIS, [0.5, 0.75, 0.9, 0.95], 256)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            growth_exponent(V_MIX, S_AXIS, [0.2, 0.5, 0.9, 0.95], 256)


class TestBoundaryPairing:
    def test_value_at_zero_time(self):
        v = ModeVector({0: 1.0})
        rep = boundary_pairing(v, v, S_AXIS, [0.0, 0.5, 0.75], 256)
        assert rep.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_structure_at_unit_scale(self):
        ts = [1 - 2.0**-j for j in range(4, 15)]
        rep = boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, ts, 1024)
        assert rep.decreasing
        ratios = [b / a for a, b in zip(rep.diffs, rep.diffs[1:])]
        assert all(0.4 < r < 0.6 for r in ratios[2:])

    def test_scaled_probe_reaches_cauchy_verdict(self):
        ts = [1 - 2.0**-j for j in range(4, 15)]
        w = smooth_test_vector()
        w_small = ModeVector({m: 0.01 * c for m, c in w.modes.items()})
        rep = boundary_pairing(V_MIX, w_small, S_AXIS, ts, 1024)
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
        rep = boundary_pairing(v, w, S_AXIS, t_grid, quad)
        for got, want in zip(rep.values, dense_pairing(v, w, S_AXIS, t_grid, quad)):
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_rejects_fat_tail_test_vector(self):
        fat = ModeVector({m: 1.0 for m in range(-20, 21, 2)})
        with pytest.raises(ValueError, match="decay"):
            boundary_pairing(V_MIX, fat, S_AXIS, [0.5, 0.75, 0.9], 256)

    @pytest.mark.parametrize("x_scale, t_far, t_near", [(PI / 4, 1.99, 1.999), (XS, -0.99, -0.999)])
    def test_derivative_grows_toward_the_crown_boundary(self, x_scale, t_far, t_near):
        # the difference step scales with the distance to |t| = 1, so the
        # stencil t -+ h stays inside the strip on both sides of t = 0
        far = orbit_derivative_norm(V_MIX, S_AXIS, scaled(t_far, x_scale), 1024)
        near = orbit_derivative_norm(V_MIX, S_AXIS, scaled(t_near, x_scale), 1024)
        assert near > far

    def test_derivative_bump(self):
        ts = [1 - 2.0**-j for j in range(4, 12)]
        norms = [math.sqrt(extended_norm_sq(V_MIX, S_AXIS, t, 256)) for t in ts]
        dnorms = [orbit_derivative_norm(V_MIX, S_AXIS, t, 256) for t in ts]
        bump = fit_power_law(ts, dnorms).n_hat - fit_power_law(ts, norms).n_hat
        assert bump == pytest.approx(1.0, abs=0.1)
