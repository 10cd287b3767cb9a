import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import rot2
from crownlab import config, prinseries
from crownlab.errors import DomainExitError, SymmetryError
from crownlab.growth import fit_power_law
from crownlab.iwasawa import decompose_path, domain_test
from crownlab.liegroup import PElement, givens, random_sl
from crownlab.numkernel import frobenius_norm, gram, minor_floor
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


def point_floor(z):
    """The pointwise floor at g(z): ``minor_floor`` at its Gram norm
    ||exp(-2 z x)||_F = sqrt(2 cosh(4 Re z X1)), which is sqrt 2 on the crown."""
    return float(minor_floor(math.sqrt(2.0 * math.cosh(4.0 * X1 * complex(z).real))))


def flow(tau):
    return np.diag([math.exp(tau * X1), math.exp(-tau * X1)])


def march_steps(z: complex) -> int:
    return max(16, int(math.ceil(abs(z) * XS / 0.15)) + 1)


def node_trig(nodes):
    """The node trig of a rule's table, or of arbitrary angles."""
    if isinstance(nodes, prinseries._Table):
        return nodes.trig
    return prinseries._trig(nodes)


def closed_components(nodes, z):
    """``_closed_components`` at one time z: the row of its m = 1 pass."""
    h1, q = prinseries._closed_components(node_trig(nodes), [z])
    return h1[0], q[0]


def endpoint(trig, z):
    """``_endpoint`` at one time z: the rows of w, u, v and sinh(2 z x1) of
    its m = 1 pass, and cos 2 theta."""
    w, u, v, sinh2, cos2 = prinseries._endpoint(trig, [z])
    return w[0], u[0], v[0], sinh2[0], cos2


def march_arguments(trig, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """How far the arguments of w = a^2 + c^2 and u = a + i c turn along the
    segment to z, by nearest-argument steps in tau from 0 to 1, each step
    evaluating w and u by ``_endpoint`` at the given node trig.  The
    continued arguments are these turns plus arg w = 0 and arg u = theta at
    z = 0.

    Raises DomainExitError at the first step where min |w| is at or below
    the step's ``point_floor``.

    The oracle for the closed-form branch rule: it continues the same
    endpoint formula by steps, and its floor test sees only the steps.
    """
    taus = np.linspace(0.0, 1.0, march_steps(z))
    w_prev, u_prev, *_ = endpoint(trig, taus[0] * complex(z))
    arg_w, arg_u = np.zeros(w_prev.shape), np.zeros(u_prev.shape)
    for j in range(1, taus.size):
        w_cur, u_cur, *_ = endpoint(trig, taus[j] * complex(z))
        least = float(np.abs(w_cur).min())
        if least <= point_floor(taus[j] * complex(z)):
            raise DomainExitError(
                last_good_t=float(taus[j - 1] * abs(z)),
                t_fail=float(taus[j] * abs(z)),
                minor_index=1,
                magnitude=least,
            )
        arg_w += np.angle(w_cur / w_prev)
        arg_u += np.angle(u_cur / u_prev)
        w_prev, u_prev = w_cur, u_cur
    return arg_w, arg_u


def march_components(nodes, z):
    """(H1, q) with the argument of w continued by the march."""
    trig = node_trig(nodes)
    arg_w, _ = march_arguments(trig, z)
    # endpoint values in the library's arithmetic: near the corner |w| is
    # small, and w's rounding then moves log |w| well past 1e-14
    w, u, v, *_ = endpoint(trig, z)
    return 0.5 * (np.log(np.abs(w)) + 1j * arg_w), u / v


def sl2_components(theta, t):
    c = sl2_iwasawa_closed(theta, t)
    return c.alpha1, c.zeta, c.nu


def march_sl2(theta, t):
    """sl2_iwasawa_closed's (alpha1, zeta, nu) with both arguments continued by the march."""
    th, z = np.array([float(theta)]), 1j * t
    trig = prinseries._trig(th)
    arg_w, turn_u = march_arguments(trig, z)
    w, u, _, sinh2, _ = endpoint(trig, z)
    h1 = 0.5 * (np.log(np.abs(w)) + 1j * arg_w)
    zeta = -1j * (np.log(np.abs(u)) + 1j * (th + turn_u) - h1)
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


def assert_routes_agree(nodes, z):
    assert_same_outcome(outcome(closed_components, nodes, z), outcome(march_components, nodes, z))


def bisect_domain_exit(theta, z):
    """The path time, to within 2^-60 of |z|, at which ``domain_test`` puts
    g(tau z) = exp(-tau z x) k_theta outside the domain, by bisection on
    the segment to z."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        at = mid * complex(z)
        inside, _ = domain_test(np.diag([np.exp(-at * X1), np.exp(at * X1)]) @ rot2(theta))
        lo, hi = (mid, hi) if inside else (lo, mid)
    return hi * abs(z)


def assert_first_crossing(nodes, z, t_fail):
    """min |w| over the nodes stays above the pointwise floor on 256 points
    of the segment before path time t_fail and reaches it at t_fail."""
    trig, unit = node_trig(nodes), z / abs(z)
    for t in np.linspace(0.0, t_fail, 257)[:-1]:
        assert np.abs(endpoint(trig, t * unit)[0]).min() > point_floor(t * unit)
    at, floor = np.abs(endpoint(trig, t_fail * unit)[0]).min(), point_floor(t_fail * unit)
    assert at <= 1.01 * floor and (t_fail == 0.0 or at >= 0.99 * floor)


# The oracle: the uniform trapezoid rule every quadrature used before the
# graded rule.  P = max(quad, 32 / (1 - |t|)) nodes theta_k = pi k / P keep
# the error, which decays like exp(-2 P delta) with a strip half-width delta
# of order 1 - |t|, at roundoff; the pairing is a sum of DFT bins.
TRAPEZOID_STRIP_FACTOR = 32.0


def trapezoid_size(quad, z):
    if z.real == 0.0:
        return max(quad, math.ceil(TRAPEZOID_STRIP_FACTOR / (1.0 - abs(z.imag))))
    return quad


def trapezoid_trig(pts):
    """The node trig of theta_k = pi k / P, k < P, each formed from its offset
    d = pi (4 k - (2 c + 1) P) / (4 P) to the nearer corner (2 c + 1) pi/4,
    as the rule's tables form theirs.  The rounded angles fl(pi k / P) sit up
    to an ulp of 3 pi/4 off the equispaced nodes, which near the corners
    moves the orbit by about eps / (1 - |t|) relative: 3.0e-11 of criterion
    11's pairing at 1 - t = 2^-14."""
    k = np.arange(pts)
    upper = 2 * k >= pts
    d = math.pi * (4 * k - np.where(upper, 3, 1) * pts) / (4 * pts)
    cos_d, sin_d, sin_2d = np.cos(d), np.sin(d), np.sin(2.0 * d)
    return (np.where(upper, -sin_d, cos_d), np.where(upper, cos_d, sin_d),
            np.where(upper, sin_2d, -sin_2d))


def trapezoid_orbit(v, s, z, pts):
    return prinseries._orbit(v, s, [z], trapezoid_trig(pts))[0]


def trapezoid_norm_sq(v, s, z, quad):
    return float(np.mean(np.abs(trapezoid_orbit(v, s, z, trapezoid_size(quad, z))) ** 2))


def trapezoid_derivative_norm(v, s, t, quad):
    """The trapezoid norm of the orbit of dpi(x) v, which is i times the
    orbit's t-derivative node by node (``test_centred_difference_converges_like_h_squared``)."""
    return math.sqrt(trapezoid_norm_sq(prinseries.dpi_x(v, s), s, 1j * t, quad))


def trapezoid_pairing(v, w_smooth, s, t_grid, quad):
    """e^{-i m theta_k} = e^{-2 pi i (m/2) k / P} on theta_k = pi k / P, so the
    trapezoid sum of conj(w) * orbit is sum_m conj(c_m) fft(orbit)[m/2 mod P] / P,
    aliasing included."""
    ms, cs = w_smooth.arrays()
    values = []
    for t in t_grid:
        pts = trapezoid_size(quad, 1j * t)
        spectrum = np.fft.fft(trapezoid_orbit(v, s, 1j * t, pts))
        bins = spectrum[ms.astype(np.int64) // 2 % pts]
        values.append(complex(np.conj(cs) @ bins) / pts)
    return values


def mpmath_pairing(mpmath, v, w_smooth, s, t):
    """F(t) = (1/pi) int_0^pi conj(w(theta)) orbit(theta) dtheta to 20 digits,
    by mpmath's adaptive quadrature broken at pi/2 and at distances
    (1 - t) 8^k from pi/4.  Both vectors must have c_m = c_{-m}: the
    integrand is then even about pi/2, and the half [0, pi/2] is doubled."""
    assert all(v.modes.get(-m) == c for m, c in v.modes.items())
    assert all(w_smooth.modes.get(-m) == c for m, c in w_smooth.modes.items())
    with mpmath.workdps(20):
        x1, z, s = mpmath.pi / 4, mpmath.mpc(0, t), mpmath.mpc(s)
        ch, sh = mpmath.cosh(2 * z * x1), mpmath.sinh(2 * z * x1)
        em, ep = mpmath.exp(-z * x1), mpmath.exp(z * x1)
        v_modes = [(m // 2, mpmath.mpc(c)) for m, c in v.modes.items()]
        w_modes = [(m // 2, mpmath.conj(mpmath.mpc(c))) for m, c in w_smooth.modes.items()]

        def integrand(th):
            w = ch - sh * mpmath.cos(2 * th)
            u = em * mpmath.cos(th) + 1j * ep * mpmath.sin(th)
            q = u * u / w
            orbit = mpmath.exp((1 - s) * mpmath.log(w) / 2) * sum(c * q**k for k, c in v_modes)
            e = mpmath.expj(-2 * th)
            return sum(c * e**k for k, c in w_modes) * orbit

        dists = [d for d in ((1 - mpmath.mpf(t)) * 8**k for k in range(40)) if d < x1 / 2]
        breaks = [0, *(x1 - d for d in dists[::-1]), x1, *(x1 + d for d in dists), 2 * x1]
        return complex(2 * mpmath.quad(integrand, breaks) / mpmath.pi)


def trapezoid_action_norm_sq(v, s, gs, quad):
    # real time: quad nodes, whose rounded angles the cocycles move
    angles = math.pi * np.arange(quad) / quad
    total = np.ones(angles.size, dtype=complex)
    for g in gs:
        factor, angles = prinseries._real_cocycle(np.asarray(g, dtype=float), angles, s)
        total = total * factor
    return float(np.mean(np.abs(total * v.evaluate(np.exp(2j * angles))) ** 2))


class TestModeVector:
    def test_rejects_odd_modes(self):
        with pytest.raises(ValueError, match="even"):
            ModeVector({1: 1.0})

    @pytest.mark.parametrize("m", [2.5, 2.0, "2", None])
    def test_rejects_a_mode_that_is_not_an_integer(self, m):
        # 2.5 read as an odd mode and "2" failed inside string formatting
        with pytest.raises(ValueError, match=re.escape(f"mode {m!r} is not an integer")):
            ModeVector({0: 1.0, m: 0.5})

    @pytest.mark.parametrize(
        "c", [math.nan, math.inf, complex(1.0, -math.inf), np.complex128(complex(math.nan, 1.0))]
    )
    def test_rejects_non_finite_coefficients(self, c):
        # a NaN coefficient made every norm and pairing of the vector nan
        with pytest.raises(ValueError, match="mode coefficients must be finite"):
            ModeVector({0: 1.0, 2: c})

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
        # at theta = pi/4 |w| = cos(t pi/2) crosses the floor near 1 - t = 9e-14,
        # and the exit names the crossing itself
        z = 1j * (1.0 - 1e-14)
        with pytest.raises(DomainExitError) as closed:
            sl2_iwasawa_closed(PI / 4, z.imag)
        exc = closed.value
        assert exc.last_good_t == exc.t_fail and exc.minor_index == 1
        assert exc.magnitude == point_floor(z)
        assert_first_crossing([PI / 4], z, exc.t_fail)
        march = outcome(march_components, [PI / 4], z)
        assert_same_outcome((exc.last_good_t, exc.t_fail), march)
        for gap in np.geomspace(1e-12, 1e-14, 17):
            assert_routes_agree([PI / 4, 0.3], 1j * (1.0 - gap))

    @pytest.mark.parametrize(
        "theta, z", [(PI / 4, 1j * (1.0 - 1e-14)), (PI / 2, complex(-12.0)), (0.0, complex(12.0))]
    )
    def test_exit_floor_is_the_pointwise_floor_at_the_crossing(self, theta, z):
        # an exit on the crown or on the real flow reports the floor that
        # minors_outside_floor gives the Gram of the crossing point
        got = outcome(closed_components, [theta], z)
        assert exited(got) and got[1] < abs(z)
        at = got[1] * z / abs(z)
        g = np.diag([np.exp(-at * X1), np.exp(at * X1)]) @ rot2(theta)
        assert got[3] == pytest.approx(float(minor_floor(frobenius_norm(gram(g)))), rel=1e-14)

    @pytest.mark.parametrize("theta, z", [(PI / 2, complex(-12.0)), (0.0, complex(12.0))])
    def test_real_exit_is_the_domain_test_crossing(self, theta, z):
        # the floor grows like e^y along the real flow, and w = A e^y + B e^-y
        # with A = 0 here falls: the exit is where domain_test puts g(tau z)
        # outside, near 9.528, not where the segment end's floor is met
        got = outcome(closed_components, [theta], z)
        assert exited(got)
        assert got[1] == pytest.approx(bisect_domain_exit(theta, z), rel=1e-9)
        assert got[1] == pytest.approx(9.528, abs=1e-3)

    # near-corner principal segments, drawn (seed 272) with theta near pi/4
    # and the endpoint |w| within a factor 1.5 of the floor, on which the
    # rounded endpoint |w|, within 5e-4 of the floor, and the exact crossing
    # at the segment's end disagreed where they were drawn.  Whether they do
    # turns on a few ulps of cos, sqrt and arctan2, which numpy's loops may
    # round differently on another CPU; the exit rule holds on any.
    @pytest.mark.parametrize(
        "theta, t",
        [(0.7853981633974179, 0.9999999999999187),
         (0.7853981633973972, 0.9999999999999376)],
        ids=["endpoint_above_floor_crossing_inside", "endpoint_below_floor_crossing_past_end"],
    )
    def test_exact_crossing_decides_a_principal_segment(self, theta, t):
        z = 1j * t
        floor = point_floor(z)
        w, *_, c = endpoint(prinseries._trig([theta]), z)
        first = prinseries._first_crossing(c, np.array([z]), np.array([floor]))[0]
        exits = first <= t * (2.0 * X1)
        for got in (outcome(closed_components, [theta], z),
                    outcome(sl2_components, theta, t)):
            assert exited(got) == exits
            if exits:
                assert got[0] == got[1] == first / (2.0 * X1) and got[3] == floor
        if (abs(w[0]) > floor) != exits:
            pytest.skip("the endpoint |w| agrees with the exact crossing on this platform")

    @staticmethod
    def count_endpoint_nodes(monkeypatch):
        """Nodes per time z that reach ``_endpoint`` and ``_continued_endpoint``:
        each call takes an array of times, and every time counts the nodes."""
        nodes = {"endpoint": Counter(), "continued": Counter()}
        endpoint, continued = prinseries._endpoint, prinseries._continued_endpoint
        # a memo hit reaches neither
        prinseries._node_memo.clear()

        def counted(name, fn):
            def wrapper(trig, z):
                for zk in np.ravel(z).tolist():
                    nodes[name][zk] += np.broadcast(*trig).size
                return fn(trig, z)

            return wrapper

        monkeypatch.setattr(prinseries, "_endpoint", counted("endpoint", endpoint))
        monkeypatch.setattr(prinseries, "_continued_endpoint", counted("continued", continued))
        return nodes

    def test_every_route_evaluates_the_endpoint_once(self, monkeypatch):
        # principal and long segments and real time: no route steps along
        # the segment, and a quadrature evaluates each node of its rule once;
        # t = 0.999 grades the pairing's rule past the requested count
        nodes = self.count_endpoint_nodes(monkeypatch)
        thetas = [0.1, 0.3, 2.0]
        times = [scaled(z, x) for x, z in ((XS, 0.9j), (0.5, 3.0j), (XS, 1.0j), (0.5, 3.2j))]
        for z in [*times, complex(0.9)]:
            closed_components(thetas, z)
        real_time_norm_sq(V_MIX, S_OFF, 0.7, 1024)
        boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, [0.0, 0.5, 0.999], 1024)
        want = {z: 3 for z in times} | {complex(0.9): 3}
        for z in (complex(0.7), 0j, 0.5j, 0.999j):
            want[z] = rule_size(1024, z)
        assert want[0j] == 1024 < want[0.999j]
        assert nodes == {"endpoint": want, "continued": want}

    def test_sl2_evaluates_the_endpoint_once_on_a_long_segment(self, monkeypatch):
        nodes = self.count_endpoint_nodes(monkeypatch)
        z = 1j * scaled(14.0, 0.5)
        sl2_iwasawa_closed(0.4, z.imag)
        assert nodes == {"endpoint": {z: 1}, "continued": {z: 1}}

    @pytest.mark.parametrize("z", [0.3 + 0.4j, complex(math.inf), 1j * math.nan])
    def test_rejects_complex_or_non_finite_time(self, z):
        # times are checked where they enter: sl2_iwasawa_closed takes the
        # time z = i t, and a quadrature's rules take real time as it is
        with pytest.raises(ValueError, match="finite and real or imaginary"):
            sl2_iwasawa_closed(0.1, z / 1j)
        if z.real != 0.0 and z.imag != 0.0:
            with pytest.raises(ValueError, match="finite and real or imaginary"):
                real_time_norm_sq(V_MIX, S_AXIS, z, 256)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_sl2_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            sl2_iwasawa_closed(0.1, t)

    def test_march_steps_through_endpoint(self, monkeypatch):
        # a conjugating endpoint must negate the oracle's increments: the
        # march has no formula for w or u of its own
        trig, z = prinseries._trig([0.1, 0.4, 1.0, 2.0]), scaled(7.0j, 0.5)
        arg_w, arg_u = march_arguments(trig, z)
        endpoint, zs = prinseries._endpoint, []

        def conjugated(trig_, z_):
            zs.extend(np.ravel(z_).tolist())
            return tuple(np.conj(a) for a in endpoint(trig_, z_))

        monkeypatch.setattr(prinseries, "_endpoint", conjugated)
        conj_w, conj_u = march_arguments(trig, z)
        assert zs == list(np.linspace(0.0, 1.0, march_steps(z)) * z)
        assert np.allclose(conj_w, -arg_w, rtol=0.0, atol=1e-13)
        assert np.allclose(conj_u, -arg_u, rtol=0.0, atol=1e-13)

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
        # corners where |w| falls below the floor: pi/4 and 3 pi/4 on the
        # crown, and on the real flow pi/2 (z < 0) or 0 and pi (z > 0), where
        # the coefficient of e^y in w vanishes.  Where the march exits the
        # closed form exits no later; where only the closed form exits the
        # march stepped over the crossing; elsewhere the values agree
        rng = np.random.default_rng(20261019)
        tally = {"values": 0, "both_exit": 0, "closed_only": 0}
        for i in range(240):
            phase = rng.choice([-1.0, 1.0]) * rng.uniform(0.5 * PI, 40.0)
            z = complex(phase / XS) if i % 3 == 0 else 1j * phase / XS
            thetas = rng.uniform(0.0, PI, 8)
            if i % 4 == 0:
                corners = [PI / 4, 3 * PI / 4] if z.imag else [PI / 2] if phase < 0 else [0.0, PI]
                thetas[0] = rng.choice(corners) + 10.0 ** rng.uniform(-16.0, -11.0)
            closed = outcome(closed_components, thetas, z)
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
            assert_routes_agree(rule(quad, 1j * t), 1j * t)

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
            for route in (closed_components, march_components):
                for got, want in zip(route([theta], 1j * t), ref_h1_q):
                    assert abs(complex(got[0]) - want) <= bound * max(1.0, abs(want))
            for route in (sl2_components, march_sl2):
                for got, want in zip(route(theta, t), ref_sl2):
                    assert abs(got - want) <= bound * max(1.0, abs(want))

    @pytest.mark.parametrize("corner", [PI / 4, 3 * PI / 4], ids=["pi_4", "3pi_4"])
    def test_node_trig_near_the_corners_matches_mpmath(self, corner):
        # cos phi, sin phi (phi = theta - pi/4) and cos 2 theta of the float
        # theta, one of them as small as theta's distance to the corner: phi
        # is reduced against the nearer corner, where theta - fl(pi/4) ~ pi/2
        # would round by about 1e-16 absolute near 3 pi/4
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(350)
        thetas = corner + rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-16.0, -6.0, 60)
        got = prinseries._trig(thetas)
        with mpmath.workdps(40):
            for k, theta in enumerate(thetas):
                th = mpmath.mpf(theta)
                want = (mpmath.cos(th - mpmath.pi / 4), mpmath.sin(th - mpmath.pi / 4),
                        mpmath.cos(2 * th))
                for array, value in zip(got, want):
                    assert abs(array[k] - float(value)) <= 2 * eps * abs(float(value))

    def test_sl2_near_three_quarter_pi_matches_mpmath(self):
        # angles within 1e-6 of 3 pi/4, where u (t -> -1) or v (t -> 1) falls
        # to the gap; the bound is the t side's rounding eps / |w| (worst
        # measured 1.65 of it, on nu), which the exact gap s = 1 - t would lift
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(351)
        for _ in range(60):
            theta = 3 * PI / 4 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -6.0)
            t = rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** rng.uniform(-9.0, -1.0))
            with mpmath.workdps(50):
                th, z, x1 = mpmath.mpf(theta), mpmath.mpc(0, t), mpmath.pi / 4
                w = mpmath.cosh(2 * z * x1) - mpmath.sinh(2 * z * x1) * mpmath.cos(2 * th)
                u = mpmath.exp(-z * x1) * mpmath.cos(th) + 1j * mpmath.exp(z * x1) * mpmath.sin(th)
                h1 = mpmath.log(w) / 2
                arg_u = th + mpmath.arg(u * mpmath.exp(-1j * th))
                zeta = -1j * (mpmath.log(abs(u)) + 1j * arg_u - h1)
                nu = mpmath.sin(2 * th) * mpmath.sinh(2 * z * x1) / w
                want = [complex(value) for value in (mpmath.exp(h1), zeta, nu)]
                bound = 4 * eps / min(1.0, float(abs(w)))
            for got, value in zip(sl2_components(theta, t), want):
                assert abs(got - value) <= bound * max(1.0, abs(value))

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
                got = prinseries._orbit(v, p, [1j * t], prinseries._trig(theta))[0, 0]
                assert abs(got - want) <= bound * scale


def node_orbit_oracle(mpmath, v, params, z, node):
    """50-digit orbit at one node (an mpf angle), one (value, scale) per
    parameter set; scale is |prefactor| sum |c_m q^{m/2}|.  The principal log
    of w is its continued log on every segment used here (real time, or
    |t| < 1)."""
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


def level_count(z):
    """Levels of the graded rule per quarter: 1 + the least k with
    X1 GRADE_RATIO^k <= 1 - |t| for z = i t, and 1 for real z."""
    if z.real != 0.0:
        return 1
    k = 0
    while X1 * prinseries.GRADE_RATIO**k > 1.0 - abs(z.imag):
        k += 1
    return k + 1


def rule(quad, z):
    """The graded rule of the one time z: the m = 1 case of ``_rules``."""
    [(table, _)] = prinseries._rules(quad, np.array([z], dtype=complex))
    return table


def rule_size(quad, z):
    """The node count of the rule at time z: four nodes theta_0 +- d per offset."""
    return 4 * rule(quad, z).offsets.size


def exact_node(mpmath, kappa, mu, d):
    """The angle theta_0 + sigma d of the table's block (kappa, mu) at offset d,
    with mpmath's pi: theta_0 = pi/4 or 3 pi/4 by mu, sigma = + on the blocks
    (0, 0) and (1, 1)."""
    sigma = 1 if kappa == mu else -1
    return (2 * mu + 1) * mpmath.pi / 4 + sigma * mpmath.mpf(float(d))


BLOCKS = [(0, 0), (0, 1), (1, 0), (1, 1)]


RULE_TIMES = {
    "zero": 0j,
    "real_time": complex(1.1),
    "negative_real_time": complex(-0.7),
    "inside": 0.5j,
    "criterion_11_end": 1j * (1.0 - 2.0**-14),
    "negative_deep": -1j * (1.0 - 2.0**-30),
    "deep": 1j * (1.0 - 2.0**-40),
}


class TestRule:
    @pytest.mark.parametrize("quad", [64, 256, 1000, 1024, 8193])
    @pytest.mark.parametrize("route", sorted(RULE_TIMES))
    def test_weights_sum_to_one_on_at_least_quad_nodes(self, route, quad):
        # the fewest equal panels per level that reach the requested count
        z = RULE_TIMES[route]
        table = rule(quad, z)
        d, weights = table.offsets, table.weights
        size = 4 * d.size
        panel = 4 * prinseries.PANEL_ORDER * level_count(z)
        assert size >= quad and size % panel == 0 and size - panel < quad
        assert weights.shape == d.shape and np.all(weights > 0.0)
        assert abs(4.0 * weights.sum() - 1.0) <= 1e-14
        # the offsets, and cos 2 theta = +-sin 2d with them, stay distinct down
        # to 1 - t = 2^-40, where theta_0 + d itself rounds onto theta_0
        assert 0.0 < d[0] and np.all(np.diff(d) > 0.0) and d[-1] < X1
        assert np.all(np.diff(table.cos2[1, 0]) > 0.0) and table.cos2[1, 0, 0] > 0.0
        assert 0.0 < table.theta.min() and table.theta.max() < PI

    @pytest.mark.parametrize("route", sorted(RULE_TIMES))
    def test_innermost_panel_is_no_wider_than_the_gap(self, route):
        # the weights of a panel's PANEL_ORDER nodes sum to its width / pi, and
        # every quarter runs over the same offsets
        z = RULE_TIMES[route]
        gap = 1.0 - abs(z.imag) if z.real == 0.0 else X1
        order = prinseries.PANEL_ORDER
        table = rule(1024, z)
        assert PI * table.weights[:order].sum() <= gap * (1.0 + 1e-12)
        assert table.offsets[order - 1] < gap

    def test_graded_rule_grows_like_the_log_of_the_gap(self):
        # the trapezoid needed 32 / (1 - t) nodes: 524,288 at 1 - t = 2^-14
        sizes = [rule_size(64, 1j * (1.0 - 2.0**-j)) for j in (10, 14, 20, 30, 40)]
        assert sizes == [640, 768, 1152, 1536, 2048]

    def test_node_trig_is_the_trig_of_the_angles(self):
        # cos 2 theta = -+ sin 2d, and cos phi, sin phi of phi = theta - pi/4
        # are +-cos d, +-sin d: against the trig of the rounded angles, whose
        # rounding is up to 2.2e-16 near 3 pi/4
        table = rule(1024, 1j * (1.0 - 2.0**-10))
        cos_phi, sin_phi, cos2 = table.trig
        phi = table.theta - PI / 4
        assert np.abs(cos2 - np.cos(2.0 * table.theta)).max() <= 1e-15
        assert np.abs(cos_phi - np.cos(phi)).max() <= 1e-15
        assert np.abs(sin_phi - np.sin(phi)).max() <= 1e-15

    @pytest.mark.parametrize(
        "w",
        [smooth_test_vector(), ModeVector({4: 0.3 - 0.2j}), ModeVector({0: 0.5}),
         ModeVector({-2: 1.0, -4: 0.5j, -10: 1e-5})],
        ids=["smooth", "single_mode", "constant", "negative_modes"],
    )
    @pytest.mark.parametrize("quad, t", [(1024, 1.0 - 2.0**-14), (1000, 0.5), (64, 0.0)])
    def test_test_vector_from_offsets_matches_the_mode_sum(self, w, quad, t):
        # the oracle: the Laurent sum at q = e^{2 i theta} on the rounded angles
        table = rule(quad, 1j * t)
        got = prinseries._series_at_nodes(w, table)
        want = w.evaluate(np.exp(2j * table.theta))
        assert got.shape == table.theta.shape
        assert np.abs(got - want).max() <= 1e-14 * sum(abs(c) for c in w.modes.values())

    ORBIT_ROUTES = [
        pytest.param(z, quad, id=f"{route}-{quad}")
        for route, z in (("principal", 1j * (1.0 - 2.0**-8)), ("real_time", complex(1.1)))
        for quad in (1024, 1001)
    ] + [pytest.param(1j * (1.0 - 2.0**-30), 1024, id="deep-1024")]

    @pytest.mark.parametrize("z, quad", ORBIT_ROUTES)
    def test_orbit_matches_mpmath_at_the_rule_nodes(self, z, quad):
        # the nodes theta_0 +- d nearest both singular angles and the multiples
        # of pi/2, and random ones, against the 50-digit orbit at those exact
        # angles.  The bound is w's rounding: the worst error measured was
        # 2.95 eps / min(1, |w|) at 1 - t = 2^-8 and 0.79 of it at 2^-30
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        v = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25, -4: 0.1 - 0.2j, 6: 0.05j})
        params = (S_AXIS, 1.8 + 0.3j)
        table = rule(quad, z)
        got = [prinseries._orbit(v, p, [z], table.trig)[0] for p in params]
        n = table.offsets.size
        picks = {0, 1, 2, 3, n - 2, n - 1, *np.random.default_rng(quad).integers(0, n, 24).tolist()}
        for k in sorted(picks):
            for kappa, mu in BLOCKS:
                with mpmath.workdps(50):
                    node = exact_node(mpmath, kappa, mu, table.offsets[k])
                    refs, mag_w = node_orbit_oracle(mpmath, v, params, z, node)
                bound = 8 * eps / min(1.0, mag_w)
                for vals, (want, scale) in zip(got, refs):
                    assert abs(vals[kappa, mu, k] - want) <= bound * scale

    @pytest.mark.parametrize("quad", [1024, 1001])
    def test_every_rule_node_reaches_the_components_once(self, quad, monkeypatch):
        # one rule per time, handed out by one ``_rules`` call per entry
        # call, and its nodes reach the components in one call
        rules, nodes, calls = [], Counter(), []
        rules_of, closed = prinseries._rules, prinseries._closed_components

        def counted_rules(quad_points, z):
            runs = rules_of(quad_points, z)
            calls.append(z.size)
            for table, run in runs:
                rules.extend((zk, 4 * table.offsets.size) for zk in z[run].tolist())
            return runs

        def counted_components(table, z):
            for zk in np.ravel(z).tolist():
                nodes[zk] += np.broadcast(*node_trig(table)).size
            return closed(table, z)

        prinseries._node_memo.clear()
        monkeypatch.setattr(prinseries, "_rules", counted_rules)
        monkeypatch.setattr(prinseries, "_closed_components", counted_components)
        extended_norm_sq(V_MIX, S_AXIS, 0.9, quad)
        extended_norm_sq(V_MIX, S_AXIS, 0.999, quad)
        real_time_norm_sq(V_MIX, S_OFF, 0.7, quad)
        boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, [0.0, 0.5, 0.99, 0.9995], quad)
        assert calls == [1, 1, 1, 4]
        assert [z for z, _ in rules] == [0.9j, 0.999j, 0.7, 0j, 0.5j, 0.99j, 0.9995j]
        assert nodes == dict(rules)
        # the derivative is the orbit of dpi(x) v at t itself, on t's rule
        rules.clear()
        nodes.clear()
        calls.clear()
        orbit_derivative_norm(V_MIX, S_AXIS, -0.999, quad)
        assert calls == [1] and len(rules) == 1 and rules[0][0] == -0.999j
        assert nodes == dict(rules)

    def test_real_time_exit_names_the_first_crossing_of_the_rule(self, monkeypatch):
        # at real time -tau a node crosses the growing floor only if its
        # A = cos^2 theta is below minor_floor_rel; at 1e-4 the six node
        # pairs nearest pi/2 do, the later the farther from pi/2: the
        # quadrature's exit is the earliest crossing over all of the rule's
        # nodes, the one domain_test finds at the node nearest pi/2
        raised = dataclasses.replace(config.TOLERANCES, minor_floor_rel=1e-4)
        monkeypatch.setattr(config, "TOLERANCES", raised)
        prinseries._node_memo.clear()
        z = complex(-4.0)
        table = rule(1024, z)
        assert np.count_nonzero(np.cos(table.theta[0, 0]) ** 2 < 1e-4) == 6
        oracle = outcome(closed_components, table, z)
        assert exited(oracle) and outcome(real_time_norm_sq, V_MIX, S_AXIS, -4.0, 1024) == oracle
        nearest = table.theta.flat[np.argmin(np.abs(table.theta - PI / 2))]
        assert oracle[1] == pytest.approx(bisect_domain_exit(nearest, z), rel=1e-9)
        assert_first_crossing(table, z, oracle[1])

    def test_long_real_segment_stays_inside(self):
        # no node of the rule has A below minor_floor_rel (min A = 2.9e-7),
        # so the pointwise floor is never met; the floor of the segment's
        # end, 4.40, exceeded |w| = 1 at tau = 0
        table = rule(256, complex(20.0))
        c = table.trig[2]
        assert ((1.0 - c) / 2.0).min() > 1e3 * config.TOLERANCES.minor_floor_rel
        assert math.isfinite(real_time_norm_sq(V_MIX, S_OFF, 20.0, 256))

    @pytest.mark.parametrize("quad", [1024, 1000])
    @pytest.mark.parametrize("gap", [6e-14, 1e-14])
    def test_deep_time_exit_reports_the_rule_crossing(self, gap, quad):
        # the corner's |w| crosses the floor near 1 - t = 9e-14, and the
        # innermost nodes, whose cos 2 theta = -+sin 2d is of the order of
        # the gap, cross it first: the quadrature reports the crossing its
        # rule's nodes report, which the march also detects, at a step on or
        # after it, and its message shows how far below 1 the crossing is
        t = 1.0 - gap
        table = rule(quad, 1j * t)
        with pytest.raises(DomainExitError) as exc:
            extended_norm_sq(V_MIX, S_AXIS, t, quad)
        got = exc.value
        full = outcome(closed_components, table, 1j * t)
        payload = (got.last_good_t, got.t_fail, got.minor_index, got.magnitude)
        assert exited(full) and payload == full
        assert_same_outcome(full, outcome(march_components, table, 1j * t))
        assert_first_crossing(table, 1j * t, full[1])
        assert full[1] < 1.0 and f"domain exit near t={full[1]!r}" in str(got)


class TestTable:
    """The rule depends on t only through its level count: one cached table
    per (quad_points, level count)."""

    def test_times_with_one_level_count_share_a_table(self):
        # 1 - t = 2^-12 .. 2^-14 all have six levels, 2^-11 has five; real
        # time, t = 0 and negative t take the tables of their level counts
        deep = [rule(1024, 1j * (1.0 - 2.0**-j)) for j in (12, 13, 14)]
        assert deep[0] is deep[1] is deep[2]
        assert rule(1024, 1j * (1.0 - 2.0**-11)) is not deep[0]
        assert rule(1024, -1j * (1.0 - 2.0**-13)) is deep[0]
        assert rule(1024, 0j) is rule(1024, complex(1.1))
        assert rule(np.int64(1024), 0.5j) is rule(1024, 0.5j)
        assert rule(1000, 0.5j) is not rule(1024, 0.5j)

    def test_table_arrays_are_read_only(self):
        table = rule(1024, 0.9j)
        for name, array in vars(table).items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        assert table.offsets[0] > 0.0

    @pytest.mark.parametrize("quad, levels", [(1024, 6), (512, 3), (8193, 21), (64, 1)])
    def test_cold_build_equals_the_cached_table(self, quad, levels):
        cached = prinseries._table(quad, levels)
        cold = prinseries._table.__wrapped__(quad, levels)
        assert cold is not cached
        for name, array in vars(cached).items():
            other = getattr(cold, name)
            assert other.shape == array.shape and other.tobytes() == array.tobytes(), name

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_level_edges_give_the_loops_level_count(self, sign):
        # at t = 1 - X1 GRADE_RATIO^k and its float neighbours, for every
        # edge k, the table is the one the loop of ``level_count`` picks
        quad, checked = 64, 0
        for edge in prinseries.LEVEL_EDGES:
            t0 = 1.0 - edge
            for t in (math.nextafter(t0, 0.0), t0, math.nextafter(t0, 2.0)):
                if t >= 1.0:
                    continue
                z = 1j * (sign * t)
                assert rule(quad, z) is prinseries._table(quad, level_count(z))
                checked += 1
        assert checked >= 60

    def test_level_count_is_at_most_21(self):
        # the largest float t below 1 has the gap 2^-53
        assert level_count(1j * (1.0 - 2.0**-53)) == 21
        assert rule(64, 1j * math.nextafter(1.0, 0.0)) is prinseries._table(64, 21)

    def test_pairing_does_not_depend_on_the_tables_built_before(self):
        w = smooth_test_vector()
        grid_a = [1.0 - 2.0**-j for j in range(2, 9)]
        grid_b = [0.3, *(1.0 - 2.0**-j for j in range(5, 15))]
        prinseries._table.cache_clear()
        alone = boundary_pairing(V_ASYM, w, S_AXIS, grid_b, 1024).values
        prinseries._table.cache_clear()
        boundary_pairing(V_ASYM, w, S_AXIS, grid_a, 1024)
        after = boundary_pairing(V_ASYM, w, S_AXIS, grid_b, 1024).values
        assert after == alone

    def test_criterion_11_grid_builds_four_tables(self):
        # j = 4 .. 14 at quad 1024 have three to six levels
        prinseries._table.cache_clear()
        grid = [1.0 - 2.0**-j for j in range(4, 15)]
        boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, grid, 1024)
        info = prinseries._table.cache_info()
        assert info.misses == info.currsize == 4
        assert sorted({level_count(1j * t) for t in grid}) == [3, 4, 5, 6]

    def test_import_builds_no_table(self):
        # tables are built by the first quadrature that needs them, not at import
        src = pathlib.Path(prinseries.__file__).resolve().parents[1]
        code = "import crownlab; print(crownlab.prinseries._table.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.strip() == "0", out.stderr


# A grid that crosses t = 0 and returns to tables it left, up to 1 - t = 2^-15
TIME_GRID = [-0.5, 0.0, 0.3, *(1.0 - 2.0**-j for j in range(2, 16))]


def alone(t):
    """A pairing grid ending at t whose other times take another table, so
    that t is the only time of its orbit pass: the m = 1 case."""
    before = -0.99 if level_count(1j * t) == 3 else -0.9
    return [before - 0.005, before, t]


def raised(call):
    """The exception a call raises, with its payload, or None."""
    try:
        call()
    except DomainExitError as exc:
        return ("exit", exc.last_good_t, exc.t_fail, exc.minor_index, exc.magnitude)
    except ValueError as exc:
        return ("value", str(exc))
    return None


class TestTimeGrid:
    """A call over a grid of times makes one orbit pass per run of times that
    share a table, and every time's row is the one of its own m = 1 pass."""

    @pytest.mark.parametrize("quad", [64, 1024, 8193])
    @pytest.mark.parametrize("norm", [extended_norm_sq, orbit_derivative_norm])
    def test_grid_norms_are_the_single_time_norms(self, norm, quad):
        got = norm(V_ASYM, S_AXIS, TIME_GRID, quad)
        want = [norm(V_ASYM, S_AXIS, t, quad) for t in TIME_GRID]
        assert isinstance(got, np.ndarray) and got.shape == (len(TIME_GRID),)
        assert all(type(value) is float for value in want)
        assert got.tolist() == want

    @pytest.mark.parametrize("quad", [64, 1024, 8193])
    def test_grid_pairings_are_the_single_time_pairings(self, quad):
        w = smooth_test_vector()
        got = boundary_pairing(V_ASYM, w, S_AXIS, TIME_GRID, quad).values
        want = [boundary_pairing(V_ASYM, w, S_AXIS, alone(t), quad).values[-1] for t in TIME_GRID]
        assert got == want

    def test_one_pass_per_run_of_a_table(self, monkeypatch):
        # j = 4 .. 14 at quad 1024 have three to six levels: four passes of
        # 2, 3, 3 and 3 times; a grid that returns to a table makes a new run
        passes, closed = [], prinseries._closed_components

        def counted(trig, z):
            passes.append(np.size(z))
            return closed(trig, z)

        monkeypatch.setattr(prinseries, "_closed_components", counted)
        grid = [1.0 - 2.0**-j for j in range(4, 15)]
        boundary_pairing(V_MIX, smooth_test_vector(), S_AXIS, grid, 1024)
        assert passes == [2, 3, 3, 3]
        passes.clear()
        extended_norm_sq(V_MIX, S_AXIS, [0.9, 0.95, 0.5, -0.95], 1024)
        assert passes == [2, 1, 1]
        passes.clear()
        orbit_derivative_norm(V_MIX, S_AXIS, [0.9, 0.95], 1024)
        assert passes == [2]

    def test_pairing_does_not_depend_on_the_other_times(self):
        w = smooth_test_vector()
        full = dict(zip(TIME_GRID, boundary_pairing(V_ASYM, w, S_AXIS, TIME_GRID, 1024).values))
        for part in (TIME_GRID[::2], TIME_GRID[1::3], TIME_GRID[-4:]):
            values = boundary_pairing(V_ASYM, w, S_AXIS, part, 1024).values
            assert values == [full[t] for t in part]

    def test_pairing_does_not_depend_on_the_test_vectors_paired_before(self):
        # the test vector's node values are memoised per (table, content):
        # a memo miss and a hit give the same bits, whatever was paired before
        w = smooth_test_vector()
        others = [ModeVector({4: 0.3 - 0.2j}), ModeVector({m: 0.5 * c for m, c in w.modes.items()})]
        prinseries._probe.cache_clear()
        miss = boundary_pairing(V_ASYM, w, S_AXIS, TIME_GRID, 1024).values
        for other in others:
            boundary_pairing(V_ASYM, other, S_AXIS, TIME_GRID, 1024)
        misses = prinseries._probe.cache_info().misses
        hit = boundary_pairing(V_ASYM, smooth_test_vector(), S_AXIS, TIME_GRID, 1024).values
        assert prinseries._probe.cache_info().misses == misses
        assert hit == miss

    def test_memoised_node_values_are_read_only(self):
        table = rule(1024, 0.9j)
        probe = prinseries._probe(table, tuple(smooth_test_vector().modes.items()))
        assert probe.shape == table.cos_phi.shape
        with pytest.raises(ValueError, match="read-only"):
            probe[...] = 0.0

    # the gaps 6e-14 and 1e-14 exit (test_deep_time_exit_reports_the_rule_crossing),
    # and -(1 - 6e-14) shares 1 - 6e-14's table without being next to it
    FAILING_GRIDS = {
        "later_exit": [0.5, 0.9, 1.0 - 6e-14, 1.0 - 1e-14],
        "exit_across_runs": [0.5, -(1.0 - 6e-14), 0.9, 1.0 - 6e-14],
        "later_boundary_time": [0.5, 0.9, 1.0],
        "later_nan": [0.5, 0.9, math.nan],
        "exit_then_boundary_time": [0.5, 1.0 - 6e-14, 1.0],
    }

    @pytest.mark.parametrize("grid", sorted(FAILING_GRIDS))
    @pytest.mark.parametrize("norm", [extended_norm_sq, orbit_derivative_norm])
    def test_grid_norm_raises_as_the_loop_over_times(self, norm, grid):
        # every time is checked before any node, so a time that cannot be
        # evaluated raises before an earlier time's exit
        ts = self.FAILING_GRIDS[grid]
        got = raised(lambda: norm(V_MIX, S_AXIS, ts, 1024))
        if grid == "exit_then_boundary_time":
            assert got == raised(lambda: norm(V_MIX, S_AXIS, 1.0, 1024))
            return
        assert got is not None and got == raised(lambda: [norm(V_MIX, S_AXIS, t, 1024) for t in ts])

    @pytest.mark.parametrize("grid", ["later_exit", "later_boundary_time", "later_nan"])
    def test_grid_pairing_raises_as_the_loop_over_times(self, grid):
        w, ts = smooth_test_vector(), self.FAILING_GRIDS[grid]
        got = raised(lambda: boundary_pairing(V_MIX, w, S_AXIS, ts, 1024))
        loop = raised(lambda: [boundary_pairing(V_MIX, w, S_AXIS, alone(t), 1024) for t in ts])
        assert got is not None and got == loop

    @pytest.mark.parametrize("t", [[[0.5, 0.6]], [], np.zeros((2, 2))])
    def test_rejects_a_grid_that_is_not_1d_or_is_empty(self, t):
        with pytest.raises(ValueError, match="1-D grid"):
            extended_norm_sq(V_MIX, S_AXIS, t, 256)


class TestExtendedNorm:
    def test_zero_time_is_mode_norm(self):
        # at t = 0 the orbit is the Fourier series itself, a trigonometric
        # polynomial that the rule integrates to roundoff
        for v in (V_MIX, V_ASYM, ModeVector({0: 0.3, 10: 0.2 - 0.1j, -14: 0.4j})):
            for quad in (64, 256, 1024):
                norm_sq = extended_norm_sq(v, S_AXIS, 0.0, quad)
                assert abs(norm_sq - v.norm_sq) <= 1e-15 * max(1.0, v.norm_sq)

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

    def test_action_rejects_a_complex_element(self):
        # det 1, and a float cast would drop 0.3j and give the identity's value
        with pytest.raises(SymmetryError, match="not real"):
            action_norm_sq(V_MIX, S_OFF, [np.array([[1.0, 0.3j], [0.0, 1.0]])], 256)


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


def count_evaluations(monkeypatch):
    """The number of times in each call that reaches ``_continued_endpoint``."""
    calls, continued = [], prinseries._continued_endpoint

    def counted(trig, z):
        calls.append(np.size(z))
        return continued(trig, z)

    monkeypatch.setattr(prinseries, "_continued_endpoint", counted)
    return calls


class TestNodeMemo:
    """H1 and q are kept per (table, the run's exact times) from a key's
    second request on: a hit gives the bits of a miss, and nothing but a
    table's successful data is kept."""

    @pytest.mark.parametrize("quad", [64, 1024, 8193])
    def test_a_hit_equals_a_miss(self, quad, monkeypatch):
        w = smooth_test_vector()
        calls = {
            "norm": lambda v, s: extended_norm_sq(v, s, TIME_GRID, quad).tolist(),
            "derivative": lambda v, s: orbit_derivative_norm(v, s, TIME_GRID, quad).tolist(),
            "pairing": lambda v, s: boundary_pairing(v, w, s, TIME_GRID, quad).values,
        }
        evaluations = count_evaluations(monkeypatch)
        for name, call in calls.items():
            prinseries._node_memo.clear()
            miss = call(V_ASYM, S_AXIS)
            call(V_MIX, S_OFF)
            evaluations.clear()
            call(ModeVector({-4: 0.3, 6: 0.1j}), unitary_params(-0.9))
            hit = call(V_ASYM, S_AXIS)
            assert evaluations == [], name
            assert hit == miss, name

    def test_a_grid_requested_once_keeps_only_its_key(self, monkeypatch):
        prinseries._node_memo.clear()
        evaluations = count_evaluations(monkeypatch)
        for _ in range(3):
            extended_norm_sq(V_MIX, S_AXIS, [0.9, 0.95], 1024)
        assert evaluations == [2, 2]
        prinseries._node_memo.clear()
        extended_norm_sq(V_MIX, S_AXIS, [0.9, 0.95], 1024)
        assert list(prinseries._node_memo.values()) == [()]

    def test_memoised_arrays_are_read_only(self):
        table = rule(1024, 0.9j)
        prinseries._node_memo.clear()
        for _ in range(3):
            for array in prinseries._closed_components(table, [0.9j, 0.95j]):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_an_exit_raises_the_same_payload_every_time(self):
        # 0.5 and 0.9 take a pass each before 1 - 6e-14 exits; the exit's
        # key is never kept
        ts = TestTimeGrid.FAILING_GRIDS["later_exit"]
        prinseries._node_memo.clear()
        first = raised(lambda: extended_norm_sq(V_MIX, S_AXIS, ts, 1024))
        assert first[0] == "exit"
        for _ in range(2):
            assert raised(lambda: extended_norm_sq(V_MIX, S_AXIS, ts, 1024)) == first
            assert len(prinseries._node_memo) == 2

    def test_the_bound_holds(self):
        prinseries._node_memo.clear()
        for _ in range(2):
            for k in range(prinseries.NODE_MEMO_SIZE + 5):
                extended_norm_sq(V_MIX, S_AXIS, 0.01 * k, 64)
                assert len(prinseries._node_memo) <= prinseries.NODE_MEMO_SIZE
        assert len(prinseries._node_memo) == prinseries.NODE_MEMO_SIZE

    def test_trig_given_as_arrays_is_never_stored(self):
        prinseries._node_memo.clear()
        for _ in range(2):
            closed_components([0.1, 0.3], 0.9j)
            sl2_iwasawa_closed(0.4, 0.9)
            trapezoid_norm_sq(V_MIX, S_AXIS, 0.9j, 256)
        assert prinseries._node_memo == {}

    @pytest.mark.parametrize("entry", sorted(QUADRATURE_ENTRY_POINTS))
    def test_a_float_count_is_rejected_after_a_warm_call(self, entry):
        # 1024.0 == 1024 and both hash alike, but the count is checked
        # before any table or memo lookup
        for _ in range(2):
            QUADRATURE_ENTRY_POINTS[entry](1024)
        with pytest.raises(ValueError, match="quad_points must be an integer"):
            QUADRATURE_ENTRY_POINTS[entry](1024.0)


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the graded rule holds about 1,500 nodes at 1 - t = 2^-14, where the
# trapezoid held 524,288: a j = 14 pairing peaks at 0.40 MB with the test
# vector evaluated on its tables, against about 9 MB for the trapezoid's
# in-place FFT route and 14.7 MB allowed to it
PEAK_BYTES = 1_000_000


@pytest.mark.parametrize("j", [12, 13, 14])
def test_pairing_peak_memory_stays_within_budget(j):
    # the rule tables are built before the traced call, as a suite or a run
    # of items has built them, and the test vector's node values inside it:
    # a first call in a fresh process also builds the tables, 1.19 MB
    grid = [0.5, 0.75, 1.0 - 2.0**-j]
    w = smooth_test_vector()
    for t in grid:
        rule(1024, 1j * t)
    prinseries._probe.cache_clear()
    prinseries._node_memo.clear()
    peak = traced_peak(lambda: boundary_pairing(V_MIX, w, S_AXIS, grid, 1024))
    assert peak <= PEAK_BYTES


@pytest.mark.parametrize("norm", [extended_norm_sq, orbit_derivative_norm])
def test_norm_peak_memory_stays_within_budget(norm):
    t = 1.0 - 2.0**-14
    prinseries._node_memo.clear()
    peak = traced_peak(lambda: norm(V_MIX, S_AXIS, t, 1024))
    assert peak <= PEAK_BYTES


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
    # |t| = 1 puts the corner angle's |w| at 0, where the orbit has no value
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


NON_FINITE_S_ENTRY_POINTS = {
    "extended_norm_sq": lambda s: extended_norm_sq(V_MIX, s, 0.5, 256),
    "real_time_norm_sq": lambda s: real_time_norm_sq(V_MIX, s, 0.5, 256),
    "growth_exponent": lambda s: growth_exponent(V_MIX, s, [0.5, 0.6, 0.7, 0.8], 256),
    "action_norm_sq": lambda s: action_norm_sq(V_MIX, s, [np.eye(2)], 256),
    "orbit_derivative_norm": lambda s: orbit_derivative_norm(V_MIX, s, 0.5, 256),
    "dpi_x": lambda s: prinseries.dpi_x(V_MIX, s),
    "boundary_pairing": lambda s: boundary_pairing(
        V_MIX, smooth_test_vector(), s, [0.5, 0.6, 0.7], 256
    ),
}


@pytest.mark.parametrize(
    "s", [complex(math.nan), complex(2.0, math.inf), math.nan, np.complex128(-math.inf + 0.4j)]
)
@pytest.mark.parametrize("entry", sorted(NON_FINITE_S_ENTRY_POINTS))
def test_non_finite_s_is_rejected(entry, s):
    # NaN passes into every node's value, and the norm or pairing read nan
    with pytest.raises(ValueError, match=re.escape(f"s must be finite, got {s!r}")):
        NON_FINITE_S_ENTRY_POINTS[entry](s)


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

    def test_non_finite_time_is_rejected_before_any_norm(self, monkeypatch):
        # NaN passes the order and range checks, which compare it false
        def no_norm(*args):
            raise AssertionError("norm computed for a grid with a non-finite t")

        monkeypatch.setattr(prinseries, "extended_norm_sq", no_norm)
        with pytest.raises(ValueError, match="t = nan"):
            growth_exponent(V_MIX, S_AXIS, [0.5, math.nan, 0.9, 0.95], 256)


class TestSphericalLogLaw:
    """At m = 0 the orbit norm grows like a logarithm, not a power:
    ||pi(exp(i t x)) e_0||^2 - (2 cosh(pi nu / 2) / pi) log(1 / cos(pi t / 2))
    has a finite limit as t -> 1, with s = 2 + i nu."""

    JS = [6, 8, 10, 12, 14, 16, 18, 20]

    def differences(self, nu):
        ts = np.array([1.0 - 2.0**-j for j in self.JS])
        norms = extended_norm_sq(ModeVector({0: 1.0}), unitary_params(nu), ts, 1024)
        return norms - 2.0 * math.cosh(PI * nu / 2.0) / PI * np.log(1.0 / np.cos(PI * ts / 2.0))

    def test_limit_at_nu_zero_is_two_over_pi_log_4(self):
        # measured off by 2.6e-6 at 1 - t = 2^-10, 1.4e-8 at 2^-14, 1.0e-9 at
        # 2^-16 and 1.8e-11 at 2^-20: about 0.39 (1 - t)^2 log(1 / (1 - t)),
        # until the t side's rounding eps / (1 - t) takes over
        eps = np.finfo(float).eps
        for j, diff in zip(self.JS, self.differences(0.0)):
            gap = 2.0**-j
            assert abs(diff - 2.0 / PI * math.log(4.0)) <= gap**2 * math.log(1.0 / gap) + eps / gap

    @pytest.mark.parametrize("nu, limit", [(0.4, 0.8386), (1.3, -0.0581)])
    def test_difference_is_cauchy_off_nu_zero(self, nu, limit):
        # each step of 2 in j shrinks the successive difference about 13-fold;
        # the values at 1 - t = 2^-20 read 0.83858537 and -0.05811675
        diffs = self.differences(nu)
        steps = np.abs(np.diff(diffs))
        assert np.all(steps[1:] <= steps[:-1] / 8.0) and steps[-1] < 1e-9
        assert abs(diffs[-1] - limit) < 5e-5


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
    # from -m/2; the other cases pair an orbit that is not.  With the
    # trapezoid's nodes formed from their offsets to the corners the worst
    # gap measured 6.4e-15 relative, at 1 - t = 2^-13 on criterion 11's grid;
    # at the rounded angles pi k / P it was 3.0e-11, at 2^-14
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
    def test_pairing_matches_the_trapezoid_oracle(self, w, v, quad, t_grid):
        rep = boundary_pairing(v, w, S_AXIS, t_grid, quad)
        for got, want in zip(rep.values, trapezoid_pairing(v, w, S_AXIS, t_grid, quad)):
            assert abs(got - want) <= 2e-14 * abs(want)

    def test_pairings_match_an_mpmath_value(self):
        # criterion 11's configuration at 1 - t = 2^-10 and 2^-14.  With u and
        # v formed from the offsets the errors measured 2.1e-15 and 4.9e-15;
        # forming them from cos theta and sin theta left 1.6e-13 and 1.4e-11
        mpmath = pytest.importorskip("mpmath")
        w = smooth_test_vector()
        for j, bound in ((10, 5e-14), (14, 5e-14)):
            t = 1.0 - 2.0**-j
            got = boundary_pairing(V_MIX, w, S_AXIS, [0.5, 0.75, t], 1024).values[-1]
            assert abs(got - mpmath_pairing(mpmath, V_MIX, w, S_AXIS, t)) <= bound

    @pytest.mark.parametrize(
        "which, message",
        [("v", "cannot pair the zero vector v"),
         ("w_smooth", "cannot pair against the zero test vector w_smooth")],
    )
    @pytest.mark.parametrize(
        "zero", [ModeVector({}), ModeVector({0: 0.0, 2: 0.0})], ids=["empty", "zeros"]
    )
    def test_zero_vector_is_rejected_before_any_rule(self, which, message, zero, monkeypatch):
        # an all-zero pairing sequence would read as Cauchy
        def no_work(*args):
            raise AssertionError("rule or orbit work for a zero vector")

        monkeypatch.setattr(prinseries, "_rules", no_work)
        monkeypatch.setattr(prinseries, "_closed_components", no_work)
        vectors = {"v": V_MIX, "w_smooth": smooth_test_vector(), which: zero}
        with pytest.raises(ValueError, match=message):
            boundary_pairing(vectors["v"], vectors["w_smooth"], S_AXIS, [0.5, 0.75, 0.9], 256)

    def test_rejects_fat_tail_test_vector(self):
        fat = ModeVector({m: 1.0 for m in range(-20, 21, 2)})
        with pytest.raises(ValueError, match="decay"):
            boundary_pairing(V_MIX, fat, S_AXIS, [0.5, 0.75, 0.9], 256)

    @pytest.mark.parametrize("x_scale, t_far, t_near", [(PI / 4, 1.99, 1.999), (XS, -0.99, -0.999)])
    def test_derivative_grows_toward_the_crown_boundary(self, x_scale, t_far, t_near):
        # toward |t| = 1 on either side of t = 0
        far = orbit_derivative_norm(V_MIX, S_AXIS, scaled(t_far, x_scale), 1024)
        near = orbit_derivative_norm(V_MIX, S_AXIS, scaled(t_near, x_scale), 1024)
        assert near > far

    def test_derivative_bump(self):
        ts = [1 - 2.0**-j for j in range(4, 12)]
        norms = [math.sqrt(extended_norm_sq(V_MIX, S_AXIS, t, 256)) for t in ts]
        dnorms = [orbit_derivative_norm(V_MIX, S_AXIS, t, 256) for t in ts]
        bump = fit_power_law(ts, dnorms).n_hat - fit_power_law(ts, norms).n_hat
        assert bump == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("s", [S_AXIS, S_OFF, 1.3 - 0.5j])
    @pytest.mark.parametrize("t", [0.3, -0.7, 0.99, 1.0 - 2.0**-8])
    def test_centred_difference_converges_like_h_squared(self, t, s):
        # the orbit of dpi(x) v is i d/dt of the orbit node by node, so a
        # centred difference on t's own rule tends to its norm like h^2: the
        # error falls 100-fold per 10-fold step (measured 100.01 to 100.03,
        # from 6.8e-5 to 2.2e-4 relative at h = 0.01 (1 - |t|))
        v = ModeVector({0: 1.0, 2: 0.6 + 0.3j, -2: 0.25, 4: 0.1j})
        table = rule(1024, 1j * t)
        want = orbit_derivative_norm(v, s, t, 1024)
        errors = []
        for scale in (1e-2, 1e-3):
            h = scale * (1.0 - abs(t))
            hi, lo = (prinseries._orbit(v, s, [1j * (t + sign * h)], table.trig)[0]
                      for sign in (1, -1))
            got = math.sqrt(float(np.sum(table.weights * np.abs((hi - lo) / (2.0 * h)) ** 2)))
            errors.append(abs(got - want) / want)
        assert 1e-5 < errors[0] < 1e-3
        assert 99.0 < errors[0] / errors[1] < 101.0

    def test_dpi_x_moves_each_mode_two_steps(self):
        got = prinseries.dpi_x(ModeVector({0: 1.0, 4: 2.0j}), 2.5)
        k = PI / 8
        assert got.modes == {-2: k * 1.5, 2: k * 1.5 + k * -2.5 * 2.0j, 6: k * 5.5 * 2.0j}


V_PM2 = ModeVector({2: 1.0 / math.sqrt(2), -2: 1.0 / math.sqrt(2)})
FIT_GRID = [1.0 - 2.0**-j for j in range(4, 13)]


class TestTrapezoidOracle:
    """The graded rule against the trapezoid on the acceptance criteria's grids."""

    def test_criterion_10_quantities(self, rng):
        # the fits' norms at quad 512, and the group law's real-time and
        # action norms at 8,192
        for v in (V_MIX, V_PM2):
            for t in FIT_GRID:
                want = trapezoid_norm_sq(v, S_AXIS, 1j * t, 512)
                assert abs(extended_norm_sq(v, S_AXIS, t, 512) - want) <= 1e-14 * want
        for tau in (1.1, 1.25, -0.7):
            want = trapezoid_norm_sq(V_MIX, S_OFF, complex(tau), 8192)
            assert abs(real_time_norm_sq(V_MIX, S_OFF, tau, 8192) - want) <= 1e-13 * want
        for _ in range(5):
            g1, g2 = random_sl(2, rng), random_sl(2, rng)
            for gs in ([g1, g2], [g1 @ g2]):
                want = trapezoid_action_norm_sq(V_MIX, S_OFF, gs, 8192)
                assert abs(action_norm_sq(V_MIX, S_OFF, gs, 8192) - want) <= 1e-12 * want

    def test_criterion_11_quantities(self):
        # the derivative bump's derivative norms at quad 512; its norms are
        # criterion 10's, and its pairings test_pairing_matches_the_trapezoid_oracle's
        for t in FIT_GRID:
            want = trapezoid_derivative_norm(V_MIX, S_AXIS, t, 512)
            assert abs(orbit_derivative_norm(V_MIX, S_AXIS, t, 512) - want) <= 5e-14 * want


# Items drawn as the benchmark's pairing workload draws them, at its largest
# j_max.  On 200 such items (seed 7) the worst ratio lay 0.0935 inside
# (0.4, 0.6), as did the trapezoid's.  The worst gap to the trapezoid's values
# over these 25 measured 1.8e-14 with its nodes formed from their offsets, and
# 7.1e-11 at its rounded angles
PAIRING_ITEMS = 25


@pytest.mark.parametrize("item", range(PAIRING_ITEMS))
def test_pairing_items_pass_the_workload_rule(item):
    rng = np.random.default_rng([4101, item])
    s = unitary_params(float(rng.uniform(-1.0, 1.0)))
    coeffs = rng.uniform(0.25, 1.0, 2) * np.exp(1j * rng.uniform(0.0, 2.0 * PI, 2))
    v = ModeVector({0: 1.0, 2: coeffs[0], -2: coeffs[1]})
    w = smooth_test_vector()
    t_grid = [1.0 - 2.0**-j for j in range(4, 15)]
    rep = boundary_pairing(v, w, s, t_grid, 1024)
    ratios = [b / a for a, b in zip(rep.diffs, rep.diffs[1:])]
    assert rep.decreasing and all(0.4 < r < 0.6 for r in ratios[2:])
    fit = growth_exponent(v, s, FIT_GRID, 512)
    assert math.isfinite(fit.n_hat) and fit.r_squared > 0.99
    for got, want in zip(rep.values, trapezoid_pairing(v, w, s, t_grid, 1024)):
        assert abs(got - want) <= 1e-13
