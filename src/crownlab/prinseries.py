"""SL(2,R) spherical principal-series bench.

The group element family is g(z) = exp(-z x) k_theta with x = diag(x1, -x1),
x1 = x_scale / 2, so z = i t sits on the crown path and real z on the real
flow.  The K_C, A_C, N_C data of g(z) is in closed form:

    a^2 + c^2 = cosh(2 z x1) - sinh(2 z x1) cos(2 theta)
    alpha1    = sqrt(a^2 + c^2)           (branch continued from +1 at z = 0)
    e^{i zeta} = (a + i c) / alpha1       (zeta continued from theta)
    nu        = (a b + c d) / (a^2 + c^2) = sin(2 theta) sinh(2 z x1) / (a^2+c^2)

On the crown path with t x_scale < pi/2 both continued branches are the
principal ones: along the segment Re(a^2 + c^2) = cos(2 tau t x1) > 0 and
Re((a + i c) e^{-i theta}) >= cos(tau t x1) - sin(tau t x1) > 0, so neither
quantity winds around 0 and one endpoint evaluation gives the data.  Real
z and longer segments continue the arguments by a march in tau, whose
every step evaluates the one endpoint formula, ``_endpoint``.

The orbit needs no argument of u at all.  Since zeta = -i (log u - H1) and
alpha1^2 = e^{2 H1} = w = a^2 + c^2 on every branch, e^{2 i zeta} = u^2 / w
exactly, whatever the continuation; for even m, e^{i m zeta} is the power
q^{m/2} of the branch-free point q = u^2 / w = (a + i c) / (a - i c).  So a
K-finite orbit value is e^{(shift - s) H1} sum_m c_m q^{m/2}, and only the
prefactor reads the continued argument of w.

The character on A is sigma(exp H) = e^{s H1} in the coordinate
H = diag(H1, -H1); the optional rho-shift multiplies the orbit integrand by
|alpha1|^2 (rho_a is 1 in the H1 coordinate).  With the shift the action is
an isometry at real group elements exactly on Re s = 2, without it on
Re s = 1 (derived from the quadrature identity
(1/pi) int dtheta / (A cos^2 + B sin^2) = 1 / sqrt(A B); the tests pin it).

K-finite vectors are finite Fourier series on K/M, theta in [0, pi) with
probability measure d theta / pi; M-invariance forces even modes.  Orbit
norms and boundary pairings are uniform trapezoid quadratures, spectrally
accurate for t < 1, with the point count grown like 1/(1 - t) to track the
shrinking analyticity strip of the integrand.  ``_quad_nodes`` builds every
node grid, and first rejects imaginary time on or past the crown boundary
|t| x_scale >= pi/2, where |w| reaches 0 at theta = pi/4.  On that grid the
pairing with a finite Fourier series is a sum of DFT bins of the orbit values.

Every such grid is symmetric under k -> P - k, that is theta -> pi - theta,
and for every z cos(pi - theta) = -cos theta and sin(pi - theta) = sin theta
give
    w(pi - theta) = w(theta),  u(pi - theta) = -v(theta),  v(pi - theta) = -u(theta),
so q(pi - theta) = 1 / q(theta).  H1 agrees at the two nodes on every route:
the principal route takes the angle of the same w, and the march continues
the same w(tau z) at every step.  So ``_grid_orbit`` evaluates the orbit on
k = 0 ... P // 2 only and gives node P - k the same prefactor times
sum_m c_m q^{-m/2}; ``_orbit_values`` stays the pointwise route on arbitrary
angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import DomainExitError
from .growth import BlowupFit, fit_power_law
from .numkernel import path_minor_floor

MIN_QUAD_POINTS = 64
QUAD_STRIP_FACTOR = 32.0
MAX_QUAD_POINTS = 4_000_000


@dataclass(frozen=True)
class SeriesParams:
    """Principal-series character data: sigma(exp H) = e^{s H1}, plus the
    rho-shift toggle.  The unitary axis is Re s = 2 with the shift and
    Re s = 1 without (documented above, not enforced)."""

    s: complex
    rho_shift: bool = True


def unitary_axis_re(rho_shift: bool) -> float:
    return 2.0 if rho_shift else 1.0


def unitary_params(im_s: float = 0.0, rho_shift: bool = True) -> SeriesParams:
    return SeriesParams(s=complex(unitary_axis_re(rho_shift), im_s), rho_shift=rho_shift)


class ModeVector:
    """K-finite function on K/M as finitely many even Fourier modes."""

    def __init__(self, modes: dict[int, complex]):
        clean = {}
        for m, c in modes.items():
            if m % 2 != 0:
                raise ValueError(f"mode {m} is odd; M-invariance forces even modes")
            if c != 0:
                clean[int(m)] = complex(c)
        self.modes = dict(sorted(clean.items()))

    @property
    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.modes.values()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ms = np.array(list(self.modes.keys()), dtype=float)
        cs = np.array(list(self.modes.values()), dtype=complex)
        return ms, cs

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        """Fourier sum sum_m c_m e^{i m angle} at the point q = e^{2 i angle}.

        Every mode is even, so e^{i m angle} = q^{m/2} exactly, on whatever
        branch the (real or complex) angle was continued: the sum is a Laurent
        polynomial in q, summed with running products of q and 1/q and no
        exp per mode.
        """
        q = np.asarray(q, dtype=complex)
        total = np.full(q.shape, self.modes.get(0, 0.0), dtype=complex)
        for sign in (1, -1):
            terms = sorted((sign * m // 2, c) for m, c in self.modes.items() if sign * m > 0)
            if not terms:
                continue
            step = q if sign > 0 else 1.0 / q
            power, k = step, 1
            for j, c in terms:
                while k < j:
                    power, k = power * step, k + 1
                total += c * power
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"ModeVector({self.modes})"


# The decay exponent of smooth_test_vector, which boundary_pairing also asks
# of its test vector, and the vector's largest |m|.
SMOOTH_DECAY = 8.0
SMOOTH_M_MAX = 40


def smooth_test_vector() -> ModeVector:
    """Desk-scale stand-in for a smooth vector: c_m = (1 + |m|)^(-SMOOTH_DECAY),
    truncated at |m| <= SMOOTH_M_MAX, even modes only."""
    ms = range(-SMOOTH_M_MAX, SMOOTH_M_MAX + 1, 2)
    return ModeVector({m: (1.0 + abs(m)) ** -SMOOTH_DECAY for m in ms})


@dataclass
class Sl2Components:
    """Closed-form SL(2) Iwasawa data: alpha1 = exp(H1), the complex kappa
    angle zeta, and the upper eta entry nu."""

    alpha1: complex
    zeta: complex
    nu: complex

    def kappa(self) -> np.ndarray:
        z = self.zeta
        return np.array([[np.cos(z), -np.sin(z)], [np.sin(z), np.cos(z)]], dtype=complex)

    def reconstruct(self) -> np.ndarray:
        a_mat = np.diag([self.alpha1, 1.0 / self.alpha1]).astype(complex)
        eta = np.array([[1.0, self.nu], [0.0, 1.0]], dtype=complex)
        return self.kappa() @ a_mat @ eta


def _march_steps(x_scale: float, z: complex) -> int:
    return max(16, int(math.ceil(abs(z) * x_scale / 0.15)) + 1)


def _march_arguments(
    x_scale: float, th: np.ndarray, z: complex, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Continued arguments of w = a^2 + c^2 and u = a + i c at the end of the
    segment to z, by nearest-argument steps in tau from 0 to 1, each step
    evaluating w and u by ``_endpoint``.

    Raises DomainExitError at the first step where min |w| <= floor.
    """
    taus = np.linspace(0.0, 1.0, _march_steps(x_scale, z))
    w_prev, u_prev, _, _ = _endpoint(x_scale, th, taus[0] * complex(z))
    arg_w = np.zeros_like(th)
    arg_u = th.copy()
    for j in range(1, taus.size):
        w_cur, u_cur, _, _ = _endpoint(x_scale, th, taus[j] * complex(z))
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


def _endpoint(x_scale: float, th: np.ndarray, z: complex):
    """w = a^2 + c^2, u = a + i c, v = a - i c (so w = u v) and sinh(2 z x1)
    at the end of the segment to z: the one formula for them, which the
    march evaluates at every step."""
    x1 = 0.5 * x_scale
    ep = np.exp(complex(z) * x1)
    em = 1.0 / ep
    cosh2, sinh2 = 0.5 * (ep * ep + em * em), 0.5 * (ep * ep - em * em)
    w = cosh2 - sinh2 * np.cos(2.0 * th)
    a, ic = em * np.cos(th), 1j * ep * np.sin(th)
    return w, a + ic, a - ic, sinh2


def _continued_endpoint(x_scale: float, th: np.ndarray, z: complex):
    """(H1, w, u, v, sinh2, marched) at z: ``_endpoint``'s data, H1 = log alpha1
    continued from 0 at z = 0, and the march's (arg w, arg u), or None where
    the principal arguments are the continued ones.

    That is a principal segment (z = i t, t x_scale < pi/2) whose endpoint |w|
    clears the floor: |w|^2 = 1 - sin^2(tau t x_scale) sin^2(2 theta) falls in
    tau, so the endpoint's floor test covers the segment.  Real z, longer
    segments and an endpoint below the floor take the march, which reports
    where the floor was crossed.
    """
    floor = path_minor_floor(z, 0.5 * x_scale)
    w, u, v, sinh2 = _endpoint(x_scale, th, z)
    mag_w = np.abs(w)
    if z.real == 0.0 and abs(z) * x_scale < 0.5 * math.pi and mag_w.min() > floor:
        marched, arg_w = None, np.angle(w)
    else:
        marched = _march_arguments(x_scale, th, z, floor)
        arg_w = marched[0]
    h1 = 0.5 * (np.log(mag_w) + 1j * arg_w)
    return h1, w, u, v, sinh2, marched


def _closed_components(x_scale: float, theta, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Branch-continued H1 and the point q = u^2 / w = u / v = e^{2 i zeta} over a theta grid.

    H1 takes the route of ``_continued_endpoint``.  q needs no argument at
    all: e^{i zeta} = u / alpha1 and alpha1^2 = w on every branch.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    h1, _, u, v, _, _ = _continued_endpoint(x_scale, th, z)
    return h1, u / v


def sl2_iwasawa_closed(x_scale: float, theta: float, t: float) -> Sl2Components:
    """Closed-form complexified Iwasawa data of exp(-i t x) k_theta.

    x = diag(x_scale/2, -x_scale/2), so rho(x) = x_scale; raises
    DomainExitError when a^2 + c^2 falls below the floor along the path.
    zeta = -i (log u - H1) continues the argument of u by the route H1
    takes: its principal value on a principal segment, else the same march.
    """
    if not 0.0 < x_scale <= 0.5 * math.pi:
        raise ValueError(f"x_scale must lie in (0, pi/2], got {x_scale}")
    th = np.array([float(theta)])
    h1, w, u, _, sinh2, marched = _continued_endpoint(x_scale, th, 1j * t)
    arg_u = marched[1] if marched else th + np.angle(u * (np.cos(th) - 1j * np.sin(th)))
    zeta = -1j * (np.log(np.abs(u)) + 1j * arg_u - h1)
    nu = np.sin(2.0 * th) * sinh2 / w
    return Sl2Components(alpha1=complex(np.exp(h1[0])), zeta=complex(zeta[0]), nu=complex(nu[0]))


def _strip_gap(t: float, x_scale: float) -> float:
    """1 - |t| x_scale / (pi/2), the relative distance of i t from the crown
    boundary, where |w| reaches 0 at theta = pi/4; ValueError if it is <= 0
    or t is not finite."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got t = {t!r}")
    gap = 1.0 - abs(t) * (x_scale / (0.5 * math.pi))
    if gap <= 0.0:
        raise ValueError(f"t = {t!r} is on or past the crown boundary |t| x_scale >= pi/2")
    return gap


def _quad_nodes(quad_points: int, z: complex, x_scale: float) -> np.ndarray:
    """The trapezoid nodes theta_k = pi k / P on K/M for an orbit at time z.

    Rejects fewer than MIN_QUAD_POINTS nodes, a non-finite z, and imaginary z
    on or past the crown boundary, before building any node.  For z = i t
    the strip half-width is of order the gap and the error decays like
    exp(-2 P delta), so P grows to QUAD_STRIP_FACTOR / gap (at most
    MAX_QUAD_POINTS).
    """
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(f"quad_points must be >= {MIN_QUAD_POINTS}, got {quad_points}")
    # 1j * nan has a NaN real part, so a NaN t would skip the strip test
    if not np.isfinite(z):
        raise ValueError(f"t must be finite, got time z = {z!r}")
    pts = quad_points
    if z.real == 0.0:
        grown = int(math.ceil(QUAD_STRIP_FACTOR / _strip_gap(z.imag, x_scale)))
        pts = min(MAX_QUAD_POINTS, max(quad_points, grown))
    return math.pi * np.arange(pts) / pts


def _orbit_values(
    v: ModeVector,
    p: SeriesParams,
    x_scale: float,
    z: complex,
    thetas: np.ndarray,
) -> np.ndarray:
    """(pi_sigma(exp(z x)) v)(k_theta) at each of the given angles, which may
    be arbitrary: the pointwise route, with no use of the grid's symmetry.

    The action evaluates the Iwasawa data of exp(-z x) k_theta (the family
    g(z) itself, since exp(z x)^{-1} = exp(-z x)); with the rho-shift the
    factor is e^{(1 - s) H1}, without it e^{-s H1}, and the modes are summed
    at q = e^{2 i zeta} (module docstring).
    """
    h1, q = _closed_components(x_scale, thetas, z)
    # the mode sum runs before the prefactor exists, so that the two and the
    # sum's work arrays are never all alive on the largest grids
    modes = v.evaluate(q)
    return _orbit_prefactor(p, h1) * modes


def _orbit_prefactor(p: SeriesParams, h1: np.ndarray) -> np.ndarray:
    """e^{(shift - s) H1}, with shift 1 under the rho-shift and 0 without."""
    shift = 1.0 if p.rho_shift else 0.0
    return np.exp((shift - p.s) * h1)


def _grid_orbit(
    v: ModeVector, p: SeriesParams, x_scale: float, z: complex, thetas: np.ndarray
) -> np.ndarray:
    """The orbit on a ``_quad_nodes`` grid theta_k = pi k / P (P even or odd),
    evaluated on k = 0 ... P // 2 and reflected onto the rest.

    Node P - k is pi - theta_k, where w is the same, u and v trade places
    with a sign, q becomes 1/q and H1 (continued along the same w) agrees
    (module docstring).  So its value is the same prefactor times
    sum_m c_m q^{-m/2}: the modes of v reflected, m -> -m, summed at q.
    """
    pts = thetas.size
    h1, q = _closed_components(x_scale, thetas[: pts // 2 + 1], z)
    half = h1.size
    # vals[half:] holds nodes P - k for k = (P - 1) // 2 down to 1
    mirror = slice((pts - 1) // 2, 0, -1)
    vals = np.empty(pts, dtype=complex)
    vals[:half] = v.evaluate(q)
    vals[half:] = ModeVector({-m: c for m, c in v.modes.items()}).evaluate(q[mirror])
    del q  # as in _orbit_values: q and the prefactor are never alive together
    pre = _orbit_prefactor(p, h1)
    vals[:half] *= pre
    vals[half:] *= pre[mirror]
    return vals


def _orbit_norm_sq(
    v: ModeVector, p: SeriesParams, x_scale: float, z: complex, quad_points: int
) -> float:
    """||pi_sigma(exp(z x)) v||^2 by trapezoid quadrature over K/M, for z = i t
    on the crown path or real z on the real flow."""
    thetas = _quad_nodes(quad_points, z, x_scale)
    vals = _grid_orbit(v, p, x_scale, z, thetas)
    return float(np.mean(np.abs(vals) ** 2))


def extended_norm_sq(
    v: ModeVector,
    p: SeriesParams,
    x_scale: float,
    t: float,
    quad_points: int,
) -> float:
    """||e^{i t dpi(x)} v||^2 by trapezoid quadrature over K/M.

    Integrand per the orbit formula: |e^{-s H1}|^2 |sum c_m e^{i m zeta}|^2,
    times |alpha1|^2 under the rho-shift, with H1 branch-continued along the
    path.  The mode sum is the Laurent polynomial sum c_m q^{m/2} at
    q = u^2 / w = e^{2 i zeta}, which is branch-free because every mode is
    even, so zeta's continuation never enters.
    """
    return _orbit_norm_sq(v, p, x_scale, 1j * float(t), quad_points)


def real_time_norm_sq(
    v: ModeVector,
    p: SeriesParams,
    x_scale: float,
    tau: float,
    quad_points: int,
) -> float:
    """||pi_sigma(exp(tau x)) v||^2 at real time, same code path as the
    holomorphic formula (oracle partner: action_norm_sq)."""
    return _orbit_norm_sq(v, p, x_scale, complex(tau), quad_points)


def _real_cocycle(g: np.ndarray, angles: np.ndarray, p: SeriesParams):
    """One application of the real-group action: factor and new angles.

    For each angle, the Iwasawa data of g^{-1} k_angle gives the multiplier
    e^{(shift - s) H1} and the moved point atan2(c, a).
    """
    a0, b0, c0, d0 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    # inverse of a det-1 matrix
    ia, ib, ic, id_ = d0, -b0, -c0, a0
    ca, sa = np.cos(angles), np.sin(angles)
    a = ia * ca + ib * sa
    c = ic * ca + id_ * sa
    r = a * a + c * c
    h1 = 0.5 * np.log(r)
    shift = 1.0 if p.rho_shift else 0.0
    factor = np.exp((shift - p.s) * h1)
    return factor, np.arctan2(c, a)


def action_norm_sq(
    v: ModeVector, p: SeriesParams, gs, quad_points: int
) -> float:
    """||pi_sigma(g_1) ... pi_sigma(g_r) v||^2 via iterated real cocycles.

    Independent second code path for real-time checks: uses only the real
    Iwasawa decomposition of 2x2 matrices, never the holomorphic formula.
    """
    # real group elements: no strip, the requested count
    thetas = _quad_nodes(quad_points, 0j, 0.0)
    total = np.ones_like(thetas, dtype=complex)
    angles = thetas.copy()
    for g in gs:
        gm = np.asarray(g, dtype=float)
        det = gm[0, 0] * gm[1, 1] - gm[0, 1] * gm[1, 0]
        if abs(det - 1.0) > config.TOLERANCES.determinant:
            raise ValueError(f"group element must have det 1, got {det!r}")
        factor, angles = _real_cocycle(gm, angles, p)
        total = total * factor
    vals = total * v.evaluate(np.exp(2j * angles))
    return float(np.mean(np.abs(vals) ** 2))


# The finite-difference step of orbit_derivative_norm, relative to the
# distance of t from the crown boundary.
FD_SCALE = 1e-2


def orbit_derivative_norm(
    v: ModeVector, p: SeriesParams, x_scale: float, t: float, quad_points: int
) -> float:
    """L2 norm of the centered finite-difference t-derivative of the orbit.

    The step is FD_SCALE times the distance (pi/2) / x_scale - |t| from the
    crown boundary, so both stencil points stay inside the domain of
    holomorphy on either side of t = 0; the node grid is the one for the
    stencil point nearer the boundary.
    """
    h = FD_SCALE * _strip_gap(t, x_scale) * (0.5 * math.pi / x_scale)
    thetas = _quad_nodes(quad_points, 1j * (abs(t) + h), x_scale)
    hi = _grid_orbit(v, p, x_scale, 1j * (t + h), thetas)
    lo = _grid_orbit(v, p, x_scale, 1j * (t - h), thetas)
    quot = (hi - lo) / (2.0 * h)
    return math.sqrt(float(np.mean(np.abs(quot) ** 2)))


def growth_exponent(
    v: ModeVector,
    p: SeriesParams,
    t_grid,
    quad_points: int,
    x_scale: float = 0.5 * math.pi,
) -> BlowupFit:
    """Fit of log ||e^{i t dpi(x)} v|| against -log(1 - t) over the grid."""
    ts = [float(t) for t in t_grid]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be nonempty and strictly increasing")
    if ts[0] < 0.5 or ts[-1] >= 1.0:
        raise ValueError("t_grid must lie in [0.5, 1)")
    if v.norm_sq == 0.0:
        raise ValueError("cannot fit the growth of the zero vector")
    norms = [math.sqrt(extended_norm_sq(v, p, x_scale, t, quad_points)) for t in ts]
    return fit_power_law(ts, norms)


# The largest final successive difference of a Cauchy pairing sequence.
FINAL_DIFF_TOL = 1e-6


@dataclass
class PairingReport:
    """Boundary pairings F(t_j) = <w, e^{i t dpi(x)} v> and their Cauchy data."""

    ts: list[float]
    values: list[complex]
    diffs: list[float] = field(default_factory=list)
    decreasing: bool = False
    final_diff: float = math.inf
    cauchy: bool = False


def boundary_pairing(
    v: ModeVector,
    w_smooth: ModeVector,
    p: SeriesParams,
    t_grid,
    quad_points: int,
    x_scale: float = 0.5 * math.pi,
) -> PairingReport:
    """Pairings of the continued orbit against a fixed smooth test vector.

    F(t) = (1/pi) int conj(w(theta)) (orbit_t)(theta) dtheta; the report
    carries successive differences |F(t_{j+1}) - F(t_j)| and the Cauchy
    verdict (differences decreasing, final one below FINAL_DIFF_TOL).
    Convergence requires the orbit's slow-growth order to stay below the
    test vector's smoothness margin: keep v low-mode.  Near the singular
    angles the squared orbit behaves like |w|^(axis - 1 - Re s - max|m|),
    with axis = ``unitary_axis_re(p.rho_shift)``; integrated across a width
    of order 1 - t, the orbit norm grows like (1-t)^(-N) with
    N = (max|m| + Re s - axis) / 2, which is max|m|/2 on the unitary axis.
    """
    ms, cs = w_smooth.arrays()
    if ms.size:
        mags = np.abs(cs)
        weighted = mags * (1.0 + np.abs(ms)) ** SMOOTH_DECAY
        head = float(np.max(weighted[np.abs(ms) <= 4])) if np.any(np.abs(ms) <= 4) else float(
            np.min(weighted)
        )
        if np.any(weighted > 10.0 * max(head, 1e-300)):
            raise ValueError(f"w_smooth must decay at least like |m|^-{SMOOTH_DECAY:g}")
    ts = [float(t) for t in t_grid]
    if len(ts) < 3 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing with >= 3 points")
    for t in ts:
        _strip_gap(t, x_scale)
    # e^{-i m theta_k} = e^{-2 pi i (m/2) k / P} on theta_k = pi k / P, so the
    # trapezoid sum of conj(w) * orbit is sum_m conj(c_m) fft(orbit)[m/2 mod P] / P,
    # aliasing included
    half_modes = ms.astype(np.int64) // 2
    values = []
    for t in ts:
        z = 1j * t
        thetas = _quad_nodes(quad_points, z, x_scale)
        spectrum = np.fft.fft(_grid_orbit(v, p, x_scale, z, thetas))
        values.append(complex(np.conj(cs) @ spectrum[half_modes % thetas.size]) / thetas.size)
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    decreasing = all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    final = diffs[-1]
    return PairingReport(
        ts=ts,
        values=values,
        diffs=diffs,
        decreasing=decreasing,
        final_diff=final,
        cauchy=decreasing and final < FINAL_DIFF_TOL,
    )
