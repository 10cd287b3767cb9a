"""SL(2,R) spherical principal-series bench.

The group element family is g(z) = exp(-z x) k_theta with x = diag(x1, -x1),
x1 = pi/4 (``X1``), the boundary direction: rho(x) = pi/2, so z = i t sits
on the crown path, which meets the crown boundary at |t| = 1, and real z on
the real flow.  The K_C, A_C, N_C data of g(z) is in closed form:

    a^2 + c^2 = cosh(2 z x1) - sinh(2 z x1) cos(2 theta)
    alpha1    = sqrt(a^2 + c^2)           (branch continued from +1 at z = 0)
    e^{i zeta} = (a + i c) / alpha1       (zeta continued from theta)
    nu        = (a b + c d) / (a^2 + c^2) = sin(2 theta) sinh(2 z x1) / (a^2+c^2)

The continued arguments have a closed form too.  On the crown path, with
alpha = t pi/2, c = cos(2 theta) and psi = tau alpha / 2,

    w = a^2 + c^2  = cos(tau alpha) - i c sin(tau alpha),
    u e^{-i theta} = cos psi - i e^{-2 i theta} sin psi          (u = a + i c).

w runs round an ellipse and meets each axis exactly when e^{-i sgn(c) tau
alpha} does, so it stays in that point's quadrant; u e^{-i theta} meets the
real axis exactly at psi in pi Z, so it stays in the half-plane of
e^{-i sgn(c) psi}.  So each continued argument is the branch of the
principal one nearest -sgn(c) alpha (for w) or -sgn(c) alpha / 2 (for
u e^{-i theta}), and no march in tau is needed; on a principal segment,
|t| < 1, that branch is the principal one.  On the real flow w > 0
and Re(u e^{-i theta}) > 0, so the principal values are the continued ones.
Complex z off both axes is rejected.  The floor test is closed-form as well
(``_first_crossing``), pointwise at the ``numkernel.minor_floor`` of
||g^T g||_F = sqrt(2 cosh(4 Re z x1)), sqrt 2 along the crown and growing
along a real segment: an exit names the exact first crossing.

The orbit needs no argument of u at all.  Since zeta = -i (log u - H1) and
alpha1^2 = e^{2 H1} = w = a^2 + c^2 on every branch, e^{2 i zeta} = u^2 / w
exactly, whatever the continuation; for even m, e^{i m zeta} is the power
q^{m/2} of the branch-free point q = u^2 / w = (a + i c) / (a - i c).  So a
K-finite orbit value is e^{(1 - s) H1} sum_m c_m q^{m/2}, and only the
prefactor reads the continued argument of w.

The character on A is sigma(exp H) = e^{s H1} in the coordinate
H = diag(H1, -H1), and the rho-shift multiplies the orbit integrand by
|alpha1|^2 (rho_a is 1 in the H1 coordinate).  The action is an isometry at
real group elements exactly on Re s = 2 (derived from the quadrature identity
(1/pi) int dtheta / (A cos^2 + B sin^2) = 1 / sqrt(A B); the tests pin it).
The unshifted convention (axis Re s = 1) at s - 1 is this one at s.

K-finite vectors are finite Fourier series on K/M, theta in [0, pi) with
probability measure d theta / pi; M-invariance forces even modes.  Orbit
norms, derivative norms and boundary pairings are sums over one graded
rule.  For z = i t the integrand is nearly singular at theta_0 = pi/4 and
3 pi/4, where |w| falls to the gap 1 - |t| over a width of the same order;
a uniform rule needs O(1 / (1 - |t|)) nodes there.  The rule breaks each
quarter of [0, pi], between theta_0 and a multiple of pi/2, at the level
edges ``LEVEL_EDGES`` from theta_0 down to the first one at most the gap,
splits every level into equal panels until there are at least the
requested number of nodes, and puts Gauss-Legendre of order PANEL_ORDER on
every panel: O(log 1 / (1 - |t|)) panels.

The rule reads t only through its level count, so it is one cached table
per (quad_points, level count), ``_table``, built on first use.  One
function, ``_rules``, decides which times a call accepts and which table
each gets: it checks the count once and every time once, finite, and
imaginary time inside the crown boundary |t| < 1, where |w| reaches 0 at
theta = pi/4, before any node is evaluated.  Every node is theta_0 +
sigma d for an offset d of the table and sigma = +-1, and the orbit is
evaluated from the offsets, never from the rounded angle: with
phi = theta - pi/4, cos 2 theta = -+ sin 2d and cos phi, sin phi are
+-cos d and +-sin d, so the innermost nodes stay apart where theta_0 +
sigma d would round onto theta_0.  ``_endpoint`` forms u and v from cos phi
and sin phi, which leaves no cancellation between node terms where u or v
falls to the gap at the corners.  w and H1 read cos 2 theta only, so the
continuation runs on its two halves +-sin 2d.  A pairing evaluates the
test vector from the offsets as well, memoised per (table, modes),
``_probe``.

The orbit is evaluated over an axis of times: from ``_endpoint`` to
``_orbit`` every node array has a leading time axis, and a single time is
the m = 1 case.  ``_rules`` hands out each run of consecutive times that
share a table as one pass; every node operation is elementwise and each
row is summed on its own, so a row equals its m = 1 pass bit for bit.  The
first time of the grid that exits the domain raises, as a loop over the
times would.  H1 and q depend on the crown geometry alone, not on s or v,
so ``_closed_components`` keeps a table's per (table, the run's times) once
that key comes again: a pass at known times forms only e^{(1 - s) H1} and
the mode sum.  A norm takes |e^{(1 - s) H1}|^2 = e^{2 Re((1 - s) H1)} on
H1's half of the nodes.  d/dt of the orbit of v is i times the orbit of
dpi(x) v (``dpi_x``), so a derivative norm is an orbit norm.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import DomainExitError
from .growth import BlowupFit, check_t_grid, fit_power_law
from .numkernel import check_finite, check_real, minor_floor

MIN_QUAD_POINTS = 64

# x = diag(X1, -X1), the boundary direction: rho(x) = 2 X1 = pi/2, and the
# phase of the time i t is t pi/2
X1 = 0.25 * math.pi
# pi/4 - X1, the rounding of X1: sin(fl(pi)) is pi - fl(pi) to within its own rounding
X1_LO = 0.25 * math.sin(math.pi)

# The graded rule's panels: level edges at the offsets GRADE_RATIO^k X1 from
# the singular angles, Gauss-Legendre of order PANEL_ORDER on each
GRADE_RATIO = 0.15
PANEL_ORDER = 32

# The level edges, k = 0 .. 20.  A float t below 1 has the gap 1 - |t| >= 2^-53,
# which lies above the last edge, so a rule has at most 21 levels.
LEVEL_EDGES = tuple(X1 * GRADE_RATIO**k for k in range(21))


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order PANEL_ORDER on [0, 1].

    Formed on first use, not at import: numpy.polynomial and the eigenvalue
    solve behind it added about 1.8 MB to the peak RSS of runs that never
    integrate."""
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    return 0.5 * (1.0 + x), 0.5 * w


def unitary_params(im_s: float = 0.0) -> complex:
    """s = 2 + i im_s, on the unitary axis of the rho-shifted character
    sigma(exp H) = e^{s H1}; entry points take any finite complex s."""
    return complex(2.0, im_s)


class ModeVector:
    """K-finite function on K/M as finitely many even Fourier modes."""

    def __init__(self, modes: dict[int, complex]):
        clean = {}
        for m, c in modes.items():
            if not isinstance(m, (int, np.integer)):
                raise ValueError(f"mode {m!r} is not an integer")
            if m % 2 != 0:
                raise ValueError(f"mode {m} is odd; M-invariance forces even modes")
            c = complex(c)
            check_finite(c, "mode coefficients")
            if c != 0:
                clean[int(m)] = c
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


def _trig(theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos phi, sin phi, cos 2 theta) with phi = theta - pi/4: the node trig
    that ``_endpoint`` reads, formed from arbitrary angles.  A rule's nodes
    take their trig from its table.

    phi is reduced against the nearer corner, where u or v falls to the gap.
    theta - X1 is exact near pi/4, and X1_LO moves it from fl(pi/4) to pi/4.
    Near 3 pi/4, phi' = ((theta - 2 X1) - X1) - 3 X1_LO = theta - 3 pi/4 has
    both differences exact, and cos phi = -sin phi', sin phi = cos phi'.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = th - X1 - X1_LO
    phi3 = (th - 2.0 * X1) - X1 - 3.0 * X1_LO
    near3 = np.abs(phi3) < np.abs(phi)
    cos_phi = np.where(near3, -np.sin(phi3), np.cos(phi))
    sin_phi = np.where(near3, np.cos(phi3), np.sin(phi))
    return cos_phi, sin_phi, np.cos(2.0 * th)


def _endpoint(trig, z):
    """w = a^2 + c^2, u = a + i c, v = a - i c (so w = u v), sinh(2 z x1)
    and cos(2 theta) at the ends of the segments to the times z: the one
    formula for them.

    trig is (cos phi, sin phi, cos 2 theta) with phi = theta - pi/4, and z a
    1-D array of times; every result but cos 2 theta has a leading axis of
    one row per time, broadcast against the trig's shape.  With
    A, B = (e^{-z x1} +- i e^{z x1}) / sqrt 2,

        u = A cos phi - B sin phi,    v = B cos phi - A sin phi,

    so near the corners, where u (at pi/4) or v (at 3 pi/4) falls to the
    size of A, no two node terms cancel.  w has the shape of cos 2 theta and
    u, v the broadcast shape of all three, so a table's w is formed once per
    value of cos 2 theta."""
    cos_phi, sin_phi, cos2 = trig
    z = np.asarray(z, dtype=complex).reshape((-1,) + (1,) * np.ndim(cos2))
    ep = np.exp(z * X1)
    em = 1.0 / ep
    cosh2, sinh2 = 0.5 * (ep * ep + em * em), 0.5 * (ep * ep - em * em)
    w = cosh2 - sinh2 * cos2
    a, b = (em + 1j * ep) / math.sqrt(2.0), (em - 1j * ep) / math.sqrt(2.0)
    u, v = a * cos_phi, b * cos_phi
    u -= b * sin_phi
    v -= a * sin_phi
    return w, u, v, sinh2, cos2


def _nearest_branch(principal: np.ndarray, target) -> np.ndarray:
    """The branch of each principal argument nearest its target: the continued
    argument wherever that stays within pi of the target (module docstring)."""
    return principal + 2.0 * math.pi * np.round((target - principal) / (2.0 * math.pi))


def _first_crossing(c: np.ndarray, z: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """For each time of z, the least phase y = tau |z| pi/2 at which some
    node's |w| reaches its pointwise floor along tau z, tau >= 0, with
    c = cos(2 theta); inf if none.

    For z = i t, with the constant floor ``floors``,
    |w|^2 = cos^2 y + c^2 sin^2 y >= c^2 first reaches floor^2 at
    tan y = sqrt((1 - floor^2) / (floor^2 - c^2)) if |c| <= floor, so the
    smallest |c| of the nodes, read once, clears every imaginary time whose
    floor is below it.  For real z, w = A e^y + B e^{-y} with
    A, B = (1 -+ c) / 2 (swapped for z < 0) and the floor is r ||g^T g||_F,
    r = minor_floor_rel (the norm is >= sqrt 2).  With v = e^{2y} >= 1,
    |w|^2 - floor^2 = f(v) / v, f(v) = (A^2 - r^2) v^2 + 2 A B v + B^2 - r^2,
    and f(1) > 0, so a node crosses only if A < r, at the larger root
    v = (A B + r sqrt(A^2 + B^2 - r^2)) / (r^2 - A^2).
    """
    first = np.full(z.shape, math.inf)
    least = np.abs(c).min(initial=math.inf)
    r = config.TOLERANCES.minor_floor_rel
    for k in np.nonzero((z.real != 0.0) | (floors >= least))[0]:
        zk, floor = z[k], floors[k]
        if zk.real == 0.0:
            hit = c[np.abs(c) <= floor]
            sin_part = math.sqrt(max(1.0 - floor * floor, 0.0))
            phases = np.arctan2(sin_part, np.sqrt(floor * floor - hit * hit))
        else:
            a, b = (1.0 - c) / 2.0, (1.0 + c) / 2.0
            if zk.real < 0.0:
                a, b = b, a
            a, b = a[a < r], b[a < r]
            phases = 0.5 * np.log((a * b + r * np.sqrt(a * a + b * b - r * r)) / (r * r - a * a))
        first[k] = np.min(phases, initial=math.inf)
    return first


def _gram_floor(re_z):
    """``minor_floor`` at the Gram norm of g(z) (module docstring)."""
    return minor_floor(np.sqrt(2.0 * np.cosh(4.0 * X1 * re_z)))


def _continued_endpoint(trig, z):
    """(H1, w, u, v, sinh2, c) at the 1-D array of times z: ``_endpoint``'s
    data and H1 = log alpha1 continued from 0 at z = 0, one row per time.

    The argument of w is the branch nearest -sgn(c) t pi/2 (0 on the real
    flow): w stays in the quadrant of e^{-i sgn(c) tau t pi/2}, so that
    branch is the continued one (module docstring); on a principal segment
    (z = i t, |t| < 1) it is the principal branch.  ``_first_crossing`` at
    the pointwise floor decides every exit, and the first time of z that
    exits raises a DomainExitError, which reports its first crossing as
    both last_good_t and t_fail, with |w| = floor there.  The times are
    checked where they enter, by ``_rules`` or ``sl2_iwasawa_closed``.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    w, u, v, sinh2, c = _endpoint(trig, z)
    first = _first_crossing(c, z, _gram_floor(z.real))
    exits = np.nonzero(first <= np.abs(z) * (2.0 * X1))[0]
    if exits.size:
        t_fail = float(first[exits[0]]) / (2.0 * X1)
        floor = _gram_floor(np.sign(z[exits[0]].real) * t_fail)
        raise DomainExitError(
            last_good_t=t_fail, t_fail=t_fail, minor_index=1, magnitude=float(floor)
        )
    rows = z.imag.reshape((-1,) + (1,) * np.ndim(c))
    arg_w = _nearest_branch(np.angle(w), -np.sign(c) * rows * (2.0 * X1))
    h1 = 0.5 * (np.log(np.abs(w)) + 1j * arg_w)
    return h1, w, u, v, sinh2, c


# The most (table, times) keys ``_closed_components`` remembers, by last request.
NODE_MEMO_SIZE = 16
_node_memo: dict = {}


def _closed_components(nodes, z) -> tuple[np.ndarray, np.ndarray]:
    """Branch-continued H1 and the point q = u^2 / w = u / v = e^{2 i zeta}
    at the nodes of a rule's table or of the given trig, for each time of
    the 1-D array z (``_endpoint``'s shapes: H1 per value of cos 2 theta, q
    per node, after the leading time axis).

    H1 takes the route of ``_continued_endpoint``.  q needs no argument at
    all: e^{i zeta} = u / alpha1 and alpha1^2 = w on every branch.  A
    table's data is read-only, and kept from a key's second request on.
    """
    if not isinstance(nodes, _Table):
        h1, _, u, v, _, _ = _continued_endpoint(nodes, z)
        return h1, np.divide(u, v, out=u)
    key = (nodes, np.asarray(z, dtype=complex).reshape(-1).tobytes())
    # absent: never requested; (): requested once; else the kept data
    entry = data = _node_memo.pop(key, None)
    if not entry:
        h1, _, u, v, _, _ = _continued_endpoint(nodes.trig, z)
        data = h1, np.divide(u, v, out=u)
        h1.flags.writeable = u.flags.writeable = False  # u holds q
    _node_memo[key] = () if entry is None else data
    if len(_node_memo) > NODE_MEMO_SIZE:
        del _node_memo[next(iter(_node_memo))]  # the least recently requested
    return data


def sl2_iwasawa_closed(theta: float, t: float) -> Sl2Components:
    """Closed-form complexified Iwasawa data of exp(-i t x) k_theta.

    Raises DomainExitError when a^2 + c^2 falls to the floor along the
    path.  zeta = -i (log u - H1) takes the argument of u e^{-i theta} on
    the branch nearest -sgn(c) t pi/4, the continued one (module docstring).
    """
    z = complex(1j * t)
    if not (np.isfinite(z) and (z.real == 0.0 or z.imag == 0.0)):
        raise ValueError(f"time z must be finite and real or imaginary, got z = {z!r}")
    th = np.array([float(theta)])
    h1, w, u, _, sinh2, c = _continued_endpoint(_trig(th), [z])
    h1, w, u, sinh2 = h1[0], w[0], u[0], sinh2[0]  # the one time's row
    target = -np.sign(c) * t * X1
    arg_u = th + _nearest_branch(np.angle(u * np.exp(-1j * th)), target)
    zeta = -1j * (np.log(np.abs(u)) + 1j * arg_u - h1)
    nu = np.sin(2.0 * th) * sinh2 / w
    return Sl2Components(alpha1=complex(np.exp(h1[0])), zeta=complex(zeta[0]), nu=complex(nu[0]))


@dataclass(frozen=True, eq=False)
class _Table:
    """One graded rule, built from its offsets d from the singular angles.

    The 4 n nodes are theta_0 + sigma d over the n offsets, laid out as
    (2, 2, n): the first axis is the sign of cos 2 theta = -+ sin 2d
    (theta = pi/4 + d and 3 pi/4 - d, then pi/4 - d and 3 pi/4 + d), the
    second theta_0 = pi/4, 3 pi/4.  ``cos_phi``, ``sin_phi`` and ``cos2``
    are the node trig that ``_endpoint`` reads, cos phi, sin phi
    (phi = theta - pi/4) and cos 2 theta, each equal to +-cos d, +-sin d or
    +-sin 2d; ``cos2`` is broadcast along the second axis.  ``weights`` is
    the weight of each of an offset's four nodes.  Every array is read-only.
    ``theta``, the rounded angles, is formed on demand.
    """

    offsets: np.ndarray
    weights: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    cos2: np.ndarray

    @property
    def trig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.cos_phi, self.sin_phi, self.cos2

    @property
    def theta(self) -> np.ndarray:
        d = self.offsets
        return np.array([[X1 + d, 3.0 * X1 - d], [X1 - d, 3.0 * X1 + d]])


@functools.cache
def _table(quad_points: int, levels: int) -> _Table:
    """The graded rule of ``levels`` levels per quarter and at least quad_points nodes.

    Each quarter of [0, pi] runs from a singular angle theta_0 in
    {pi/4, 3 pi/4} to a multiple of pi/2, with level edges at the offsets
    LEVEL_EDGES[:levels] and 0.  Every level is split into the same
    number of equal panels, the fewest that give the rule at least
    quad_points nodes, and each panel carries PANEL_ORDER Gauss-Legendre
    nodes.  The offsets come in increasing order.
    """
    # level edges 0 < LEVEL_EDGES[levels - 1] < ... < LEVEL_EDGES[0] = X1
    bounds = np.array([0.0, *LEVEL_EDGES[levels - 1::-1]])
    per_level = -(-quad_points // (4 * PANEL_ORDER * levels))
    edges = np.linspace(bounds[:-1], bounds[1:], per_level, endpoint=False).T.ravel()
    width = np.diff(edges, append=X1)
    nodes, node_weights = _panel_rule()
    d = (edges[:, None] + width[:, None] * nodes).ravel()
    weights = (width[:, None] * (node_weights / math.pi)).ravel()
    cos_d, sin_d, sin_2d = np.cos(d), np.sin(d), np.sin(2.0 * d)
    cos_phi = np.array([[cos_d, sin_d], [cos_d, -sin_d]])
    table = _Table(
        offsets=d,
        weights=weights,
        cos_phi=cos_phi,
        # [[sin d, cos d], [-sin d, cos d]]: cos phi with its two columns swapped
        sin_phi=cos_phi[:, ::-1],
        cos2=np.stack([-sin_2d, sin_2d])[:, None, :],
    )
    for array in vars(table).values():
        array.flags.writeable = False
    return table


def _rules(quad_points: int, z: np.ndarray) -> list[tuple[_Table, slice]]:
    """(table, times) for each run of consecutive times of the 1-D array z
    that share a graded rule of (1/pi) int_0^pi dtheta: one orbit pass
    each, in grid order, which keeps the exit that a loop over the times
    would raise first.

    Before any table is looked up, rejects the first time of z that is not
    finite, not real or imaginary, or imaginary on or past the crown
    boundary, and then a count that is not an integer or is below
    MIN_QUAD_POINTS.  For z = i t the levels reach down to the first of the
    LEVEL_EDGES at most the gap 1 - |t|, and then to theta_0 itself; for
    real z, and for t = 0, a quarter is one level.
    """
    levels = []
    for zk in z.tolist():
        if zk.real != 0.0 and zk.imag != 0.0:
            raise ValueError(f"time z must be finite and real or imaginary, got z = {zk!r}")
        # i t lies the gap 1 - |t| inside the crown boundary; real time has no gap
        t, gap = (zk.imag, 1.0 - abs(zk.imag)) if zk.real == 0.0 else (zk.real, 1.0)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got t = {t!r}")
        if gap <= 0.0:
            raise ValueError(f"t = {t!r} is on or past the crown boundary |t| >= 1")
        level = 1
        while LEVEL_EDGES[level - 1] > gap:
            level += 1
        levels.append(level)
    if not isinstance(quad_points, (int, np.integer)):
        raise ValueError(f"quad_points must be an integer, got {quad_points!r}")
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(f"quad_points must be >= {MIN_QUAD_POINTS}, got {quad_points}")
    cuts = [0, *(k for k in range(1, len(levels)) if levels[k] != levels[k - 1]), len(levels)]
    runs = itertools.pairwise(cuts)
    return [(_table(int(quad_points), levels[a]), slice(a, b)) for a, b in runs]


def _series_at_nodes(vec: ModeVector, table: _Table) -> np.ndarray:
    """vec's Fourier sum at the table's nodes, from the offsets.

    At theta = theta_0 + sigma d the mode m = 2 j is e^{2 i j theta_0}
    e^{2 i sigma j d}, where e^{2 i j theta_0} = (+-i)^j exactly: one matrix
    product of the powers e^{2 i k d}, |k| <= max |j|, with the coefficients
    rotated and reflected for each of the four quarters.
    """
    ms, cs = vec.arrays()
    js = ms.astype(np.int64) // 2
    top = int(np.max(np.abs(js)))
    n = table.offsets.size
    # rows k = -top .. top: running products of e^{2 i d}, then their conjugates
    basis = np.empty((2 * top + 1, n), dtype=complex)
    basis[top] = 1.0
    np.cumprod(np.broadcast_to(np.exp(2j * table.offsets), (top, n)), axis=0, out=basis[top + 1:])
    np.conj(basis[:top:-1], out=basis[:top])
    # e^{2 i j theta_0} by j mod 4, for theta_0 = pi/4 and 3 pi/4
    rotated = cs * np.array([[1.0, 1j, -1.0, -1j], [1.0, -1j, -1.0, 1j]])[:, js % 4]
    # blocks (0, 0) and (1, 1) are theta_0 + d, (1, 0) and (0, 1) theta_0 - d
    coeffs = np.zeros((2, 2, 2 * top + 1), dtype=complex)
    coeffs[0, 0, top + js] = coeffs[1, 0, top - js] = rotated[0]
    coeffs[1, 1, top + js] = coeffs[0, 1, top - js] = rotated[1]
    return (coeffs.reshape(4, -1) @ basis).reshape(table.cos_phi.shape)


def _orbit(v: ModeVector, s: complex, z, nodes) -> np.ndarray:
    """(pi_sigma(exp(z x)) v)(k_theta) at the nodes of a table or trig, one
    row per time of the 1-D array z: e^{(1 - s) H1}, the character e^{-s H1}
    times the rho-shift e^{H1}, times the mode sum at q = e^{2 i zeta}."""
    h1, q = _closed_components(nodes, z)
    values = v.evaluate(q)
    values *= np.exp((1.0 - s) * h1)
    return values


def _row_sums(values: np.ndarray) -> np.ndarray:
    """The sum over each time's row of nodes: one pairwise sum per row, the
    same whatever the number of rows."""
    return values.reshape(values.shape[0], -1).sum(axis=1)


def _times(t) -> np.ndarray:
    """A float t or a 1-D grid of times as the 1-D array of crown times i t,
    which ``_rules`` checks.  Each t is set as an imaginary part, not
    multiplied by i, so that an infinite t stays 0 + i t."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0:
        raise ValueError(f"t must be a float or a nonempty 1-D grid, got shape {ts.shape}")
    z = np.zeros(ts.size, dtype=complex)
    z.imag = ts.reshape(-1)
    return z


def _orbit_norms_sq(v: ModeVector, s: complex, z: np.ndarray, quad_points: int) -> np.ndarray:
    """||pi_sigma(exp(z x)) v||^2 over K/M on the rules of ``_rules`` for
    each time of the 1-D array z: i t on the crown path, or real on the real
    flow.  The caller checks s."""
    norms = np.empty(z.size)
    for table, run in _rules(quad_points, z):
        h1, q = _closed_components(table, z[run])
        values = v.evaluate(q)
        # |e^{(1 - s) H1}|^2 on H1's half of the nodes, times |values|^2
        scale = table.weights * np.exp(2.0 * ((1.0 - s) * h1).real)
        norms[run] = _row_sums(scale * (values.real**2 + values.imag**2))
    return norms


def extended_norm_sq(v: ModeVector, s: complex, t, quad_points: int) -> float | np.ndarray:
    """||e^{i t dpi(x)} v||^2, the quadrature over K/M of
    |e^{(1 - s) H1}|^2 |sum c_m q^{m/2}|^2 (module docstring): a float for a
    float t, and an array of one value per time for a 1-D grid, each equal
    bit for bit to the float of that t alone."""
    check_finite(s, "s")
    norms = _orbit_norms_sq(v, s, _times(t), quad_points)
    return float(norms[0]) if np.ndim(t) == 0 else norms


def real_time_norm_sq(v: ModeVector, s: complex, tau: float, quad_points: int) -> float:
    """||pi_sigma(exp(tau x)) v||^2 at real time, same code path as the
    holomorphic formula (oracle partner: action_norm_sq)."""
    check_finite(s, "s")
    return float(_orbit_norms_sq(v, s, np.array([complex(tau)]), quad_points)[0])


def _real_cocycle(g: np.ndarray, angles: np.ndarray, s: complex):
    """One application of the real-group action: factor and new angles.

    For each angle, the Iwasawa data of g^{-1} k_angle gives the multiplier
    e^{(1 - s) H1} and the moved point atan2(c, a).
    """
    a0, b0, c0, d0 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    # inverse of a det-1 matrix
    ia, ib, ic, id_ = d0, -b0, -c0, a0
    ca, sa = np.cos(angles), np.sin(angles)
    a = ia * ca + ib * sa
    c = ic * ca + id_ * sa
    r = a * a + c * c
    h1 = 0.5 * np.log(r)
    factor = np.exp((1.0 - s) * h1)
    return factor, np.arctan2(c, a)


def action_norm_sq(v: ModeVector, s: complex, gs, quad_points: int) -> float:
    """||pi_sigma(g_1) ... pi_sigma(g_r) v||^2 via iterated real cocycles.

    Independent second code path for real-time checks: uses only the real
    Iwasawa decomposition of 2x2 matrices, never the holomorphic formula.
    Each g must be a finite real 2x2 matrix of det 1 (realness by
    ``numkernel.check_real``).
    """
    check_finite(s, "s")
    # real group elements: the rule of real time
    [(table, _)] = _rules(quad_points, np.zeros(1, dtype=complex))
    angles = table.theta
    total = np.ones(angles.shape, dtype=complex)
    for g in gs:
        gm = np.asarray(g, dtype=complex)
        if gm.shape != (2, 2) or not np.all(np.isfinite(gm)):
            raise ValueError(f"group element must be a finite 2x2 matrix, got {g!r}")
        check_real(gm)
        gm = gm.real
        det = gm[0, 0] * gm[1, 1] - gm[0, 1] * gm[1, 0]
        if abs(det - 1.0) > config.TOLERANCES.determinant:
            raise ValueError(f"group element must have det 1, got {det!r}")
        factor, angles = _real_cocycle(gm, angles, s)
        total = total * factor
    vals = total * v.evaluate(np.exp(2j * angles))
    return float(np.sum(table.weights * np.abs(vals) ** 2))


def dpi_x(v: ModeVector, s: complex) -> ModeVector:
    """dpi_sigma(x) v: dpi(x) e_m = (pi/8) [(s - 1 + m) e_{m+2} + (s - 1 - m) e_{m-2}].

    Along z, du/dz = -x1 v and dv/dz = -x1 u, so dq/dz = x1 (q^2 - 1) and
    dH1/dz = -(x1/2) (q + 1/q): d/dt of the orbit of v at z = i t is, node
    by node, i times the orbit of dpi(x) v.
    """
    check_finite(s, "s")
    out: dict[int, complex] = {}
    for m, c in v.modes.items():
        for sign in (1, -1):
            coeff = (math.pi / 8.0) * (s - 1.0 + sign * m) * c
            out[m + 2 * sign] = out.get(m + 2 * sign, 0.0) + coeff
    return ModeVector(out)


def orbit_derivative_norm(v: ModeVector, s: complex, t, quad_points: int) -> float | np.ndarray:
    """L2 norm of the t-derivative of the orbit, the orbit norm of
    dpi(x) v (``dpi_x``): a float for a float t, and one value per time for
    a 1-D grid, as ``extended_norm_sq`` gives them."""
    norms = np.sqrt(_orbit_norms_sq(dpi_x(v, s), s, _times(t), quad_points))
    return float(norms[0]) if np.ndim(t) == 0 else norms


def growth_exponent(v: ModeVector, s: complex, t_grid, quad_points: int) -> BlowupFit:
    """Fit of log ||e^{i t dpi(x)} v|| against -log(1 - t) over the grid."""
    ts = check_t_grid(t_grid, 0.5)
    if v.norm_sq == 0.0:
        raise ValueError("cannot fit the growth of the zero vector")
    return fit_power_law(ts, np.sqrt(extended_norm_sq(v, s, ts, quad_points)))


# The most test vectors ``_probe`` keeps, one per (table, vector).
PROBE_MEMO_SIZE = 32


@functools.lru_cache(maxsize=PROBE_MEMO_SIZE)
def _probe(table: _Table, modes: tuple) -> np.ndarray:
    """weights * conj(w(theta)) at the table's nodes, read-only, for the test
    vector w whose (m, c_m) pairs are ``modes``."""
    probe = table.weights * np.conj(_series_at_nodes(ModeVector(dict(modes)), table))
    probe.flags.writeable = False
    return probe


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
    s: complex,
    t_grid,
    quad_points: int,
) -> PairingReport:
    """Pairings of the continued orbit against a fixed smooth test vector.

    F(t) = (1/pi) int conj(w(theta)) (orbit_t)(theta) dtheta; the report
    carries successive differences |F(t_{j+1}) - F(t_j)| and the Cauchy
    verdict (differences decreasing, final one below FINAL_DIFF_TOL).
    Convergence requires the orbit's slow-growth order to stay below the
    test vector's smoothness margin: keep v low-mode.  Near the singular
    angles the squared orbit behaves like |w|^(1 - Re s - max|m|);
    integrated across a width of order 1 - t, the orbit norm grows like
    (1-t)^(-N) with N = (max|m| + Re s - 2) / 2, which is max|m|/2 on the
    unitary axis Re s = 2.
    """
    check_finite(s, "s")
    if v.norm_sq == 0.0:
        raise ValueError("cannot pair the zero vector v")
    if w_smooth.norm_sq == 0.0:
        raise ValueError("cannot pair against the zero test vector w_smooth")
    ms, cs = w_smooth.arrays()
    weighted = np.abs(cs) * (1.0 + np.abs(ms)) ** SMOOTH_DECAY
    low = np.abs(ms) <= 4
    head = float(np.max(weighted[low])) if np.any(low) else float(np.min(weighted))
    if np.any(weighted > 10.0 * max(head, 1e-300)):
        raise ValueError(f"w_smooth must decay at least like |m|^-{SMOOTH_DECAY:g}")
    ts = [float(t) for t in t_grid]
    if len(ts) < 3 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing with >= 3 points")
    z = _times(ts)
    modes = tuple(w_smooth.modes.items())
    values = np.empty(z.size, dtype=complex)
    for table, run in _rules(quad_points, z):
        values[run] = _row_sums(_probe(table, modes) * _orbit(v, s, z[run], table))
    values = values.tolist()
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
