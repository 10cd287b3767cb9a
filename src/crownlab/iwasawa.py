"""Real KAN decomposition of SL(n,R), the complexified-Iwasawa domain test,
and branch-tracked holomorphic continuation of (kappa, H, eta) along crown
paths t -> exp(-i t x) k.

The factorization convention is g = kappa * exp(H) * eta with kappa complex
orthogonal (kappa^T kappa = 1), exp(H) diagonal and eta unit
upper-triangular, obtained by applying the pivot-free symmetric LDL to
g^T g (bilinear transpose, never conjugate).  Branches are fixed by
continuity from the real group: H(0) = 0 on paths starting at k in SO(n),
and each leading minor's argument is continued by nearest-argument steps
guarded by a maximum jump per step.

The continuation evaluates the path on a uniform grid of INITIAL_STEPS
intervals as one batch and tests every interval at once for a domain exit,
an argument jump and a magnitude drop.  Most paths pass and use the grid as
it is; on the others a sequential pass bisects from the first flagged
interval on, with the same interval test.  Points, Gram matrices, minors
and outside flags are those of ``numkernel``, from one eigensystem of x
per path; the end point g(1) and the S(1) that the endpoint LDL factors
are the last of the grid's batch.  Every kappa, real or continued, is
``kappa_factor``.  Non-finite path times are rejected before any point is
built: a NaN point would read as a domain exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import BranchAmbiguityError, DomainExitError
from .liegroup import PElement
from .numkernel import (
    as_square,
    check_real,
    gram,
    gram_minors,
    group_exp_batch,
    hermitian_eigensystem,
    inv_unit_upper,
    leading_minors_batch,
    principal_minors,
    sym_ldl,
)

# Path continuation: the initial uniform grid, how often one interval may be
# bisected, and the largest argument step of a minor accepted per interval.
# MAX_ARG_JUMP must stay below pi/2: a jump of pi in a minor's argument is
# exactly the sign ambiguity of its square root, which the guard exists to
# exclude.  A domain exit needs no constant: each point's outside flag is
# that of ``numkernel.gram_minors``, the arithmetic of ``domain_test``.
INITIAL_STEPS = 32
MAX_REFINEMENT_DEPTH = 40
MAX_ARG_JUMP = float(np.pi / 4)
MAGNITUDE_DROP_GUARD = 10.0


@dataclass
class IwasawaFactors:
    """The triple (kappa, H, eta) with continuation metadata.

    kappa is in K_C (complex orthogonal), H in a_C as a coordinate vector
    (so alpha = exp(H) entrywise), eta unit upper-triangular.  ``t`` is the
    path parameter the factors were continued to, ``steps_used`` the number
    of path points evaluated, and ``min_minor_magnitude`` the smallest
    leading-minor magnitude seen along the way.
    """

    kappa: np.ndarray
    H: np.ndarray
    eta: np.ndarray
    t: float
    steps_used: int
    min_minor_magnitude: float

    @property
    def alpha(self) -> np.ndarray:
        return np.exp(self.H)

    def reconstruct(self) -> np.ndarray:
        return (self.kappa * self.alpha) @ self.eta


def decompose_real(g) -> IwasawaFactors:
    """KAN factors of a real g in SL(n,R): kappa orthogonal, H real, eta real.

    Always exists: g^T g is positive definite, so the pivot-free LDL cannot
    encounter a small minor for well-conditioned input.
    """
    G = as_square(g)
    check_real(G)
    G = G.real
    det = float(np.linalg.det(G))
    if abs(det - 1.0) > config.TOLERANCES.determinant:
        raise ValueError(f"input is not in SL(n,R): det={det!r}")
    unit, diag = sym_ldl(gram(G))
    d = diag.real
    H = (0.5 * np.log(d)).astype(complex)
    return IwasawaFactors(
        kappa=kappa_factor(G, unit, np.exp(H)),
        H=H,
        eta=unit,
        t=0.0,
        steps_used=0,
        min_minor_magnitude=float(np.abs(np.cumprod(d)).min()),
    )


def domain_test(g) -> tuple[bool, float]:
    """Whether g lies in K_C A_C N_C, plus the smallest minor magnitude.

    The domain is cut out by Delta_k(g^T g) != 0 for all k (bilinear
    transpose); numerically "!= 0" means above the floor of
    ``numkernel.minors_outside_floor``, fed by ``numkernel.gram_minors`` with
    m = 1, the arithmetic of ``growth.component_scales_batch``.
    """
    _, _, magnitudes, outside = gram_minors(as_square(g), principal_minors)
    return not outside.any(), float(magnitudes.min())


def _crown_path(x: PElement, k: np.ndarray, z: complex):
    """The path tau -> exp(-i tau z x) k as a function of taus (m,), giving the
    points (m, n, n) and ``gram_minors``' data of each: the Grams g^T g, their
    leading minors and magnitudes (m, n), and the outside flags (m, n)."""
    w, q = hermitian_eigensystem(x.matrix)

    def evaluate(taus: np.ndarray):
        g = group_exp_batch(w, q, -1j * z * taus) @ k
        return (g, *gram_minors(g, leading_minors_batch))

    return evaluate


def _interval_test(m0: np.ndarray, m1: np.ndarray, outside1: np.ndarray):
    """Per interval with end minors m0, m1 (..., n) and the right end's
    outside flags (..., n): a domain exit (the right end outside the
    domain), the argument jumps, a jump above MAX_ARG_JUMP, a magnitude drop
    of more than MAGNITUDE_DROP_GUARD times."""
    jumps = np.abs(np.angle(m1 / m0))
    dropped = (np.abs(m1) * MAGNITUDE_DROP_GUARD < np.abs(m0)).any(axis=-1)
    return outside1.any(axis=-1), jumps, (jumps > MAX_ARG_JUMP).any(axis=-1), dropped


def _check_k_matrix(k) -> np.ndarray:
    K = as_square(k)
    check_real(K)
    K = K.real
    gap = float(np.abs(K.T @ K - np.eye(K.shape[0])).max())
    if gap > config.TOLERANCES.orthogonality:
        raise ValueError(f"k is not orthogonal: ||k^T k - 1|| = {gap:.3e}")
    if np.linalg.det(K) < 0.0:
        raise ValueError("k must lie in SO(n) (det +1)")
    return K


def _continued_path(
    x: PElement, k: np.ndarray, z_target: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refined path 0 = tau_0 < ... < tau_m = 1 with minors at every point.

    Each interval [tau_i, tau_{i+1}] gets the three tests of
    ``_interval_test``: a right end outside the domain is a domain exit, an
    argument jump or a magnitude drop fails the guard.  One array pass tests
    every interval of the initial uniform grid at once; the grid is returned
    as it is when none is flagged.  Otherwise a left-to-right pass resumes
    at the first flagged interval (every interval before it passed): a guard
    failure is bisected in place, at most MAX_REFINEMENT_DEPTH times in a
    row, and only a persisting argument jump is fatal.  Returns the tau
    grid, the (m+1, n) minors, and the point and Gram at tau = 1.
    """
    path = _crown_path(x, k, z_target)
    grid = np.linspace(0.0, 1.0, INITIAL_STEPS + 1)
    points, grams, grid_minors, _, grid_outside = path(grid)

    # callers keep non-finite times out before any point is built
    exits, _, arg_bad, dropped = _interval_test(grid_minors[:-1], grid_minors[1:], grid_outside[1:])
    flagged = exits | arg_bad | dropped
    if not flagged.any():
        return grid, grid_minors, points[-1], grams[-1]
    taus, minors, outside = list(grid), list(grid_minors), list(grid_outside)

    speed = abs(z_target)  # path time t per unit tau

    # locate the first point outside the domain in (lo, hi], bisecting to
    # float resolution
    def exit_error(lo: float, hi: float, m_hi: np.ndarray) -> DomainExitError:
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            _, _, m_mid, _, out_mid = path(np.array([mid]))
            lo, hi, m_hi = (lo, mid, m_mid[0]) if out_mid.any() else (mid, hi, m_hi)
        idx = int(np.argmin(np.abs(m_hi)))
        return DomainExitError(
            last_good_t=speed * lo,
            t_fail=speed * hi,
            minor_index=idx + 1,
            magnitude=float(np.abs(m_hi)[idx]),
        )

    i, depth = int(np.argmax(flagged)), 0
    while i + 1 < len(taus):
        m1 = minors[i + 1]
        exit_, jumps, arg_bad, dropped = _interval_test(minors[i], m1, outside[i + 1])
        if exit_:
            raise exit_error(taus[i], taus[i + 1], m1)
        mid = 0.5 * (taus[i] + taus[i + 1])
        if (arg_bad or dropped) and depth < MAX_REFINEMENT_DEPTH and taus[i] < mid < taus[i + 1]:
            _, _, m_mid, _, out_mid = path(np.array([mid]))
            taus.insert(i + 1, mid)
            minors.insert(i + 1, m_mid[0])
            outside.insert(i + 1, out_mid[0])
            depth += 1
        elif arg_bad:
            idx = int(np.argmax(jumps))
            raise BranchAmbiguityError(
                t_lo=speed * taus[i],
                t_hi=speed * taus[i + 1],
                minor_index=idx + 1,
                arg_jump=float(jumps[idx]),
            )
        else:
            i, depth = i + 1, 0

    return np.asarray(taus), np.asarray(minors), points[-1], grams[-1]


def kappa_factor(g: np.ndarray, unit: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """kappa of g = kappa * diag(alpha) * unit, for one matrix or a stack.

    g and unit are (..., n, n), alpha is (..., n); this is the one complex
    kappa assembly, shared by path continuation and the component scales.
    """
    return (g @ inv_unit_upper(unit)) / alpha[..., np.newaxis, :]


def _factors_from_path(
    taus: np.ndarray, minors: np.ndarray, g_end: np.ndarray, s_end: np.ndarray, t_label: float
) -> IwasawaFactors:
    # continued logs of the minors: real part from the endpoint modulus,
    # argument accumulated by nearest-argument increments from Delta_k(0) = 1
    ratios = minors[1:] / minors[:-1]
    args = np.angle(ratios).sum(axis=0) + np.angle(minors[0])
    logs = np.log(np.abs(minors[-1])) + 1j * args
    prev = np.concatenate(([0.0 + 0.0j], logs[:-1]))
    H = 0.5 * (logs - prev)
    unit, _ = sym_ldl(s_end)
    return IwasawaFactors(
        kappa=kappa_factor(g_end, unit, np.exp(H)),
        H=H,
        eta=unit,
        t=t_label,
        steps_used=len(taus),
        min_minor_magnitude=float(np.abs(minors).min()),
    )


def continue_factors(x: PElement, k, z_target: complex) -> IwasawaFactors:
    """Branch-continued factors of exp(-i z x) k along the segment 0 -> z.

    General-z driver behind decompose_path; also used by the holomorphy
    probes, which perturb the path parameter off the real axis.  A
    non-finite z is rejected before any path point is built.
    """
    if not np.isfinite(z_target):
        raise ValueError(f"path time t must be finite, got z = {z_target}")
    K = _check_k_matrix(k)
    if z_target == 0:
        return IwasawaFactors(
            kappa=K.astype(complex),
            H=np.zeros(x.n, dtype=complex),
            eta=np.eye(x.n, dtype=complex),
            t=0.0,
            steps_used=1,
            min_minor_magnitude=1.0,
        )
    taus, minors, g_end, s_end = _continued_path(x, K, z_target)
    label = z_target.real if z_target.imag == 0.0 else abs(z_target)
    return _factors_from_path(taus, minors, g_end, s_end, label)


def decompose_path(x: PElement, k, t_target: float) -> IwasawaFactors:
    """Holomorphically continued Iwasawa factors of exp(-i t x) k.

    H(t) is the continuous branch with H(0) = 0 (the real Iwasawa value of
    k in K); raises DomainExitError when a leading minor falls below the
    floor before t_target, and BranchAmbiguityError if refinement cannot
    bring a minor's argument step below the jump guard.
    """
    if t_target < 0.0:
        raise ValueError(f"t_target must be >= 0, got {t_target}")
    return continue_factors(x, k, complex(t_target))


def check_H_range(factors: IwasawaFactors, x: PElement, t: float) -> float:
    """Test Im H against the convex hull of Weyl-permuted copies of t*diag(x).

    x must be a diagonal a-representative (conjugate into a first; left
    K-multiplication does not change H).  The boundary-value containment is
    stated for the N*A*K-order component map, which is minus the KAN-order H
    of the inverse path point; in this KAN convention the hull is therefore
    the one spanned by permutations of -t*diag(x) (for n = 2 the two hulls
    coincide).  Membership in the permutation hull is Rado's majorization
    criterion: equal totals plus dominated partial sums of the decreasingly
    sorted vectors.  Returns the violation: the largest partial-sum excess
    folded with the total-sum residual, <= 0 within rounding inside the
    hull and positive outside; callers compare it with their own bound.
    """
    off = x.matrix - np.diag(np.diagonal(x.matrix))
    scale = max(1.0, float(np.max(np.abs(x.matrix))))
    if float(np.max(np.abs(off))) > config.TOLERANCES.diagonality * scale:
        raise ValueError("x must be diagonal (conjugate into a first)")
    target = np.sort(-t * np.diagonal(x.matrix))[::-1]
    point = np.sort(np.imag(factors.H))[::-1]
    excess = np.cumsum(point)[:-1] - np.cumsum(target)[:-1]
    total = abs(float(np.sum(point) - np.sum(target)))
    return max(float(np.max(excess)) if excess.size else 0.0, total)
