"""Sup-over-K sweeps of the component scales along boundary crown paths,
power-law blow-up fitting, and scale-relation certificates.

The sup over the compact group is estimated from below: Haar samples plus a
deterministic torus grid of Givens-angle rotations, refined by a
coordinate-wise pattern search (step halving to a floor, warm-started across
the t grid).  The torus grid (broadcast products of three rotation stacks
for n = 3) takes its rotations from ``liegroup.givens``, and so does each
search, once: one table for all its steps step0 / 2^h above the floor.
Estimates are one-sided (never above the true sup).  The grid
sup is monotone in n_haar: each t draws its Haar block from one stream,
whose first m rows do not depend on n_haar, so more samples only add rows.
The search refinement is not yet monotone: its starts (the best grid
sample, the previous t's winner) move with n_haar and most searches end on
their eval budget, not at a local maximum, so at n = 3 a refined sup can
drop when samples are added (39 of 648 comparisons on six seeded
directions, n_haar 32 to 256, the worst by 2.2%).

Component scales only need moduli, so the sweep uses a direct pivot-free
LDL of g^T g per sample with principal square roots; branch-coherent
continuation is not required here and lives in ``iwasawa.decompose_path``.
As kappa^T kappa = I, the singular values of kappa for n <= 3, and of
eta = [[1, nu], [0, 1]], are a pair sigma, 1/sigma (and 1 if n = 3): the
ratio sigma^2 solves sigma^2 + sigma^-2 = 2 + 2h, 2h = tr(M^H M) - n, which
is 2 ||Im kappa||_F^2 or |nu|^2.  Only g, eta for n >= 3 and kappa for
n >= 4 need the SVD.

Per t, the grid is one ``component_scales_batch`` call, and all pattern
searches of that t (each component from its best grid sample and from the
previous t's maximizer) run as one batched ascent, its state one array per
quantity with a row per search: each step evaluates the stacked probes of
all still-active searches at once and updates their rows by masks.  The
evaluation shares the Gram/minor/LDL stage with ``component_scales_batch``
and computes, per row, only the column its search climbs, so each search
returns bit for bit what it would return run alone on the full scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .iwasawa import kappa_factor
from .liegroup import (
    PElement, boundary_direction, givens, haar_so, random_p_element, random_sl, rho
)
from .numkernel import (
    as_square,
    frobenius_norm,
    group_exp,
    group_exp_batch,
    gram_minors,
    hermitian_eigensystem,
    leading_minors_batch,
    sym_ldl_batch,
)

# Torus grid points per angle, by n: criterion 08's grids and the CLI default.
TORUS_GRID = {2: 64, 3: 8}
PATTERN_STEP_FLOOR = 1e-9
PATTERN_MAX_EVALS = 600
COMPONENTS = ("kappa", "alpha", "eta")


@dataclass
class GrowthSample:
    """Sup statistics of the component scales over K at one path time t."""

    t: float
    sup_kappa: float
    sup_alpha: float
    sup_eta: float
    samples_used: int = 0
    exits: int = 0


@dataclass
class BlowupFit:
    """Least-squares fit of log sup against -log(1 - t)."""

    n_hat: float
    log_c_hat: float
    r_squared: float
    t_window: tuple[float, float]


@dataclass
class ComponentScales:
    """Scales of one domain element and its Iwasawa components."""

    s_g: float
    s_kappa: float
    s_alpha: float
    s_eta: float
    eta_norm: float
    g_norm: float
    log_minor_product: float
    min_minor: float
    ok: bool


def _sv_ratio(stack: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sv[:, 0] / sv[:, -1]


def _pair_ratio(h: np.ndarray) -> np.ndarray:
    """sigma^2, the root >= 1 of sigma^2 + sigma^-2 = 2 + 2h (module docstring)."""
    return 1.0 + h + np.sqrt(h * (h + 2.0))


def _kappa_ratio(kappa: np.ndarray) -> np.ndarray:
    im = kappa.imag.reshape(-1, kappa.shape[-1] ** 2)
    return _pair_ratio(np.vecdot(im, im))


def _eta_ratio(unit: np.ndarray) -> np.ndarray:
    nu = unit[:, 0, 1]
    return _pair_ratio(0.5 * (nu.real**2 + nu.imag**2))


def _ldl_stage(g_stack: np.ndarray):
    """Shared first stage of the component scales of a stack (m, n, n).

    Forms the Gram matrices g^T g, their leading minors and the floor test
    by ``numkernel.gram_minors`` (the arithmetic ``domain_test`` uses), then
    the pivot-free LDL.  Rows failing the floor (``ok`` false) are factored
    as the identity so that later stages stay finite; callers mask them.
    Returns (minors, min_minor, ok, unit, diag).
    """
    s, minors, magnitudes, outside = gram_minors(g_stack, leading_minors_batch)
    ok = ~outside.any(axis=1)
    if not ok.all():
        s = np.where(ok[:, None, None], s, np.eye(g_stack.shape[-1], dtype=complex))
    unit, diag = sym_ldl_batch(s)
    return minors, magnitudes.min(axis=1), ok, unit, diag


def _alpha_ratio(diag: np.ndarray) -> np.ndarray:
    abs_alpha = np.sqrt(np.abs(diag))
    return abs_alpha.max(axis=1) / abs_alpha.min(axis=1)


def component_scales_batch(g_stack: np.ndarray) -> dict[str, np.ndarray]:
    """Component scales for a stack of domain elements (m, n, n).

    Elements with a leading minor of g^T g at or below the floor are
    flagged not-ok; their component entries are +inf.  s_kappa for n <= 3
    and s_eta for n = 2 are closed forms (module docstring), and one SVD
    call serves the other ratios.
    """
    minors, min_minor, ok, unit, diag = _ldl_stage(g_stack)
    kappa = kappa_factor(g_stack, unit, np.sqrt(diag.astype(complex)))
    n = g_stack.shape[-1]
    stacks = [g_stack] + [kappa] * (n > 3) + [unit] * (n > 2)
    s_g, *svd_rest = _sv_ratio(np.concatenate(stacks)).reshape(len(stacks), -1)
    s_eta = svd_rest.pop() if n > 2 else _eta_ratio(unit)
    s_kappa = svd_rest.pop() if n > 3 else _kappa_ratio(kappa)
    out = {
        "s_g": s_g,
        "s_kappa": np.where(ok, s_kappa, np.inf),
        "s_alpha": np.where(ok, _alpha_ratio(diag), np.inf),
        "s_eta": np.where(ok, s_eta, np.inf),
        "eta_norm": np.where(ok, frobenius_norm(unit), np.inf),
        "g_norm": frobenius_norm(g_stack),
        "log_minor_product": np.log(
            np.abs(minors), out=np.full(minors.shape, -np.inf), where=ok[:, None]
        ).sum(axis=1),
        "min_minor": min_minor,
        "ok": ok,
    }
    return out


def _component_values(g_stack: np.ndarray, comp_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row r's scale of component COMPONENTS[comp_idx[r]], and the ok flags.

    Runs the shared LDL stage once, then each row computes only its own
    column: kappa rows the unit-upper inverse, and kappa and eta rows their
    ratio by the closed forms of ``component_scales_batch`` or one shared
    SVD call.  Not-ok rows read -inf.  Each value equals the matching
    ``component_scales_batch`` entry bit for bit.
    """
    _, _, ok, unit, diag = _ldl_stage(g_stack)
    kap, alp, eta = (comp_idx == c for c in range(len(COMPONENTS)))
    vals = np.empty(len(comp_idx))
    vals[alp] = _alpha_ratio(diag[alp])
    kappa = kappa_factor(g_stack[kap], unit[kap], np.sqrt(diag[kap].astype(complex)))
    n = g_stack.shape[-1]
    if n > 3:
        ratios = _sv_ratio(np.concatenate([kappa, unit[eta]]))
        vals[kap], vals[eta] = ratios[: len(kappa)], ratios[len(kappa) :]
    else:
        vals[kap] = _kappa_ratio(kappa)
        vals[eta] = _sv_ratio(unit[eta]) if n > 2 else _eta_ratio(unit[eta])
    return np.where(ok, vals, -np.inf), ok


def component_scales(g) -> ComponentScales:
    """Component scales of a single domain element."""
    b = component_scales_batch(as_square(g)[np.newaxis])
    return ComponentScales(
        s_g=float(b["s_g"][0]),
        s_kappa=float(b["s_kappa"][0]),
        s_alpha=float(b["s_alpha"][0]),
        s_eta=float(b["s_eta"][0]),
        eta_norm=float(b["eta_norm"][0]),
        g_norm=float(b["g_norm"][0]),
        log_minor_product=float(b["log_minor_product"][0]),
        min_minor=float(b["min_minor"][0]),
        ok=bool(b["ok"][0]),
    )


def torus_samples(n: int, torus_grid: int) -> np.ndarray:
    """Deterministic grid of Givens-angle rotations (n = 2 and 3 only).

    For n = 3 the element (a, b, c) is R01(a) R02(b) R12(c), with c running
    fastest; other n, or a grid of 0, give an empty stack (0, n, n).
    """
    if torus_grid <= 0 or n not in (2, 3):
        return np.empty((0, n, n))
    angles = 2.0 * math.pi * np.arange(torus_grid) / torus_grid
    if n == 2:
        return givens(2, 0, 1, angles)
    ga, gb, gc = (givens(3, i, j, angles) for i, j in ((0, 1), (0, 2), (1, 2)))
    gab = ga[:, np.newaxis] @ gb[np.newaxis]
    return (gab[:, :, np.newaxis] @ gc).reshape(-1, 3, 3)


def sweep_components(
    x: PElement, t_grid, n_haar: int, torus_grid: int, seed: int
) -> list[GrowthSample]:
    """Estimated sup over K of the three component scales along exp(-i t x) k.

    x must lie on the crown boundary (rho = pi/2); pass directions through
    ``boundary_direction`` first.  Each t draws its n_haar Haar samples as
    one block from the stream [seed, t index]; the first m rows of that
    block do not depend on n_haar, so enlarging n_haar only adds samples and
    the grid sup cannot drop.  The refined sups can, since the search starts
    move with n_haar (see the module docstring).
    """
    ts = check_t_grid(t_grid, 0.0)
    if abs(rho(x) - 0.5 * math.pi) > config.TOLERANCES.boundary_rho:
        raise ValueError(f"x must satisfy rho(x) = pi/2, got rho={rho(x)!r}")

    if n_haar < 0 or torus_grid < 0:
        raise ValueError(f"n_haar = {n_haar} and torus_grid = {torus_grid} must be nonnegative")
    n = x.n
    torus = torus_samples(n, torus_grid).astype(complex)
    if len(torus) + n_haar == 0:
        raise ValueError(
            f"n_haar = {n_haar} with no torus (torus_grid = {torus_grid}, n = {n}) "
            "leaves no samples"
        )
    w, q = hermitian_eigensystem(x.matrix)
    e_mats = group_exp_batch(w, q, -1j * np.asarray(ts))
    step0 = math.pi / max(8, torus_grid if len(torus) else 8)
    carry: dict[str, np.ndarray] = {}
    results = []
    for t_idx, (t, e_mat) in enumerate(zip(ts, e_mats)):
        k_stack = np.concatenate([torus, haar_so(n, [seed, t_idx], n_haar)], dtype=complex)
        batch = component_scales_batch(e_mat[np.newaxis] @ k_stack)
        used, exits = len(k_stack), int(np.sum(~batch["ok"]))

        # refine each component from its best grid sample and, when
        # available, from the previous t's maximizer: the maximizing k moves
        # continuously in t, so warm-starting keeps the estimator on one
        # ridge and the sup sequence smooth enough to fit
        sups, starts, comps = {}, [], []
        for comp in COMPONENTS:
            vals = batch[f"s_{comp}"]
            finite = np.where(np.isfinite(vals), vals, -np.inf)
            best = int(np.argmax(finite))
            sups[comp] = float(finite[best]) if np.isfinite(finite[best]) else np.inf
            if np.isfinite(sups[comp]):
                comp_starts = [k_stack[best].real] + ([carry[comp]] if comp in carry else [])
                starts += comp_starts
                comps += [comp] * len(comp_starts)

        if starts:
            val, k_fin, n_used, n_exit = _pattern_search(e_mat, starts, comps, step0)
            used += int(n_used.sum())
            exits += int(n_exit.sum())
            # per component the first best search wins; its final k is
            # carried to the next t even when it does not beat the grid
            for comp in dict.fromkeys(comps):
                rows = [r for r, c in enumerate(comps) if c == comp]
                win = rows[int(np.argmax(val[rows]))]
                sups[comp] = max(sups[comp], float(val[win]))
                carry[comp] = k_fin[win]

        results.append(GrowthSample(t, *(sups[c] for c in COMPONENTS), used, exits))
    return results


def _pattern_search(
    e_mat: np.ndarray, starts: list[np.ndarray], comps: list[str], step0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-wise ascents over SO(n), one per (start, component), run together.

    Each search probes every Givens plane at +-step around its current k,
    moves to the best probe while it strictly improves (the first maximum
    wins), halves its step otherwise, and stops at the step floor or its
    eval budget.  The sup basins sharpen like 1 - t, so the halving runs to
    convergence rather than a fixed round count; the estimate stays
    one-sided (never above the true sup).  The state is one array per
    quantity with a row per search: ``val`` (m,), ``k_best`` (m, n, n),
    ``level`` (the step is step0 / 2^level), ``used`` and ``exits``.  Each
    step takes the searches above the floor and under budget, evaluates all
    their probes at once (each row computes just its own component, see
    ``_component_values``) and updates their rows; no row reads another's,
    so each search returns exactly what it would alone.  Returns the arrays
    (val, k_best, used, exits).
    """
    n = e_mat.shape[0]
    plane_i, plane_j = (np.array(a)[:, np.newaxis] for a in np.triu_indices(n, 1))
    n_probe = 2 * len(plane_i)
    comp_idx = np.array([COMPONENTS.index(c) for c in comps])

    k_best = np.stack(starts)
    val, ok = _component_values(e_mat[np.newaxis] @ k_best.astype(complex), comp_idx)
    used = np.ones(len(k_best), dtype=int)
    exits = (~ok).astype(int)
    # (levels, planes, +-step, n, n)
    steps = [step0]
    while steps[-1] > PATTERN_STEP_FLOOR:
        steps.append(0.5 * steps[-1])
    table = givens(n, plane_i, plane_j, np.array(steps[:-1])[:, None, None] * [1.0, -1.0])
    level = np.zeros(len(k_best), dtype=int)
    while True:
        active = np.flatnonzero((level < len(table)) & (used < PATTERN_MAX_EVALS))
        if not active.size:
            break
        # probes run search by search, then plane by plane, then +step, -step
        probes = table[level[active]].reshape(-1, n, n) @ k_best[active].repeat(n_probe, axis=0)
        p_vals, p_ok = _component_values(
            e_mat[np.newaxis] @ probes.astype(complex), comp_idx[active].repeat(n_probe)
        )
        p_vals = np.where(np.isfinite(p_vals), p_vals, -math.inf).reshape(-1, n_probe)
        used[active] += n_probe
        exits[active] += np.sum(~p_ok.reshape(-1, n_probe), axis=1)
        p_best, p_max = np.argmax(p_vals, axis=1), np.max(p_vals, axis=1)
        up = p_max > val[active]
        val[active[up]] = p_max[up]
        k_best[active[up]] = probes.reshape(-1, n_probe, n, n)[up, p_best[up]]
        level[active[~up]] += 1
    return val, k_best, used, exits


def check_t_grid(t_grid, lo: float) -> list[float]:
    """t_grid as a list of floats: nonempty, finite, strictly increasing and
    in [lo, 1), or a ValueError that names the first rule it breaks."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must be nonempty")
    # NaN fails every comparison below, so it is rejected first
    bad = [t for t in ts if not math.isfinite(t)]
    if bad:
        raise ValueError(f"t_grid must be finite, got t = {bad[0]!r}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if ts[0] < lo or ts[-1] >= 1.0:
        raise ValueError(f"t_grid must lie in [{lo:g}, 1)")
    return ts


def fit_power_law(ts, values, t_window: tuple[float, float] | None = None) -> BlowupFit:
    """Least-squares slope of log(values) against -log(1 - t) on a window.

    Every t in the window must be finite and below 1; values that are not
    finite and positive are left out.
    """
    t_arr = np.asarray(list(ts), dtype=float)
    v_arr = np.asarray(list(values), dtype=float)
    if t_window is not None:
        mask = (t_arr >= t_window[0]) & (t_arr <= t_window[1])
    else:
        mask = np.ones(t_arr.shape, dtype=bool)
    # -log(1 - t) is finite only for finite t < 1
    bad = t_arr[mask & ~(np.isfinite(t_arr) & (t_arr < 1.0))]
    if bad.size:
        raise ValueError(f"t must be finite and below 1, got t = {float(bad[0])!r}")
    mask &= np.isfinite(v_arr) & (v_arr > 0.0)
    t_used, v_used = t_arr[mask], v_arr[mask]
    if t_used.size < 4:
        raise ValueError(f"need at least 4 usable points in the window, got {t_used.size}")
    xs = -np.log1p(-t_used)
    ys = np.log(v_used)
    xm, ym = xs.mean(), ys.mean()
    dx, dy = xs - xm, ys - ym
    sxx = float((dx * dx).sum())
    if sxx == 0.0:
        raise ValueError("degenerate window: all t coincide")
    slope = float((dx * dy).sum() / sxx)
    intercept = float(ym - slope * xm)
    res = ys - (slope * xs + intercept)
    ss_res = float((res * res).sum())
    ss_tot = float((dy * dy).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return BlowupFit(
        n_hat=slope,
        log_c_hat=intercept,
        r_squared=r2,
        t_window=(float(t_used.min()), float(t_used.max())),
    )


def fit_blowup(
    samples: list[GrowthSample], component: str, t_window: tuple[float, float] | None = None
) -> BlowupFit:
    """Power-law fit of one component's sup sequence."""
    if component not in ("kappa", "alpha", "eta"):
        raise ValueError(f"component must be kappa, alpha or eta, got {component!r}")
    ts = [s.t for s in samples]
    vals = [getattr(s, f"sup_{component}") for s in samples]
    return fit_power_law(ts, vals, t_window)


@dataclass
class ScaleCertificate:
    """A pair of integer exponents with the tight constant they certify."""

    exp_g: int
    exp_second: int
    log_c: float
    certified: bool
    max_violation: float


@dataclass
class ScaleRelationReport:
    smax: ScaleCertificate
    minor: ScaleCertificate
    corpus_size: int


def _scan_certificate(caps: tuple[int, int], log_c_cap: float, needed_log_c) -> ScaleCertificate:
    best = None
    for total in range(caps[0] + caps[1] + 1):
        for a in range(min(total, caps[0]) + 1):
            b = total - a
            if b > caps[1]:
                continue
            log_c = needed_log_c(a, b)
            if log_c <= log_c_cap:
                return ScaleCertificate(a, b, log_c, True, 0.0)
            if best is None or log_c < best[2]:
                best = (a, b, log_c)
    a, b, log_c = best
    return ScaleCertificate(a, b, log_c, False, log_c - log_c_cap)


# Exponent caps of the s_max form (M, N) and of the minor form (r, N), and
# the largest log C a certificate may need.
SMAX_CAPS = (12, 12)
NORM_CAPS = (12, 12)
LOG_C_CAP = 20.0


def scale_relation_check(corpus) -> ScaleRelationReport:
    """Certify s(eta) <= C s(g)^M s(alpha)^N and ||eta|| <= C ||g||^r / |Delta|^N.

    Scans exponent pairs smallest-first ((M + N) ascending, then M) up to
    SMAX_CAPS and NORM_CAPS and sets log C to the corpus maximum of the
    residual; the first pair with log C <= LOG_C_CAP is the certificate.
    Infeasibility within the caps is a report, not an error: the caps are
    artifacts of the search.
    """
    mats = [as_square(g) for g in corpus]
    if not mats:
        raise ValueError("corpus must be nonempty")
    b = component_scales_batch(np.stack(mats))
    if not b["ok"].all():
        i = int(np.argmin(b["ok"]))
        raise ValueError(
            f"corpus element {i} fails the domain test (min minor {b['min_minor'][i]:.3e})"
        )
    ls_g, ls_alpha, ls_eta, l_gnorm, l_etanorm = (
        np.log(b[key]) for key in ("s_g", "s_alpha", "s_eta", "g_norm", "eta_norm")
    )
    l_delta = b["log_minor_product"]

    smax_cert = _scan_certificate(
        SMAX_CAPS, LOG_C_CAP, lambda m, n: float(np.max(ls_eta - m * ls_g - n * ls_alpha))
    )
    minor_cert = _scan_certificate(
        NORM_CAPS, LOG_C_CAP, lambda r, n: float(np.max(l_etanorm - r * l_gnorm + n * l_delta))
    )
    return ScaleRelationReport(smax=smax_cert, minor=minor_cert, corpus_size=len(mats))


# Corpus path depths 1 - t = 2^{-u} with u uniform on DEEP_EXPONENT_RANGE,
# and the share of elements given a random real SL(n,R) factor.
DEEP_EXPONENT_RANGE = (1.0, 30.0)
REAL_FRACTION = 0.3


def crown_corpus(n: int, size: int, seed: int) -> list[np.ndarray]:
    """Seeded corpus of Iwasawa-domain elements exp(-i t x) k (optionally * r).

    Path depths are log-uniform in 1 - t = 2^{-u}, u in DEEP_EXPONENT_RANGE,
    stressing the scale relations near the boundary; a REAL_FRACTION of the
    elements is right-multiplied by a random SL(n,R) factor to vary s(g)
    (right G_R-multiplication keeps the transposed crown inside the domain).
    Elements failing the numerical domain test are resampled, at most
    50 * size candidates in all.
    """
    rng = np.random.default_rng([seed, n, size])
    out: list[np.ndarray] = []
    attempts = 0
    # No draw depends on a verdict, so candidates are drawn in blocks and each
    # block gets one domain test.  A block never holds more candidates than
    # are still needed, so the members and the attempt count are those of
    # drawing and testing one candidate at a time.
    while len(out) < size and attempts < 50 * size:
        block = min(size - len(out), 50 * size - attempts)
        attempts += block
        candidates = np.stack([_corpus_candidate(n, rng) for _ in range(block)])
        _, _, _, outside = gram_minors(candidates, leading_minors_batch)
        out.extend(candidates[~outside.any(axis=-1)])
    if len(out) < size:
        raise RuntimeError(f"corpus generation stalled at {len(out)}/{size}")
    return out


def _corpus_candidate(n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(*DEEP_EXPONENT_RANGE)
    t = 1.0 - 2.0**-u
    x = boundary_direction(random_p_element(n, rng))
    k = haar_so(n, rng)
    g = group_exp(x.matrix, -1j * t) @ k
    if rng.uniform() < REAL_FRACTION:
        g = g @ random_sl(n, rng)
    return g
