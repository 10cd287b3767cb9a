"""Sup-over-K sweeps of the component scales along boundary crown paths,
power-law blow-up fitting, and scale-relation certificates.

The sup over the compact group is estimated from below: Haar samples plus a
deterministic torus grid of Givens-angle rotations, refined by a
coordinate-wise pattern search (step halving to a floor, warm-started across
the t grid).  Estimates are one-sided (never above the true sup) and
monotone under added samples.  Component scales only need moduli, so the
sweep uses a direct pivot-free LDL of g^T g per sample with principal
square roots; branch-coherent continuation is not required here and lives
in ``iwasawa.decompose_path``.

Per t, the grid is one ``component_scales_batch`` call, and all pattern
searches of that t (each component from its best grid sample and from the
previous t's maximizer) run as one batched ascent: every step stacks the
probes of all still-active searches into one evaluation.  That evaluation
shares the Gram/minor/LDL stage with ``component_scales_batch`` and then
computes, per row, only the column its search climbs, so each search
returns bit for bit what it would return run alone on the full scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .iwasawa import domain_test, leading_minors_batch
from .liegroup import PElement, boundary_direction, haar_so, random_p_element, random_sl, rho
from .numkernel import group_exp, hermitian_eigensystem

BOUNDARY_RHO_TOL = 1e-12
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
    argmax: dict = field(default_factory=dict)
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


def _sym_ldl_batch(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, n = s.shape[0], s.shape[-1]
    work = s.copy()
    unit = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
    diag = np.zeros((m, n), dtype=complex)
    for k in range(n):
        d = work[:, k, k].copy()
        diag[:, k] = d
        if k + 1 < n:
            row = work[:, k, k + 1 :] / d[:, None]
            unit[:, k, k + 1 :] = row
            work[:, k + 1 :, k + 1 :] -= d[:, None, None] * row[:, :, None] * row[:, None, :]
    return unit, diag


def _inv_unit_upper_batch(u: np.ndarray) -> np.ndarray:
    m, n = u.shape[0], u.shape[-1]
    inv = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[:, i, j] = -np.einsum("ml,ml->m", u[:, i, i + 1 : j + 1], inv[:, i + 1 : j + 1, j])
    return inv


def _sv_ratio(stack: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sv[:, 0] / sv[:, -1]


def _ldl_stage(g_stack: np.ndarray, tol: Tolerances):
    """Shared first stage of the component scales of a stack (m, n, n).

    Forms the Gram matrices g^T g, their LAPACK leading minors, the floor
    test and the pivot-free LDL.  Rows failing the floor (``ok`` false) are
    factored as the identity so that later stages stay finite; callers mask
    them.  Returns (minors, min_minor, ok, unit, diag).
    """
    s = np.einsum("mji,mjk->mik", g_stack, g_stack)
    minors = leading_minors_batch(s)
    s_norms = np.linalg.norm(s, axis=(1, 2))
    floor = tol.minor_floor_rel * np.maximum(1.0, s_norms)
    min_minor = np.min(np.abs(minors), axis=1)
    ok = min_minor > floor
    n = g_stack.shape[-1]
    s_safe = np.where(ok[:, None, None], s, np.eye(n, dtype=complex))
    unit, diag = _sym_ldl_batch(s_safe)
    return minors, min_minor, ok, unit, diag


def _alpha_ratio(diag: np.ndarray) -> np.ndarray:
    abs_alpha = np.sqrt(np.abs(diag))
    return np.max(abs_alpha, axis=1) / np.min(abs_alpha, axis=1)


def _kappa(g_stack: np.ndarray, unit: np.ndarray, diag: np.ndarray) -> np.ndarray:
    alpha = np.sqrt(diag.astype(complex))
    return (g_stack @ _inv_unit_upper_batch(unit)) / alpha[:, None, :]


def component_scales_batch(
    g_stack: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> dict[str, np.ndarray]:
    """Component scales for a stack of domain elements (m, n, n).

    Elements whose smallest leading minor of g^T g is below the floor are
    flagged not-ok; their component entries are +inf.
    """
    minors, min_minor, ok, unit, diag = _ldl_stage(g_stack, tol)
    out = {
        "s_g": _sv_ratio(g_stack),
        "s_kappa": np.where(ok, _sv_ratio(_kappa(g_stack, unit, diag)), np.inf),
        "s_alpha": np.where(ok, _alpha_ratio(diag), np.inf),
        "s_eta": np.where(ok, _sv_ratio(unit), np.inf),
        "eta_norm": np.where(ok, np.linalg.norm(unit, axis=(1, 2)), np.inf),
        "g_norm": np.linalg.norm(g_stack, axis=(1, 2)),
        "log_minor_product": np.where(ok, np.sum(np.log(np.abs(minors)), axis=1), -np.inf),
        "min_minor": min_minor,
        "ok": ok,
    }
    return out


def _component_values(
    g_stack: np.ndarray, comp_idx: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Row r's scale of component COMPONENTS[comp_idx[r]], and the ok flags.

    Runs the shared LDL stage once, then each row computes only its own
    column: kappa rows the unit-upper inverse and one SVD, eta rows an SVD
    of the unit factor, alpha rows no SVD (one LAPACK call serves the kappa
    and eta rows).  Not-ok rows read -inf.  Each value equals the matching
    ``component_scales_batch`` entry bit for bit.
    """
    _, _, ok, unit, diag = _ldl_stage(g_stack, tol)
    kap, alp, eta = (comp_idx == c for c in range(len(COMPONENTS)))
    vals = np.empty(len(comp_idx))
    vals[alp] = _alpha_ratio(diag[alp])
    ratios = _sv_ratio(np.concatenate([_kappa(g_stack[kap], unit[kap], diag[kap]), unit[eta]]))
    n_kap = int(kap.sum())
    vals[kap], vals[eta] = ratios[:n_kap], ratios[n_kap:]
    return np.where(ok, vals, -np.inf), ok


def component_scales(g, tol: Tolerances = DEFAULT_TOLERANCES) -> ComponentScales:
    """Component scales of a single domain element."""
    stack = np.asarray(g, dtype=complex)[np.newaxis]
    b = component_scales_batch(stack, tol)
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


def _givens(n: int, i: int, j: int, angle: float) -> np.ndarray:
    r = np.eye(n)
    c, s = math.cos(angle), math.sin(angle)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def torus_samples(n: int, torus_grid: int) -> list[np.ndarray]:
    """Deterministic grid of Givens-angle rotations (n = 2 and 3 only)."""
    if torus_grid <= 0:
        return []
    angles = [2.0 * math.pi * i / torus_grid for i in range(torus_grid)]
    if n == 2:
        return [_givens(2, 0, 1, a) for a in angles]
    if n == 3:
        out = []
        for a in angles:
            ga = _givens(3, 0, 1, a)
            for b in angles:
                gb = ga @ _givens(3, 0, 2, b)
                for c in angles:
                    out.append(gb @ _givens(3, 1, 2, c))
        return out
    return []


def sweep_components(
    x: PElement,
    t_grid,
    n_haar: int,
    torus_grid: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[GrowthSample]:
    """Estimated sup over K of the three component scales along exp(-i t x) k.

    x must lie on the crown boundary (rho = pi/2); pass directions through
    ``boundary_direction`` first.  Haar samples get per-(t, index) seeds, so
    enlarging n_haar only adds samples and the sup estimates are monotone.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must be nonempty")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if ts[0] < 0.0 or ts[-1] >= 1.0:
        raise ValueError("t_grid must lie in [0, 1)")
    if abs(rho(x) - 0.5 * math.pi) > BOUNDARY_RHO_TOL:
        raise ValueError(f"x must satisfy rho(x) = pi/2, got rho={rho(x)!r}")

    n = x.n
    w, q = hermitian_eigensystem(x.matrix)
    torus = torus_samples(n, torus_grid)
    labels = [f"torus:{i}" for i in range(len(torus))]
    carry: dict[str, np.ndarray] = {}
    results = []
    for t_idx, t in enumerate(ts):
        e_mat = (q * np.exp(-1j * t * w)) @ q.conj().T
        haar = [haar_so(n, [seed, t_idx, j]) for j in range(n_haar)]
        k_stack = np.stack([m.astype(complex) for m in (torus + haar)])
        all_labels = labels + [f"haar:{j}" for j in range(n_haar)]
        g_stack = e_mat[np.newaxis] @ k_stack
        batch = component_scales_batch(g_stack, tol)
        exits = int(np.sum(~batch["ok"]))
        used = len(all_labels)

        sups, argmax = {}, {}
        step0 = math.pi / max(8, torus_grid if torus else 8)
        # refine each component from its best grid sample and, when
        # available, from the previous t's maximizer: the maximizing k moves
        # continuously in t, so warm-starting keeps the estimator on one
        # ridge and the sup sequence smooth enough to fit
        searches: list[tuple[str, np.ndarray, str]] = []
        for comp in COMPONENTS:
            vals = batch[f"s_{comp}"]
            finite = np.where(np.isfinite(vals), vals, -np.inf)
            best = int(np.argmax(finite))
            sups[comp] = float(finite[best]) if np.isfinite(finite[best]) else np.inf
            argmax[comp] = all_labels[best]
            if not np.isfinite(sups[comp]):
                continue
            searches.append((comp, k_stack[best].real, argmax[comp]))
            if comp in carry:
                searches.append((comp, carry[comp], f"carry:{comp}"))

        found = (
            _pattern_search(e_mat, [k for _, k, _ in searches], [c for c, _, _ in searches], step0, tol)
            if searches
            else []
        )
        winners: dict[str, tuple[float, np.ndarray, str]] = {}
        for (comp, _, start_label), (val, k_fin, n_used, n_exit) in zip(searches, found):
            used += n_used
            exits += n_exit
            if val > winners.get(comp, (-math.inf,))[0]:
                winners[comp] = (val, k_fin, start_label)
        for comp, (val, k_fin, start_label) in winners.items():
            if val > sups[comp]:
                sups[comp] = val
                argmax[comp] = f"{start_label}+search"
            carry[comp] = k_fin

        results.append(
            GrowthSample(
                t=t,
                sup_kappa=sups["kappa"],
                sup_alpha=sups["alpha"],
                sup_eta=sups["eta"],
                argmax=argmax,
                samples_used=used,
                exits=exits,
            )
        )
    return results


def _pattern_search(
    e_mat: np.ndarray,
    starts: list[np.ndarray],
    comps: list[str],
    step0: float,
    tol: Tolerances,
) -> list[tuple[float, np.ndarray, int, int]]:
    """Coordinate-wise ascents over SO(n), one per (start, component), run together.

    Each search probes every Givens plane at +-step around its current k,
    moves to the best probe while it strictly improves, halves its step
    otherwise, and stops at the step floor or its eval budget.  The sup
    basins sharpen like 1 - t, so the halving runs to convergence rather
    than a fixed round count; the estimate stays one-sided (never above
    the true sup).  Searches keep their own step, budget and position, so
    each returns exactly what it would alone; the batching only stacks all
    active searches' probes into one evaluation per step, in which every
    row computes just its own component (see ``_component_values``).
    Returns (value, k, evals used, domain exits) per start.
    """
    n = e_mat.shape[0]
    planes = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    n_probe = 2 * len(planes)
    comp_idx = np.array([COMPONENTS.index(c) for c in comps])

    k_best = list(starts)
    g0 = e_mat[np.newaxis] @ np.stack([k.astype(complex) for k in k_best])
    v0, ok0 = _component_values(g0, comp_idx, tol)
    val = [float(v) for v in v0]
    used = [1] * len(starts)
    exits = [int(not o) for o in ok0]
    step = [step0] * len(starts)
    while True:
        active = [
            a for a in range(len(starts))
            if step[a] > PATTERN_STEP_FLOOR and used[a] < PATTERN_MAX_EVALS
        ]
        if not active:
            break
        # probes run search by search, then plane by plane, then +step, -step
        angles = [(step[a], -step[a]) for a in active]
        cos = np.array([[math.cos(x) for x in pair] for pair in angles])
        sin = np.array([[math.sin(x) for x in pair] for pair in angles])
        rot = np.tile(np.eye(n), (len(active), len(planes), 2, 1, 1))
        for q, (i, j) in enumerate(planes):
            rot[:, q, :, i, i] = cos
            rot[:, q, :, j, j] = cos
            rot[:, q, :, i, j] = -sin
            rot[:, q, :, j, i] = sin
        k_rep = np.stack([k_best[a] for a in active]).repeat(n_probe, axis=0)
        probes = rot.reshape(-1, n, n) @ k_rep
        p_vals, p_ok = _component_values(
            e_mat[np.newaxis] @ probes.astype(complex), comp_idx[active].repeat(n_probe), tol
        )
        p_vals = np.where(np.isfinite(p_vals), p_vals, -math.inf).reshape(len(active), n_probe)
        p_exits = np.sum(~p_ok.reshape(len(active), n_probe), axis=1)
        p_best = np.argmax(p_vals, axis=1)
        for slot, a in enumerate(active):
            used[a] += n_probe
            exits[a] += int(p_exits[slot])
            if p_vals[slot, p_best[slot]] > val[a]:
                val[a] = float(p_vals[slot, p_best[slot]])
                k_best[a] = probes[slot * n_probe + p_best[slot]]
            else:
                step[a] *= 0.5
    return list(zip(val, k_best, used, exits))


def fit_power_law(ts, values, t_window: tuple[float, float] | None = None) -> BlowupFit:
    """Least-squares slope of log(values) against -log(1 - t) on a window."""
    t_arr = np.asarray(list(ts), dtype=float)
    v_arr = np.asarray(list(values), dtype=float)
    if t_window is not None:
        mask = (t_arr >= t_window[0]) & (t_arr <= t_window[1])
    else:
        mask = np.ones(t_arr.shape, dtype=bool)
    mask &= np.isfinite(v_arr) & (v_arr > 0.0)
    t_used, v_used = t_arr[mask], v_arr[mask]
    if t_used.size < 4:
        raise ValueError(f"need at least 4 usable points in the window, got {t_used.size}")
    xs = -np.log1p(-t_used)
    ys = np.log(v_used)
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate window: all t coincide")
    slope = float(np.sum((xs - xm) * (ys - ym)) / sxx)
    intercept = float(ym - slope * xm)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ym) ** 2))
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


def scale_relation_check(
    corpus,
    smax_caps: tuple[int, int] = (12, 12),
    norm_caps: tuple[int, int] = (12, 12),
    log_c_cap: float = 20.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ScaleRelationReport:
    """Certify s(eta) <= C s(g)^M s(alpha)^N and ||eta|| <= C ||g||^r / |Delta|^N.

    Scans exponent pairs smallest-first ((M + N) ascending, then M) and sets
    log C to the corpus maximum of the residual; the first pair with
    log C <= log_c_cap is the certificate.  Infeasibility within the caps is
    a report, not an error: the caps are artifacts of the search.
    """
    mats = [np.asarray(g, dtype=complex) for g in corpus]
    if not mats:
        raise ValueError("corpus must be nonempty")
    for i, g in enumerate(mats):
        ok, smallest = domain_test(g, tol)
        if not ok:
            raise ValueError(
                f"corpus element {i} fails the domain test (min minor {smallest:.3e})"
            )
    scales = [component_scales(g, tol) for g in mats]
    ls_g = np.array([math.log(c.s_g) for c in scales])
    ls_alpha = np.array([math.log(c.s_alpha) for c in scales])
    ls_eta = np.array([math.log(c.s_eta) for c in scales])
    l_gnorm = np.array([math.log(c.g_norm) for c in scales])
    l_etanorm = np.array([math.log(c.eta_norm) for c in scales])
    l_delta = np.array([c.log_minor_product for c in scales])

    smax_cert = _scan_certificate(
        smax_caps, log_c_cap, lambda m, n: float(np.max(ls_eta - m * ls_g - n * ls_alpha))
    )
    minor_cert = _scan_certificate(
        norm_caps, log_c_cap, lambda r, n: float(np.max(l_etanorm - r * l_gnorm + n * l_delta))
    )
    return ScaleRelationReport(smax=smax_cert, minor=minor_cert, corpus_size=len(mats))


def crown_corpus(
    n: int,
    size: int,
    seed: int,
    deep_exponent_range: tuple[float, float] = (1.0, 30.0),
    real_fraction: float = 0.3,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[np.ndarray]:
    """Seeded corpus of Iwasawa-domain elements exp(-i t x) k (optionally * r).

    Path depths are log-uniform in 1 - t = 2^{-u}, u in deep_exponent_range,
    stressing the scale relations near the boundary; a real_fraction of the
    elements is right-multiplied by a random SL(n,R) factor to vary s(g)
    (right G_R-multiplication keeps the transposed crown inside the domain).
    Elements failing the numerical domain test are resampled.
    """
    rng = np.random.default_rng([seed, n, size])
    out = []
    attempts = 0
    while len(out) < size and attempts < 50 * size:
        attempts += 1
        u = rng.uniform(*deep_exponent_range)
        t = 1.0 - 2.0**-u
        x = boundary_direction(random_p_element(n, rng))
        k = haar_so(n, rng)
        g = group_exp(x.matrix, -1j * t) @ k
        if rng.uniform() < real_fraction:
            g = g @ random_sl(n, rng)
        if domain_test(g, tol)[0]:
            out.append(g)
    if len(out) < size:
        raise RuntimeError(f"corpus generation stalled at {len(out)}/{size}")
    return out
