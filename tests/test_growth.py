import dataclasses
import math

import numpy as np
import pytest

from conftest import rot2
from crownlab import config, growth
from crownlab.growth import (
    COMPONENTS,
    PATTERN_STEP_FLOOR,
    component_scales,
    component_scales_batch,
    crown_corpus,
    fit_blowup,
    fit_power_law,
    scale_relation_check,
    sweep_components,
    torus_samples,
    _component_values,
    _pattern_search,
    _scan_certificate,
)
from crownlab.iwasawa import domain_test, kappa_factor
from crownlab.liegroup import (
    PElement,
    boundary_direction,
    givens,
    haar_so,
    random_p_element,
    random_sl,
    s_max,
)
from crownlab.numkernel import group_exp

PI = math.pi
X2 = PElement(np.diag([PI / 4, -PI / 4]))
DYADIC = [1.0 - 2.0**-j for j in range(1, 13)]


def crown_element(x_diag, theta, t):
    return group_exp(np.diag(x_diag), -1j * t) @ rot2(theta)


class TestSweep:
    def test_zero_time_sups_are_one(self):
        samples = sweep_components(X2, [0.0, 0.5], n_haar=8, torus_grid=8, seed=1)
        s0 = samples[0]
        for sup in (s0.sup_kappa, s0.sup_alpha, s0.sup_eta):
            assert sup == pytest.approx(1.0, abs=1e-10)

    def test_sl2_alpha_closed_form(self):
        samples = sweep_components(X2, DYADIC[:10], n_haar=32, torus_grid=64, seed=2)
        for s in samples:
            target = 1.0 / abs(math.cos(s.t * PI / 2))
            assert s.sup_alpha == pytest.approx(target, rel=1e-9)

    def test_monotone_in_haar_count(self):
        # the extra samples are a superset; search polish can differ by ulps
        lo = sweep_components(X2, [0.9], n_haar=16, torus_grid=0, seed=3)[0]
        hi = sweep_components(X2, [0.9], n_haar=32, torus_grid=0, seed=3)[0]
        slack = 1.0 - 1e-12
        assert hi.sup_alpha >= slack * lo.sup_alpha
        assert hi.sup_kappa >= slack * lo.sup_kappa
        assert hi.sup_eta >= slack * lo.sup_eta

    @pytest.mark.parametrize("t", [0.5, 0.9, 0.99])
    def test_grid_sup_monotone_in_haar_count_n3(self, t, monkeypatch):
        # one eval per search leaves only grid values; the first m rows of a
        # t's Haar block do not depend on n_haar, so the grid only grows
        monkeypatch.setattr(growth, "PATTERN_MAX_EVALS", 1)
        rng = np.random.default_rng(31)
        for d in range(4):
            x = boundary_direction(random_p_element(3, rng))
            sups = [
                sweep_components(x, [t], n_haar=m, torus_grid=0, seed=50 + d)[0]
                for m in (16, 32, 64)
            ]
            for lo, hi in zip(sups, sups[1:]):
                for comp in COMPONENTS:
                    assert getattr(hi, f"sup_{comp}") >= getattr(lo, f"sup_{comp}")

    def test_sup_nondecreasing_in_t(self, rng):
        x = boundary_direction(random_p_element(3, rng))
        samples = sweep_components(x, [1 - 2.0**-j for j in range(1, 11)], 64, 8, seed=4)
        for comp in ("kappa", "alpha", "eta"):
            vals = [getattr(s, f"sup_{comp}") for s in samples if s.t >= 0.5]
            for a, b in zip(vals, vals[1:]):
                assert b >= 0.99 * a

    def test_one_batched_search_per_t(self, monkeypatch):
        calls = []

        def counting(e_mat, starts, comps, step0):
            calls.append(list(comps))
            return _pattern_search(e_mat, starts, comps, step0)

        monkeypatch.setattr(growth, "_pattern_search", counting)
        sweep_components(X2, [0.5, 0.75, 0.875], n_haar=8, torus_grid=8, seed=1)
        # three components from the grid, and from the previous t once it exists
        assert calls == [list(COMPONENTS)] + [[c for c in COMPONENTS for _ in range(2)]] * 2

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep_components(X2, [], 8, 8, seed=0)
        with pytest.raises(ValueError, match="increasing"):
            sweep_components(X2, [0.5, 0.4], 8, 8, seed=0)
        with pytest.raises(ValueError, match="pi/2"):
            sweep_components(PElement(np.diag([0.1, -0.1])), [0.5], 8, 8, seed=0)

    def test_non_finite_time_is_rejected_before_any_draw(self, monkeypatch):
        # NaN passes the range and order checks, and an SVD of NaN entries
        # fails to converge, so the grid needs its own finiteness test
        def no_draw(*args):
            raise AssertionError("Haar block drawn for a non-finite t")

        monkeypatch.setattr(growth, "haar_so", no_draw)
        with pytest.raises(ValueError, match="t = nan"):
            sweep_components(X2, [0.5, math.nan], 8, 8, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_per_t_exponential_is_group_exp(self, n, rng, monkeypatch):
        # the sweep's stacked exponential and the checked single call are
        # one formula, so their bits agree
        seen = []

        def recording(e_mat, starts, comps, step0):
            seen.append(e_mat.copy())
            return _pattern_search(e_mat, starts, comps, step0)

        monkeypatch.setattr(growth, "_pattern_search", recording)
        x = boundary_direction(random_p_element(n, rng))
        ts = [0.0, 0.5, 0.9, 1.0 - 2.0**-20]
        sweep_components(x, ts, n_haar=4, torus_grid=0, seed=1)
        assert len(seen) == len(ts)
        for t, e_mat in zip(ts, seen):
            assert e_mat.tobytes() == group_exp(x.matrix, -1j * t).tobytes()

    def test_no_samples_is_rejected_before_any_work(self, rng, monkeypatch):
        # with no Haar draw and no torus grid (none exists for n >= 4) the
        # sup had no sample, and numpy's argmax raised on the empty batch
        def no_work(*args):
            raise AssertionError("eigensystem computed for a sweep with no samples")

        monkeypatch.setattr(growth, "hermitian_eigensystem", no_work)
        x4 = boundary_direction(random_p_element(4, rng))
        for x, torus in ((X2, 0), (x4, 64)):
            message = rf"n_haar = 0 with no torus \(torus_grid = {torus}, n = {x.n}\)"
            with pytest.raises(ValueError, match=message):
                sweep_components(x, [0.5], n_haar=0, torus_grid=torus, seed=0)
        # a negative count would read as "no torus", fail in the Haar draw
        # after the exponentials, or (for the torus) act silently as 0
        for x, haar, torus in ((x4, -64, 64), (X2, -1, 8), (X2, 8, -8)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                sweep_components(x, [0.5], n_haar=haar, torus_grid=torus, seed=0)

    def test_n4_runs_without_torus_grid(self, rng):
        x = boundary_direction(random_p_element(4, rng))
        s = sweep_components(x, [0.5, 0.9], n_haar=16, torus_grid=0, seed=8)[1]
        assert all(
            v >= 1.0 and math.isfinite(v) for v in (s.sup_kappa, s.sup_alpha, s.sup_eta)
        )


def torus_loop(n, torus_grid):
    """Oracle: the torus grid built one rotation product at a time."""
    angles = [2.0 * math.pi * i / torus_grid for i in range(torus_grid)]
    if n == 2:
        return [givens(2, 0, 1, a) for a in angles]
    out = []
    for a in angles:
        ga = givens(3, 0, 1, a)
        for b in angles:
            gb = ga @ givens(3, 0, 2, b)
            for c in angles:
                out.append(gb @ givens(3, 1, 2, c))
    return out


class TestTorus:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("grid", [8, 16, 64])
    def test_batched_matches_loop_oracle(self, n, grid):
        torus, loop = torus_samples(n, grid), np.stack(torus_loop(n, grid))
        assert torus.shape == loop.shape == (grid ** (n * (n - 1) // 2), n, n)
        assert torus.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("n, grid", [(2, 0), (3, 0), (4, 8)])
    def test_empty_stack(self, n, grid):
        assert torus_samples(n, grid).shape == (0, n, n)


def serial_pattern_search(e_mat, k_start, comp, step0):
    """Oracle: one search at a time, full component_scales_batch per step."""
    n = e_mat.shape[0]
    k_best = k_start
    g0 = (e_mat @ k_best.astype(complex))[np.newaxis]
    b0 = component_scales_batch(g0)
    val = float(b0[f"s_{comp}"][0]) if b0["ok"][0] else -math.inf
    used, exits = 1, int(not b0["ok"][0])
    step = step0
    while step > PATTERN_STEP_FLOOR and used < growth.PATTERN_MAX_EVALS:
        probes = []
        for i in range(n - 1):
            for j in range(i + 1, n):
                for sgn in (1.0, -1.0):
                    probes.append(givens(n, i, j, sgn * step) @ k_best)
        p_stack = e_mat[np.newaxis] @ np.stack([p.astype(complex) for p in probes])
        p_batch = component_scales_batch(p_stack)
        used += len(probes)
        exits += int(np.sum(~p_batch["ok"]))
        p_vals = np.where(np.isfinite(p_batch[f"s_{comp}"]), p_batch[f"s_{comp}"], -math.inf)
        p_best = int(np.argmax(p_vals))
        if p_vals[p_best] > val:
            val = float(p_vals[p_best])
            k_best = probes[p_best]
        else:
            step *= 0.5
    return val, k_best, used, exits


def boundary_exp(n, rng, t):
    x = boundary_direction(random_p_element(n, rng))
    return group_exp(x.matrix, -1j * t)


class TestPatternSearch:
    def _starts(self, n, rng):
        # strided real views of complex stacks, as the sweep passes its grid
        # samples, next to contiguous rotations, as it passes carried maximizers
        ks = [haar_so(n, rng) for _ in range(6)]
        viewed = np.stack([k.astype(complex) for k in ks[:3]])
        return [viewed[i].real for i in range(3)] + ks[3:]

    def _assert_matches_serial(self, e_mat, starts, comps, step0):
        batched = _pattern_search(e_mat, starts, comps, step0)
        assert [len(column) for column in batched] == [len(starts)] * 4
        exits = 0
        for k0, comp, val, k_fin, used, n_exit in zip(starts, comps, *batched):
            ref_val, ref_k, ref_used, ref_exit = serial_pattern_search(e_mat, k0, comp, step0)
            assert (val, used, n_exit) == (ref_val, ref_used, ref_exit)
            assert k_fin.tobytes() == np.ascontiguousarray(ref_k).tobytes()
            exits += n_exit
        return exits

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batched_matches_serial_oracle(self, n, rng):
        e_mat = boundary_exp(n, rng, 1.0 - 2.0**-6)
        starts = self._starts(n, rng)
        comps = [COMPONENTS[i % 3] for i in range(len(starts))]
        self._assert_matches_serial(e_mat, starts, comps, PI / 8)

    @pytest.mark.parametrize("n, budget", [(2, 84), (3, 500), (4, 1500)])
    def test_budget_cuts_searches_at_different_steps(self, n, budget, rng, monkeypatch):
        # at t = 0.3 some of these starts reach the step floor within the
        # budget and the others are cut off by it
        e_mat = boundary_exp(n, rng, 0.3)
        starts = self._starts(n, rng)
        comps = [COMPONENTS[i % 3] for i in range(len(starts))]
        monkeypatch.setattr(growth, "PATTERN_MAX_EVALS", budget)
        used = _pattern_search(e_mat, starts, comps, PI / 8)[2]
        assert min(used) < budget <= max(used)
        self._assert_matches_serial(e_mat, starts, comps, PI / 8)

    def test_not_ok_probes_count_as_exits(self, rng, monkeypatch):
        # a raised minor floor puts part of K outside the numerical domain,
        # so searches start or probe on not-ok rows
        n = 3
        e_mat = boundary_exp(n, rng, 1.0 - 2.0**-8)
        starts = self._starts(n, rng)
        g = e_mat[np.newaxis] @ np.stack([haar_so(n, rng).astype(complex) for _ in range(64)])
        b = component_scales_batch(g)
        gram = np.einsum("mji,mjk->mik", g, g)
        rel = b["min_minor"] / np.maximum(1.0, np.linalg.norm(gram, axis=(1, 2)))
        raised = dataclasses.replace(config.TOLERANCES, minor_floor_rel=float(np.median(rel)))
        monkeypatch.setattr(config, "TOLERANCES", raised)
        comps = [COMPONENTS[i % 3] for i in range(len(starts))]
        assert self._assert_matches_serial(e_mat, starts, comps, PI / 8) > 0


class TestComponentScalesBatch:
    def test_single_matrix_is_the_batch_row(self, rng):
        # the closed-form ratios are elementwise, the stacks left to LAPACK
        # share one SVD call, and only not-ok rows are factored as the
        # identity: each row is its m = 1 call
        for n in (2, 3, 4):
            g = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
            g[::4, :, 0] = 0.0
            g[::4, 0, 0], g[::4, 1, 0] = 1.0, 1j + 1e-15
            batch = component_scales_batch(g)
            assert not batch["ok"].all() and batch["ok"].any()
            for i, gi in enumerate(g):
                one = dataclasses.asdict(component_scales(gi))
                assert one.keys() == batch.keys()
                assert all(np.array(one[key]).tobytes() == batch[key][i].tobytes() for key in one)


class TestComponentValues:
    def test_columns_equal_full_batch(self, rng):
        for n in (2, 3, 4):
            g = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
            # a nearly isotropic first column puts the first minor of g^T g
            # (about 2e-15) below the floor
            g[::5, :, 0] = 0.0
            g[::5, 0, 0], g[::5, 1, 0] = 1.0, 1j + 1e-15
            full = component_scales_batch(g)
            assert not full["ok"].all() and full["ok"].any()
            for comp in COMPONENTS:
                assert np.all(full[f"s_{comp}"][~full["ok"]] == np.inf)
            mixed = rng.integers(0, 3, len(g))
            for comp_idx in [np.full(len(g), c) for c in range(3)] + [mixed]:
                vals, ok = _component_values(g, comp_idx)
                assert np.array_equal(ok, full["ok"])
                assert np.all(vals[~ok] == -np.inf)
                for c, comp in enumerate(COMPONENTS):
                    rows = ok & (comp_idx == c)
                    assert vals[rows].tobytes() == full[f"s_{comp}"][rows].tobytes()


def domain_elements(n, rng, count, u_range=(1.0, 40.0)):
    """Seeded g = exp(-i t x) k with boundary x, Haar k and 1 - t = 2^-u."""
    out = []
    for _ in range(count):
        x = boundary_direction(random_p_element(n, rng))
        t = 1.0 - 2.0 ** -rng.uniform(*u_range)
        out.append(group_exp(x.matrix, -1j * t) @ haar_so(n, rng))
    return np.stack(out)


def kappa_and_eta(g):
    """The float kappa and eta (the unit factor) that the component scales read."""
    _, _, ok, unit, diag = growth._ldl_stage(g)
    return kappa_factor(g, unit, np.sqrt(diag.astype(complex))), unit, ok


class TestClosedFormRatios:
    """kappa^T kappa = I and det eta = 1 pair the singular values as sigma,
    1/sigma (plus 1 for odd n), so s_kappa for n <= 3 and s_eta for n = 2
    are closed forms in tr(M^H M); a 40-digit SVD of the same float matrix
    is the oracle."""

    @staticmethod
    def mp_ratio(mpmath, m):
        with mpmath.workdps(40):
            sv = mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False)
            return max(sv) / min(sv)

    @pytest.mark.parametrize("n", [2, 3])
    def test_deep_domain_elements_match_the_mpmath_ratio(self, n, rng):
        mpmath = pytest.importorskip("mpmath")
        g = domain_elements(n, rng, 150)
        batch = component_scales_batch(g)
        kappa, unit, ok = kappa_and_eta(g)
        assert ok.all() and np.array_equal(batch["ok"], ok)
        pairs = [("s_kappa", kappa)] + ([("s_eta", unit)] if n == 2 else [])
        for key, stack in pairs:
            for got, m in zip(batch[key], stack):
                want = self.mp_ratio(mpmath, m)
                assert abs(mpmath.mpf(float(got)) - want) <= 1e-13 * want

    def test_zero_time_ratios_are_exactly_one(self, rng):
        # a real g gives a real kappa, and a rotation [[c, -s], [s, c]] the
        # Gram entry c (-s) + s c = 0, so eta = I
        for g in (torus_samples(2, 64), haar_so(2, rng, 32), haar_so(3, rng, 32)):
            batch = component_scales_batch(g.astype(complex))
            assert np.all(batch["s_kappa"] == 1.0)
        assert np.all(component_scales_batch(torus_samples(2, 64).astype(complex))["s_eta"] == 1.0)
        for n in (2, 3):
            x = boundary_direction(random_p_element(n, rng))
            assert sweep_components(x, [0.0], 8, 8, seed=1)[0].sup_kappa == 1.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_svd_rows_are_the_lapack_ratio(self, n, rng):
        # what has no closed form keeps the one SVD route, bit for bit
        g = domain_elements(n, rng, 40, (1.0, 20.0))
        batch = component_scales_batch(g)
        kappa, unit, ok = kappa_and_eta(g)
        assert ok.all()
        assert batch["s_eta"].tobytes() == growth._sv_ratio(unit).tobytes()
        assert batch["s_g"].tobytes() == growth._sv_ratio(g).tobytes()
        if n == 4:
            assert batch["s_kappa"].tobytes() == growth._sv_ratio(kappa).tobytes()

    def test_search_builds_its_rotations_once(self, rng, monkeypatch):
        # one givens call per search, over all its step levels; the serial
        # oracle still builds its rotations step by step
        calls = []

        def counting(*args):
            calls.append(args)
            return givens(*args)

        monkeypatch.setattr(growth, "givens", counting)
        e_mat = boundary_exp(3, rng, 1.0 - 2.0**-6)
        starts = [haar_so(3, rng) for _ in range(4)]
        used = _pattern_search(e_mat, starts, list(COMPONENTS) + ["kappa"], PI / 8)[2]
        assert len(calls) == 1 and min(used) > 1 + 6


class TestFit:
    def test_exact_power_law(self):
        ts = np.linspace(0.9, 0.999, 10)
        fit = fit_power_law(ts, 3.0 * (1.0 - ts) ** -2.0)
        assert fit.n_hat == pytest.approx(2.0, abs=1e-6)
        assert fit.log_c_hat == pytest.approx(math.log(3.0), abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_samples(self):
        fit = fit_power_law(np.linspace(0.5, 0.99, 8), np.ones(8))
        assert fit.n_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="4"):
            fit_power_law([0.5, 0.6, 0.7], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_time_must_be_finite_and_below_one(self, bad):
        # -log(1 - t) has no finite value there; the slope came out NaN
        ts = [0.5, 0.6, 0.7, 0.8, bad]
        with pytest.raises(ValueError, match=rf"got t = {bad!r}"):
            fit_power_law(ts, [1.0, 2.0, 3.0, 4.0, 5.0])
        # a t outside the window is not read
        fit = fit_power_law(ts, [1.0, 2.0, 3.0, 4.0, 5.0], (0.5, 0.8))
        assert fit.t_window == (0.5, 0.8)

    def test_component_validation(self):
        with pytest.raises(ValueError, match="component"):
            fit_blowup([], "beta")

    def test_sl2_alpha_window(self):
        samples = sweep_components(X2, DYADIC, n_haar=64, torus_grid=64, seed=5)
        fit = fit_blowup(samples, "alpha", (0.9, 0.999))
        assert abs(fit.n_hat - 1.0) < 0.05
        assert abs(math.exp(fit.log_c_hat) - 2.0 / PI) < 0.1 * 2.0 / PI


class TestComponentScales:
    def test_matches_public_smax_route(self, rng):
        # the stacked SVD of component_scales against the single-matrix s_max
        for _ in range(20):
            g = crown_element(
                boundary_direction(random_p_element(2, rng)).eigenvalues,
                rng.uniform(0, 2 * PI),
                rng.uniform(0, 0.9),
            )
            c = component_scales(g)
            assert c.ok
            assert c.s_g == pytest.approx(s_max(g), rel=1e-12)

    def test_unitary_crown_point_has_unit_s_g(self, rng):
        g = crown_element([PI / 4, -PI / 4], 0.3, 0.7)
        assert component_scales(g).s_g == pytest.approx(1.0, abs=1e-10)


class TestScaleRelation:
    def test_identity_corpus(self):
        report = scale_relation_check([np.eye(3)])
        assert report.smax.certified
        assert (report.smax.exp_g, report.smax.exp_second) == (0, 0)
        assert report.smax.log_c == pytest.approx(0.0, abs=1e-12)

    def test_shallow_unitary_corpus_needs_no_g_power(self, rng):
        corpus = [
            crown_element([PI / 4, -PI / 4], rng.uniform(0, 2 * PI), rng.uniform(0, 0.5))
            for _ in range(100)
        ]
        report = scale_relation_check(corpus)
        assert report.smax.certified
        assert report.smax.exp_g == 0

    def test_real_sl2_corpus_minor_form(self, rng):
        corpus = [random_sl(2, rng) for _ in range(200)]
        report = scale_relation_check(corpus)
        assert report.minor.certified
        assert report.minor.exp_g <= 2
        assert report.minor.exp_second <= 1

    def test_rejects_out_of_domain_corpus(self):
        bad = np.array([[1.0, 0.0], [1j, 1.0]])
        with pytest.raises(ValueError, match="domain"):
            scale_relation_check([np.eye(2), bad])

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="nonempty"):
            scale_relation_check([])

    def test_infeasible_reported_not_raised(self, monkeypatch):
        deep = [crown_element([PI / 4, -PI / 4], PI / 4 + 2.0**-30, 1 - 2.0**-30)]
        monkeypatch.setattr(growth, "SMAX_CAPS", (0, 0))
        monkeypatch.setattr(growth, "LOG_C_CAP", 5.0)
        report = scale_relation_check(deep)
        assert not report.smax.certified
        assert report.smax.max_violation > 0.0

    def test_certificates_bound_fitted_exponents(self, rng):
        # deep corpus coupling angle offset to path depth pins the certificate
        corpus = []
        for _ in range(300):
            u = rng.uniform(1.0, 34.0)
            delta = rng.choice([-1.0, 1.0]) * 2.0 ** -rng.uniform(0.0, u)
            corpus.append(crown_element([PI / 4, -PI / 4], PI / 4 + delta, 1.0 - 2.0**-u))
        report = scale_relation_check(corpus)
        assert report.smax.certified

        samples = sweep_components(X2, DYADIC, n_haar=128, torus_grid=64, seed=9)
        window = (0.9, 0.9995)
        n_alpha = fit_blowup(samples, "alpha", window).n_hat
        n_eta = fit_blowup(samples, "eta", window).n_hat
        n_kappa = fit_blowup(samples, "kappa", window).n_hat
        assert n_eta <= report.smax.exp_g + report.smax.exp_second * n_alpha + 0.1

        scales = [component_scales(g) for g in corpus]
        ls_g = np.array([math.log(c.s_g) for c in scales])
        ls_a = np.array([math.log(c.s_alpha) for c in scales])
        ls_k = np.array([math.log(c.s_kappa) for c in scales])
        kappa_cert = _scan_certificate(
            (12, 12), 20.0, lambda m, n: float(np.max(ls_k - m * ls_g - n * ls_a))
        )
        assert kappa_cert.certified
        assert n_kappa <= kappa_cert.exp_g + kappa_cert.exp_second * n_alpha + 0.1


def corpus_one_at_a_time(n, size, seed):
    """Reference corpus: one candidate drawn and domain-tested at a time."""
    rng = np.random.default_rng([seed, n, size])
    out = []
    attempts = 0
    while len(out) < size and attempts < 50 * size:
        attempts += 1
        g = growth._corpus_candidate(n, rng)
        if domain_test(g)[0]:
            out.append(g)
    return out


class TestCrownCorpus:
    # A floor of 0.2 relative to ||S|| rejects about a third of the
    # candidates, so blocks after the first are exercised; at the default
    # floor no candidate of these corpora is rejected.
    @pytest.mark.parametrize("floor_rel", [None, 0.2], ids=["default_floor", "resampling"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_match_one_at_a_time(self, n, floor_rel, monkeypatch):
        if floor_rel is not None:
            monkeypatch.setattr(
                config,
                "TOLERANCES",
                dataclasses.replace(config.TOLERANCES, minor_floor_rel=floor_rel),
            )
        blocked = crown_corpus(n, 200, seed=11)
        reference = corpus_one_at_a_time(n, 200, seed=11)
        assert len(blocked) == len(reference) == 200
        assert all(a.tobytes() == b.tobytes() for a, b in zip(blocked, reference))

    def test_stalls_after_fifty_candidates_per_member(self, monkeypatch):
        monkeypatch.setattr(
            config, "TOLERANCES", dataclasses.replace(config.TOLERANCES, minor_floor_rel=10.0)
        )
        drawn = []
        candidate = growth._corpus_candidate

        def counted(n, rng):
            drawn.append(n)
            return candidate(n, rng)

        monkeypatch.setattr(growth, "_corpus_candidate", counted)
        with pytest.raises(RuntimeError, match="stalled at 0/4"):
            crown_corpus(2, 4, seed=3)
        assert len(drawn) == 200

    def test_deterministic_and_in_domain(self):
        a = crown_corpus(2, 25, seed=6)
        b = crown_corpus(2, 25, seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        report = scale_relation_check(a)
        assert report.corpus_size == 25
