"""The three benchmark workloads: seeded inputs, one item's library calls,
and the item's verification at the acceptance criteria's own thresholds.

Inputs are a pure function of (seed, item index), drawn with numpy only, so
the library receives nothing but generated arrays and scalars.  An item
passes when every check holds; a raised ``CrownLabError`` (or a fit that
cannot be formed) makes it fail, never crash the run.

- ``sweep``: criterion 08's traffic.  One boundary direction for n = 2 and
  one for n = 3 per item, with criterion 08's settings (dyadic:12 grid,
  n_haar 512, torus 64 / 8), then kappa, alpha and eta fits on
  (0.9, 0.999).  Passes on a finite exponent, r^2 > 0.99 and every windowed
  sample/fit ratio < 1.05.  Both n in one item keep the item latency
  unimodal.  n = 4 is left out: criterion 08 covers n = 2, 3 only, and at
  n = 4 (CLI settings n_haar 128, no torus) the ratio rule fails for some
  directions.
- ``pairing``: criteria 10 and 11.  One (Im s, v) per item, v on modes
  {0, +-2}; boundary pairings against ``smooth_test_vector()`` at quad 1024
  on t = 1 - 2^-j, j = 4..j_max, with j_max a seeded shuffle of 10..14 in
  each block of five items; then ``growth_exponent`` on j = 4..12.  Passes
  when the differences decrease, every ratio from the third on lies in
  (0.4, 0.6), and the fit is finite with r^2 > 0.99.
- ``corpus``: criteria 03 and 09.  Three domain elements g = exp(-itx)k
  per item, one for each n = 2, 3, 4, each with diagonal boundary-scaled x,
  Haar k and 1 - t = 2^-u, u in [1, 30], processed one matrix per call.
  Each passes when g is in the domain, its component scales exist,
  ``decompose_path`` reconstructs g to 1e-8, ``alpha_pow`` matches the
  leading minors to 1e-9 relative and ``s_max`` matches the LAPACK
  singular-value ratio to 1e-8 relative.  One n of each per item keeps the
  item latency unimodal.
"""

from __future__ import annotations

import math

import numpy as np

SWEEP_T_GRID = tuple(1.0 - 2.0**-j for j in range(1, 13))
SWEEP_WINDOW = (0.9, 0.999)
SWEEP_N = (2, 3)
SWEEP_SETTINGS = {2: (512, 64), 3: (512, 8)}  # n -> (n_haar, torus)
PAIRING_J_MAX = (10, 11, 12, 13, 14)
PAIRING_FIT_GRID = tuple(1.0 - 2.0**-j for j in range(4, 13))
CORPUS_N = (2, 3, 4)

# Stream tags keep item, warm-up and block draws independent of each other.
ITEM, WARMUP, BLOCK = 1, 2, 3


def _traceless_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    s = 0.5 * (a + a.T)
    return s - np.trace(s) / n * np.eye(n)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar element of SO(n): QR of a Gaussian with diag(R) > 0, det fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return q


class Sweep:
    name = "sweep"
    block = 1
    trace_items = 1
    warmup_items = 1

    @staticmethod
    def make(seed: int, i: int, tag: int = ITEM) -> dict:
        """One boundary direction per n: n = 2 and 3 (the warm-up: n = 2 only)."""
        rng = np.random.default_rng([seed, tag, i])
        return {
            "sweeps": [
                {"n": n, "direction": _traceless_symmetric(rng, n), "seed": int(rng.integers(2**31))}
                for n in ((2,) if tag == WARMUP else SWEEP_N)
            ]
        }

    @staticmethod
    def run(cl, inp: dict) -> bool:
        lo, hi = SWEEP_WINDOW
        passed = True
        for sweep in inp["sweeps"]:
            n_haar, torus = SWEEP_SETTINGS[sweep["n"]]
            x = cl.liegroup.boundary_direction(cl.liegroup.PElement(sweep["direction"]))
            samples = cl.growth.sweep_components(
                x, SWEEP_T_GRID, n_haar=n_haar, torus_grid=torus, seed=sweep["seed"]
            )
            for comp in ("kappa", "alpha", "eta"):
                try:
                    fit = cl.growth.fit_blowup(samples, comp, SWEEP_WINDOW)
                except ValueError:  # fewer than 4 finite sups in the window
                    return False
                passed &= math.isfinite(fit.n_hat) and fit.r_squared > 0.99
                scale = math.exp(fit.log_c_hat)
                for s in samples:
                    if lo <= s.t <= hi:
                        sup = getattr(s, f"sup_{comp}")
                        passed &= sup / (scale * (1.0 - s.t) ** -fit.n_hat) < 1.05
        return passed


class Pairing:
    name = "pairing"
    block = len(PAIRING_J_MAX)  # every j_max once per block
    trace_items = len(PAIRING_J_MAX)
    warmup_items = 1

    @staticmethod
    def make(seed: int, i: int, tag: int = ITEM) -> dict:
        if tag == WARMUP:
            j_max = PAIRING_J_MAX[0]
        else:
            block, pos = divmod(i, len(PAIRING_J_MAX))
            order = np.random.default_rng([seed, BLOCK, block]).permutation(len(PAIRING_J_MAX))
            j_max = PAIRING_J_MAX[order[pos]]
        rng = np.random.default_rng([seed, tag, i])
        im_s = float(rng.uniform(-1.0, 1.0))
        coeffs = rng.uniform(0.25, 1.0, 2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        return {"j_max": int(j_max), "im_s": im_s, "c_plus": complex(coeffs[0]), "c_minus": complex(coeffs[1])}

    @staticmethod
    def run(cl, inp: dict) -> bool:
        ps = cl.prinseries
        v = ps.ModeVector({0: 1.0, 2: inp["c_plus"], -2: inp["c_minus"]})
        p = ps.unitary_params(inp["im_s"])
        t_grid = [1.0 - 2.0**-j for j in range(4, inp["j_max"] + 1)]
        rep = ps.boundary_pairing(v, ps.smooth_test_vector(), p, t_grid, 1024)
        ratios = [b / a for a, b in zip(rep.diffs, rep.diffs[1:])]
        passed = rep.decreasing and all(0.4 < r < 0.6 for r in ratios[2:])
        fit = ps.growth_exponent(v, p, PAIRING_FIT_GRID, 512)
        return passed and math.isfinite(fit.n_hat) and fit.r_squared > 0.99


class Corpus:
    name = "corpus"
    block = 1
    trace_items = 700
    warmup_items = 17

    @staticmethod
    def make(seed: int, i: int, tag: int = ITEM) -> dict:
        """One domain element per n = 2, 3, 4."""
        rng = np.random.default_rng([seed, tag, i])
        elements = []
        for n in CORPUS_N:
            d = rng.standard_normal(n)
            d *= 0.5 * math.pi / (d.max() - d.min())
            d -= d.mean()  # after scaling, which would magnify the centring residue
            k = _haar(rng, n)
            t = 1.0 - 2.0 ** -rng.uniform(1.0, 30.0)
            elements.append({"d": d, "k": k, "t": t})
        return {"elements": elements}

    @staticmethod
    def run(cl, inp: dict) -> bool:
        return all([Corpus._element(cl, **e) for e in inp["elements"]])

    @staticmethod
    def _element(cl, d: np.ndarray, k: np.ndarray, t: float) -> bool:
        x = cl.liegroup.PElement(np.diag(d))
        g = cl.numkernel.group_exp(x.matrix, -1j * t) @ k
        inside, _ = cl.iwasawa.domain_test(g)
        scales = cl.growth.component_scales(g)
        factors = cl.iwasawa.decompose_path(x, k, t)
        residual = np.linalg.norm(factors.reconstruct() - g) / np.linalg.norm(g)
        minors = cl.numkernel.principal_minors(g.T @ g)
        identity_gap = max(
            abs(cl.weights.alpha_pow(cl.weights.fundamental_profile(k, rep), d, 1j * t) - minors[rep - 1])
            / abs(minors[rep - 1])
            for rep in range(1, len(d))
        )
        sv = np.linalg.svd(g, compute_uv=False)
        ratio = sv[0] / sv[-1]
        smax_gap = abs(cl.liegroup.s_max(g) - ratio) / ratio
        return bool(
            inside and scales.ok and residual < 1e-8 and identity_gap < 1e-9 and smax_gap < 1e-8
        )


WORKLOADS = {w.name: w for w in (Sweep, Pairing, Corpus)}
