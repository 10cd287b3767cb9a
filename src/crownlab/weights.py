"""Highest-restricted-weight expansions through exterior powers of the
standard representation of SL(n).

The k-th fundamental representation is Lambda^k C^n with highest weight
omega_k = eps_1 + ... + eps_k; rotating the highest-weight vector by
k_rot in SO(n) spreads it over the weight spaces indexed by k-element
subsets I, with squared component norms equal to squared Plucker minors
det(k_rot[I, :k])^2.  Everything downstream (the holomorphic alpha-power,
the cosine formula and the boundary Taylor coefficients) is a finite sum
over these profiles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import as_square, check_real


@dataclass
class WeightProfile:
    """Weights mu_I (rows, in a-coordinates) and squared norms ||v_mu(k)||^2."""

    rep_index: int
    weights: np.ndarray
    norms_sq: np.ndarray

    def pairings(self, h) -> np.ndarray:
        """mu(h) for every weight, h given as a diagonal a-vector."""
        hv = np.asarray(h, dtype=float).ravel()
        if hv.size != self.weights.shape[1]:
            raise ValueError(f"h has length {hv.size}, expected {self.weights.shape[1]}")
        return self.weights @ hv


@functools.cache
def _subsets(n: int, rep_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and 0/1 weight rows of the rep_index-subsets of 0..n-1,
    lexicographic and read-only; fewer than n^2 keys exist up to size n."""
    rows = np.array(list(itertools.combinations(range(n), rep_index)))
    weights = np.zeros((len(rows), n))
    np.put_along_axis(weights, rows, 1.0, axis=1)
    rows.flags.writeable = weights.flags.writeable = False
    return rows, weights


def fundamental_profile(k_rot, rep_index: int) -> WeightProfile:
    """Weight profile of the rotated highest-weight vector of Lambda^rep_index.

    Subsets are enumerated in lexicographic order; norms_sq[I] is the squared
    minor of rows I against the first rep_index columns of the rotation.
    """
    K = as_square(k_rot)
    check_real(K)
    n = K.shape[0]
    if not 1 <= rep_index <= n - 1:
        raise ValueError(f"rep_index must lie in 1..{n - 1}, got {rep_index}")
    rows, weights = _subsets(n, rep_index)
    norms = np.linalg.det(K.real[:, :rep_index][rows]) ** 2
    return WeightProfile(rep_index=rep_index, weights=weights.copy(), norms_sq=norms)


def alpha_pow(profile: WeightProfile, h, z: complex) -> complex:
    """The holomorphic alpha^{2*lambda} along the path: sum of
    exp(-2 z mu(h)) * ||v_mu||^2 over the profile; z = i*t is imaginary time."""
    mu = profile.pairings(h)
    return complex((profile.norms_sq * np.exp(-2.0 * complex(z) * mu)).sum())


def cos_formula(profile: WeightProfile, h, t: float) -> float:
    """|alpha(exp(-i t h) k)^{2 lambda}|^2 as the double cosine sum.

    Equals |alpha_pow(profile, h, i t)|^2; stays within [0, 1] and is
    strictly positive for |t| < 1 on boundary directions.
    """
    mu = profile.pairings(h)
    d = mu[:, np.newaxis] - mu[np.newaxis, :]
    w = profile.norms_sq
    return float(w @ np.cos(2.0 * t * d) @ w)


def taylor_coeffs(profile: WeightProfile, h, order: int) -> np.ndarray:
    """Coefficients a_0..a_order of f_{h,k}(t) = sum a_m (1-t)^m around t = 1.

    Differentiating the cosine sum at t = 1 gives, for m = 2r and 2r + 1,

        a_{2r}   = (-1)^r 2^{2r}  /(2r)!   sum cos(2 d) d^{2r}   w w
        a_{2r+1} = (-1)^r 2^{2r+1}/(2r+1)! sum sin(2 d) d^{2r+1} w w

    with d = (mu - nu)(h); the bound |a_m| <= (2 C_max)^m / m! holds with
    C_max = max |d|.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    mu = profile.pairings(h)
    d = mu[:, np.newaxis] - mu[np.newaxis, :]
    w2 = np.outer(profile.norms_sq, profile.norms_sq)
    cos_part = np.cos(2.0 * d) * w2
    sin_part = np.sin(2.0 * d) * w2
    coeffs = np.zeros(order + 1)
    for m in range(order + 1):
        r, odd = divmod(m, 2)
        base = sin_part if odd else cos_part
        total = float(np.sum(base * d**m))
        coeffs[m] = (-1.0) ** r * 2.0**m / math.factorial(m) * total
    return coeffs

