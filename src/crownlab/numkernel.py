"""Dense complex linear-algebra kernels for small matrices (n <= ~8).

One batched kernel per quantity, each over stacks shaped (..., n, n):
leading principal minors by LAPACK determinants of the leading blocks,
symmetric (bilinear, not hermitian) LDL^T without pivoting so the diagonal
matches leading-minor ratios exactly, inverses of unit upper-triangular
matrices by back substitution, hermitian eigensystems by LAPACK ``eigh``
and singular values by LAPACK ``svd``.  The single-matrix entries below
check their input and are the m = 1 call of these kernels.  Every crown
point exp(z x) k is ``group_exp_batch`` times k, from one eigensystem of
x per path or sweep, and every bilinear Gram matrix g^T g is ``gram``.

The decision when a leading minor counts as zero has its one home here:
``minor_floor`` is the floor of a matrix of a given Frobenius norm, read
from ``config.TOLERANCES`` at call time, and ``minors_outside_floor``
applies it to a stack of matrices.  ``gram_minors`` feeds that pointwise
rule from g itself, with one Gram and magnitude arithmetic for the domain
test, the path continuation and the component scales; the SL(2) bench
passes its closed-form Gram norm to ``minor_floor``.

Per-call paths (the m = 1 case) reduce by array methods, ``x.max()`` and
not ``np.max(x)``: on 2x2 to 8x8 arrays numpy's wrappers cost more than the
ufunc reduce both run, bit for bit.  Each formula is written once, here:
``frobenius_norm`` is the sum ``np.linalg.norm`` runs.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from . import config
from .errors import NearSingularMinorError, SymmetryError


def as_square(a) -> np.ndarray:
    """Coerce to a finite, nonempty square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _check_gap(kind: str, deviation: np.ndarray, s: np.ndarray) -> None:
    """Reject s when max |deviation| exceeds the symmetry tolerance, relative
    to max(1, max |s|)."""
    gap = float(np.abs(deviation).max())
    if gap > config.TOLERANCES.symmetry * max(1.0, float(np.abs(s).max())):
        raise SymmetryError(kind, gap)


def check_symmetric(s: np.ndarray) -> None:
    _check_gap("symmetric", s - s.T, s)


def check_hermitian(s: np.ndarray) -> None:
    _check_gap("hermitian", s - s.conj().T, s)


def check_finite(z, what: str) -> None:
    """Reject a non-finite real or complex scalar z, named by ``what``."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")


def check_real(s: np.ndarray) -> None:
    _check_gap("real", s.imag, s)


def minor_floor(norm):
    """The leading-minor floor minor_floor_rel * max(1, norm) of a matrix S
    with ||S||_F = ``norm`` (a float or an array of them)."""
    return config.TOLERANCES.minor_floor_rel * np.maximum(1.0, norm)


def minors_outside_floor(s: np.ndarray, minor_abs) -> tuple[np.ndarray, np.ndarray]:
    """The pointwise floor test of a stack of matrices S (..., n, n).

    ``minor_abs`` holds the magnitudes |Delta_k| of their leading minors
    (..., n).  A minor at or below its matrix's ``minor_floor`` (or NaN)
    counts as zero, which puts that matrix outside the complexified Iwasawa
    domain.  Returns the per-minor ``outside`` flags (..., n) and the
    floors (...).
    """
    floor = minor_floor(frobenius_norm(s))
    return ~(np.asarray(minor_abs) > floor[..., None]), floor


def frobenius_norm(s: np.ndarray) -> np.ndarray:
    """||S||_F over the last two axes, as ``np.linalg.norm`` sums it."""
    return np.sqrt(np.add.reduce((s.conj() * s).real, axis=(-2, -1)))


def leading_minors_batch(s: np.ndarray) -> np.ndarray:
    """Leading principal minors of a stack of matrices (..., n, n) -> (..., n).

    One batched LAPACK determinant per block size k = 2..n.  Delta_1 is the
    corner entry itself: LAPACK's determinant passes through exp(log|det|),
    which would round it.
    """
    n = s.shape[-1]
    out = np.empty(s.shape[:-1], dtype=np.result_type(s.dtype, 1.0))
    out[..., 0] = s[..., 0, 0]
    for k in range(2, n + 1):
        out[..., k - 1] = np.linalg.det(s[..., :k, :k])
    return out


def sym_ldl_batch(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot-free LDL^T of complex symmetric matrices (..., n, n).

    Returns (unit, diag) with S = unit^T diag(diag) unit and unit unit
    upper-triangular.  No floor test: a zero pivot makes that matrix's
    later entries non-finite, so callers test the running minors (the
    cumulative products of diag) or mask such rows beforehand.
    """
    n = s.shape[-1]
    work = np.array(s, dtype=complex)
    unit = np.zeros_like(work)
    for k in range(n - 1):
        d = work[..., k, k, None]
        row = work[..., k, k + 1 :] / d
        unit[..., k, k + 1 :] = row
        work[..., k + 1 :, k + 1 :] -= d[..., None] * row[..., :, None] * row[..., None, :]
    unit += np.eye(n)
    # elimination never revisits a pivot, so the final diagonal holds them all
    return unit, work.diagonal(0, -2, -1).copy()


def inv_unit_upper(u: np.ndarray) -> np.ndarray:
    """Inverses of unit upper-triangular matrices (..., n, n) by back substitution.

    Row i of the inverse is e_i - u[i, i+1:] @ inv[i+1:, :], filled from the
    bottom row up.
    """
    n = u.shape[-1]
    inv = np.zeros(u.shape, dtype=complex)
    for i in range(n - 1, -1, -1):
        inv[..., i, None, i + 1 :] = -u[..., i, None, i + 1 :] @ inv[..., i + 1 :, i + 1 :]
        inv[..., i, i] = 1.0
    return inv


def _checked_hermitian_part(x) -> np.ndarray:
    """(x + x^H) / 2 of a checked hermitian x, real when x is, so a real
    symmetric x keeps a real eigenbasis; the check reads the real array."""
    X = as_square(x)
    if not X.imag.any():
        X = X.real
    check_hermitian(X)
    return 0.5 * (X + X.T.conj())


def gram(g: np.ndarray) -> np.ndarray:
    """Bilinear Gram matrices S = g^T g of a stack (..., n, n) by one ``einsum``,
    which sums S[i, k] and S[k, i] alike: S == S^T bit for bit (BLAS g.T @ g need not)."""
    return np.einsum("...ji,...jk->...ik", g, g)


def gram_minors(g: np.ndarray, minors_of) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The domain test's one arithmetic for g, a stack (m, n, n) or one matrix.

    Forms the bilinear Gram matrices S = g^T g by ``gram``, their
    leading minors by ``minors_of``, the magnitudes |Delta_k| by ``np.abs``
    and the ``minors_outside_floor`` flags, so every caller deciding domain
    membership sees the same bits for the same g.  ``minors_of`` is
    ``leading_minors_batch`` for a stack or, for one matrix (the m = 1
    case), the checked entry ``principal_minors``, which runs the same
    determinants.  Returns (S, minors, magnitudes, outside).
    """
    s = gram(g)
    minors = np.asarray(minors_of(s))
    magnitudes = np.abs(minors)
    outside, _ = minors_outside_floor(s, magnitudes)
    return s, minors, magnitudes, outside


def principal_minors(s) -> list[complex]:
    """All leading principal minors Delta_1, ..., Delta_n of a complex symmetric S."""
    S = as_square(s)
    check_symmetric(S)
    return leading_minors_batch(S).tolist()


def sym_ldl(s) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric S as N^T diag(D) N, N unit upper-triangular.

    Gaussian elimination without pivoting: pivoting is forbidden because the
    pivots must equal the leading-minor ratios Delta_k / Delta_{k-1} exactly.
    Raises NearSingularMinorError at the first running minor (product of the
    pivots so far) at or below the floor of ``minors_outside_floor``.
    """
    S = as_square(s)
    check_symmetric(S)
    unit, diag = sym_ldl_batch(S)
    running = [abs(m) for m in itertools.accumulate(diag.tolist(), operator.mul)]
    outside, floor = minors_outside_floor(S, running)
    if outside.any():
        k = int(np.argmax(outside))
        raise NearSingularMinorError(index=k + 1, magnitude=running[k], floor=float(floor))
    return unit, diag


def sym_eig(x) -> np.ndarray:
    """Eigenvalues of a real symmetric or hermitian matrix, ascending."""
    return np.linalg.eigvalsh(_checked_hermitian_part(x))


def hermitian_eigensystem(x) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary V with x = V diag(w) V^H.

    V is real orthogonal when x is real symmetric.
    """
    return np.linalg.eigh(_checked_hermitian_part(x))


def group_exp_batch(w: np.ndarray, q: np.ndarray, z) -> np.ndarray:
    """exp(z x) = Q diag(e^{z w}) Q^T from the eigensystem (w, q) of a real
    symmetric x, one matrix per entry of z (...,) -> (..., n, n).  Each equals
    the call at its scalar z bit for bit.  Unchecked: (w, q) is library-built."""
    z = np.asarray(z, dtype=complex)
    return (q * np.exp(z[..., np.newaxis] * w)[..., np.newaxis, :]) @ q.T


def group_exp(x, z: complex) -> np.ndarray:
    """exp(z*x) for real symmetric x: the checked m = 1 call of ``group_exp_batch``."""
    X = as_square(x)
    check_real(X)
    check_symmetric(X)
    w, q = np.linalg.eigh(0.5 * (X.real + X.real.T))
    return group_exp_batch(w, q, z)


def singular_values(g) -> np.ndarray:
    """Singular values of g, descending."""
    return np.linalg.svd(as_square(g), compute_uv=False)
