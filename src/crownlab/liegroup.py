"""Structure data for sl(n,R): the crown radius rho (x lies in the crown
parameter set when rho(x) < pi/2), boundary normalization, Givens rotations
(``givens``, the one builder of plane rotations) and Haar sampling on SO(n),
and the maximal scale function on matrix groups.

Conventions: the Cartan subspace a is the traceless diagonal matrices, the
restricted roots are eps_i - eps_j on a-coordinates, and the K-invariant
norm on p is rho(x) = lambda_max(x) - lambda_min(x), the spectral radius of
ad(x) for symmetric x.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .errors import SingularInputError
from .numkernel import as_square, check_real, check_symmetric, singular_values, sym_eig


class PElement:
    """A point of p: real symmetric traceless matrix with cached eigenvalues."""

    def __init__(self, matrix):
        m = as_square(matrix)
        check_real(m)
        check_symmetric(m)
        m = 0.5 * (m.real + m.real.T)
        scale = max(1.0, float(np.abs(m).max()))
        tr = float(m.trace())
        if abs(tr) > config.TOLERANCES.symmetry * scale * m.shape[0]:
            raise ValueError(f"matrix is not traceless: trace={tr:.3e}")
        self.matrix = m
        self.matrix.flags.writeable = False
        self.eigenvalues = sym_eig(m)
        self.n = m.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PElement(n={self.n}, rho={rho(self):.6g})"


def rho(x: PElement) -> float:
    """Spectral radius of ad(x) for symmetric x: the eigenvalue spread.

    ad-eigenvalues of a symmetric matrix are the differences lambda_i -
    lambda_j, so r_spec(ad(x)) = lambda_max - lambda_min.
    """
    w = x.eigenvalues
    return float(w[-1] - w[0])


def boundary_direction(x_raw: PElement) -> PElement:
    """Rescale a nonzero direction onto the crown boundary rho = pi/2."""
    r = rho(x_raw)
    if r == 0.0:
        raise ValueError("cannot normalize the zero direction onto the boundary")
    return PElement((0.5 * np.pi / r) * x_raw.matrix)


def givens(n: int, i, j, angle) -> np.ndarray:
    """Givens rotations of R^n: [[c, -s], [s, c]] in the plane (i, j), with
    c = cos(angle) and s = sin(angle), and the identity elsewhere.

    The axes i and j must be distinct and lie in 0..n-1.  i, j and angle
    broadcast against each other to a batch shape B, and the result is the
    stack (*B, n, n); scalar arguments give one matrix (n, n), the m = 1
    case.  The trig is one ``math.cos`` and one ``math.sin`` per entry of
    angle, before broadcasting.
    """
    i, j = np.asarray(i)[..., np.newaxis], np.asarray(j)[..., np.newaxis]
    if np.any(i == j):
        raise ValueError("a Givens plane needs two distinct axes")
    if np.any((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)):
        raise ValueError(f"Givens axes must lie in 0..{n - 1}")
    angle = np.asarray(angle, dtype=float)
    vals = np.array([(c, c, -s, s) for c, s in ((math.cos(a), math.sin(a)) for a in angle.flat)])
    shape = np.broadcast_shapes(i.shape[:-1], j.shape[:-1], angle.shape)
    rot = np.empty(shape + (n, n))
    rot[...] = np.eye(n)
    # flat offsets of the (i, i), (j, j), (i, j) and (j, i) entries of a matrix
    offsets = np.array([n + 1, 0, n, 1]) * i + np.array([0, n + 1, 1, n]) * j
    cells = n * n * np.arange(rot.size // (n * n)).reshape(shape + (1,))
    rot.reshape(-1)[cells + offsets] = vals.reshape(angle.shape + (4,))
    return rot


def haar_so(n: int, seed, m: int | None = None) -> np.ndarray:
    """Haar-distributed elements of SO(n), deterministic under the seed.

    One Gaussian draw of shape (m, n, n) from ``default_rng(seed)``, one
    stacked QR, the sign convention making each diag(R) positive (which
    makes the distribution exactly Haar on O(n); Mezzadri, Notices AMS 54,
    2007), then each determinant fixed to +1 by flipping the last column.
    Returns the stack (m, n, n), or one matrix (n, n) when m is None, the
    m = 1 case.  The normal stream is filled row by row, so the first m'
    rows of the m block equal the m' block bit for bit.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((1 if m is None else m, n, n)))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q = q * signs[:, np.newaxis, :]
    flip = np.linalg.det(q) < 0.0
    q[flip, :, -1] = -q[flip, :, -1]
    return q[0] if m is None else q


def s_max(g) -> float:
    """Maximal scale of g in GL(n,C): the extreme singular-value ratio.

    For the Cartan decomposition g = u exp(iX) (u unitary, X hermitian) the
    spread of the eigenvalues of the positive polar log is
    log(sigma_max/sigma_min), so this ratio equals e^{rho(iX)} with the
    rho-norm; diagonal cases pin the identification (see tests).
    """
    sv = singular_values(g)
    if sv[0] == 0.0 or sv[-1] <= config.TOLERANCES.sv_floor_rel * sv[0]:
        raise SingularInputError(
            f"matrix is singular within tolerance (sigma_min={sv[-1]:.3e})"
        )
    return float(sv[0] / sv[-1])


def random_sl(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of SL(n,R): Gaussian matrix normalized to det +1."""
    while True:
        m = rng.standard_normal((n, n))
        d = np.linalg.det(m)
        if abs(d) > 1e-8:
            break
    if d < 0.0:
        m[:, 0] = -m[:, 0]
        d = -d
    return m / d ** (1.0 / n)


def random_p_element(n: int, rng: np.random.Generator) -> PElement:
    """Random symmetric traceless direction (Gaussian ensemble)."""
    a = rng.standard_normal((n, n))
    s = 0.5 * (a + a.T)
    s -= np.trace(s) / n * np.eye(n)
    return PElement(s)
