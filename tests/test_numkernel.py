import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownlab import config
from crownlab.errors import NearSingularMinorError, SymmetryError
from crownlab.growth import component_scales, component_scales_batch
from crownlab.iwasawa import decompose_real, domain_test
from crownlab.liegroup import PElement, s_max
from crownlab.numkernel import (
    frobenius_norm,
    gram,
    gram_minors,
    group_exp,
    group_exp_batch,
    hermitian_eigensystem,
    inv_unit_upper,
    leading_minors_batch,
    principal_minors,
    singular_values,
    sym_eig,
    sym_ldl,
    sym_ldl_batch,
)
from crownlab.weights import fundamental_profile

PROP_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def random_complex_symmetric(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.T


def subset_minors(s: np.ndarray) -> np.ndarray:
    """Oracle: leading principal minors by a division-free subset recursion.

    D[mask] holds the determinant of the block formed by the first
    popcount(mask) rows and the column set encoded by mask; expanding along
    the last row fills every mask once, and Delta_k is read off at the
    contiguous mask (1 << k) - 1.  No pivoting, no divisions.
    """
    n = s.shape[0]
    dets = np.zeros(1 << n, dtype=complex)
    dets[0] = 1.0
    for mask in range(1, 1 << n):
        r = bin(mask).count("1") - 1
        sign = -1.0 if r % 2 else 1.0
        acc = 0.0 + 0.0j
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                acc += sign * s[r, j] * dets[mask ^ bit]
                sign = -sign
        dets[mask] = acc
    return np.array([dets[(1 << k) - 1] for k in range(1, n + 1)])


def jacobi_eigensystem(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: cyclic Jacobi for a hermitian matrix, eigenvalues ascending.

    Satisfies x = V diag(w) V^H.  Each rotation phases the (p, q) entry real
    and applies the classical angle choice; off-diagonal mass converges
    quadratically, so a handful of sweeps suffices at these sizes.
    """
    a = np.array(x, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = float(np.linalg.norm(a))
    if n == 1 or scale == 0.0:
        return a.real.diagonal().copy(), v
    skip = 1e-18 * scale
    for _ in range(60):
        off = float(np.linalg.norm(a - np.diag(np.diagonal(a))))
        if off <= 3e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= skip:
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                phi = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - sn * np.conj(phi) * cq
                a[:, q] = sn * cp + c * np.conj(phi) * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * phi * rq
                a[q, :] = sn * rp + c * phi * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * np.conj(phi) * vq
                v[:, q] = sn * vp + c * np.conj(phi) * vq
    w = np.diagonal(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


class TestPrincipalMinors:
    def test_two_by_two(self):
        assert np.allclose(principal_minors([[2, 1], [1, 1]]), [2, 1])

    def test_identity(self):
        for n in (1, 3, 6):
            assert np.allclose(principal_minors(np.eye(n)), np.ones(n))

    def test_gram_of_shear(self):
        g = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(principal_minors(g.T @ g), [2, 1])

    def test_rejects_asymmetric_and_names_gap(self):
        with pytest.raises(SymmetryError) as err:
            principal_minors([[1, 2], [0, 1]])
        assert err.value.max_asymmetry == pytest.approx(2.0)

    @PROP_SETTINGS
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_matches_batched_determinant_route(self, seed, n):
        # the LAPACK route against the subset-recursion oracle, and the
        # single-matrix entry as row 0 of a stacked kernel call
        s = random_complex_symmetric(seed, n)
        ref = subset_minors(s)
        alt = np.array(principal_minors(s))
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(ref - alt) / scale) < 1e-10
        stack = np.stack([s, random_complex_symmetric(seed + 1, n)])
        assert np.array_equal(leading_minors_batch(stack)[0], alt)


class TestSymLdl:
    def test_shear_gram_matrix(self):
        unit, diag = sym_ldl([[2, 1], [1, 1]])
        assert np.allclose(unit, [[1, 0.5], [0, 1]])
        assert np.allclose(diag, [2, 0.5])

    def test_identity(self):
        unit, diag = sym_ldl(np.eye(4))
        assert np.allclose(unit, np.eye(4))
        assert np.allclose(diag, np.ones(4))

    def test_complex_one_step(self):
        unit, diag = sym_ldl([[1, 1j], [1j, 0]])
        assert np.allclose(unit, [[1, 1j], [0, 1]])
        assert np.allclose(diag, [1, 1])

    def test_near_singular_minor_error_payload(self):
        with pytest.raises(NearSingularMinorError) as err:
            sym_ldl([[1e-20, 1], [1, 1]])
        assert err.value.index == 1
        assert err.value.magnitude == pytest.approx(1e-20)
        assert "near-singular leading minor" in str(err.value)

    def test_error_names_first_small_running_minor(self):
        # Delta_1 = 2 is fine, Delta_2 = 2 * 1e-14 is below 1e-13 * ||S||_F
        with pytest.raises(NearSingularMinorError) as err:
            sym_ldl([[2.0, 1.0], [1.0, 0.5 + 1e-14]])
        assert err.value.index == 2
        assert err.value.magnitude == pytest.approx(2e-14, rel=1e-2, abs=0.0)
        assert err.value.floor == pytest.approx(2.5e-13, rel=1e-12, abs=0.0)

    def test_minor_at_the_floor_is_outside(self, monkeypatch):
        # ||S||_F = 1, so Delta_1 = 1e-13 sits exactly on the floor
        with pytest.raises(NearSingularMinorError) as err:
            sym_ldl(np.diag([1e-13, 1.0]))
        assert (err.value.index, err.value.magnitude, err.value.floor) == (1, 1e-13, 1e-13)
        # the stack route decides that boundary the same way; no double a has
        # a * a == 1e-13, so the Gram matrix here is diag(2^-44, 1), exact,
        # with the floor moved onto 2^-44
        raised = dataclasses.replace(config.TOLERANCES, minor_floor_rel=2.0**-44)
        monkeypatch.setattr(config, "TOLERANCES", raised)
        g = np.diag([2.0**-22, 1.0])
        assert not component_scales_batch(g[np.newaxis])["ok"][0]
        with pytest.raises(NearSingularMinorError) as err:
            sym_ldl(g.T @ g)
        assert (err.value.index, err.value.magnitude, err.value.floor) == (1, 2.0**-44, 2.0**-44)

    @PROP_SETTINGS
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_stack_rows_match_single_calls(self, seed, n):
        stack = np.stack([random_complex_symmetric(seed + i, n) for i in range(3)])
        unit, diag = sym_ldl_batch(stack)
        for i, s in enumerate(stack):
            u1, d1 = sym_ldl(s)
            assert np.array_equal(unit[i], u1) and np.array_equal(diag[i], d1)

    @PROP_SETTINGS
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_reconstruction_and_minor_ratios(self, seed, n):
        s = random_complex_symmetric(seed, n)
        try:
            unit, diag = sym_ldl(s)
        except NearSingularMinorError:
            return
        recon = unit.T @ np.diag(diag) @ unit
        assert np.linalg.norm(recon - s) <= 1e-11 * np.linalg.norm(s)
        minors = np.array(principal_minors(s))
        ratios = minors / np.concatenate(([1.0], minors[:-1]))
        assert np.max(np.abs(diag - ratios) / np.abs(ratios)) < 1e-11


class TestSymEig:
    def test_diagonal(self):
        assert np.allclose(sym_eig(np.diag([math.pi / 4, -math.pi / 4])), [-math.pi / 4, math.pi / 4])

    def test_swap_matrix(self):
        assert np.allclose(sym_eig([[0, 1], [1, 0]]), [-1, 1])

    def test_zero(self):
        assert np.allclose(sym_eig(np.zeros((5, 5))), np.zeros(5))

    def test_rejects_non_hermitian(self):
        with pytest.raises(SymmetryError):
            sym_eig([[0, 1], [2, 0]])

    @PROP_SETTINGS
    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_sum_matches_trace_and_lapack(self, seed, n):
        # the LAPACK route against the trace and the cyclic Jacobi oracle
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        w = sym_eig(h)
        scale = max(1.0, float(np.max(np.abs(w))))
        assert abs(w.sum() - np.trace(h).real) <= 1e-12 * max(1.0, abs(np.trace(h).real)) * n
        w_jac, v_jac = jacobi_eigensystem(h)
        assert np.max(np.abs(w - w_jac)) <= 1e-12 * scale
        assert np.linalg.norm(v_jac @ np.diag(w_jac) @ v_jac.conj().T - h) <= 1e-12 * scale * n

    def test_eigensystem_reconstructs(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a + a.conj().T
        w, v = hermitian_eigensystem(h)
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) < 1e-12 * np.linalg.norm(h)
        assert np.linalg.norm(v.conj().T @ v - np.eye(6)) < 1e-13

    def test_real_symmetric_input_has_real_eigenbasis(self, rng):
        # crown paths form Q diag Q^T with a plain transpose
        a = rng.standard_normal((4, 4))
        x = a + a.T
        for inp in (x, x.astype(complex)):
            w, q = hermitian_eigensystem(inp)
            assert not np.iscomplexobj(q)
            assert np.linalg.norm(q @ np.diag(w) @ q.T - x) < 1e-12 * np.linalg.norm(x)


class TestGroupExp:
    def test_zero_time_is_identity(self, rng):
        a = rng.standard_normal((4, 4))
        x = a + a.T
        assert np.allclose(group_exp(x, 0.0), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(group_exp(np.diag([1.0, -1.0]), math.log(2)), np.diag([2.0, 0.5]))

    def test_imaginary_time_is_unitary(self):
        x = np.diag([math.pi / 4, -math.pi / 4])
        u = group_exp(x, -1j)
        assert np.allclose(np.diagonal(u), [np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-14

    def test_determinant_one_for_traceless(self, rng):
        a = rng.standard_normal((5, 5))
        x = a + a.T
        x -= np.trace(x) / 5 * np.eye(5)
        assert abs(np.linalg.det(group_exp(x, 0.7 - 0.3j)) - 1.0) < 1e-11

    @PROP_SETTINGS
    @given(st.integers(0, 10**6))
    def test_one_parameter_group_law(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        x = 0.3 * (a + a.T)
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = group_exp(x, z1) @ group_exp(x, z2)
        rhs = group_exp(x, z1 + z2)
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)

    def test_rejects_unsymmetric(self):
        with pytest.raises(SymmetryError):
            group_exp([[0.0, 1.0], [0.0, 0.0]], 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stack_rows_equal_single_calls(self, n, rng):
        # path grids, sweep grids and single calls are rows of one formula
        a = rng.standard_normal((n, n))
        x = a + a.T
        w, q = hermitian_eigensystem(x)
        zs = rng.uniform(-2, 2, (3, 4)) + 1j * rng.uniform(-2, 2, (3, 4))
        stack = group_exp_batch(w, q, zs)
        assert stack.shape == (3, 4, n, n)
        for idx in np.ndindex(zs.shape):
            assert stack[idx].tobytes() == group_exp(x, zs[idx]).tobytes()
            assert stack[idx].tobytes() == group_exp_batch(w, q, zs[idx]).tobytes()


class TestGram:
    def test_exactly_symmetric(self, rng):
        g = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        s = gram(g)
        assert np.array_equal(s, np.swapaxes(s, -1, -2))
        assert np.allclose(s, np.swapaxes(g, -1, -2) @ g)
        assert gram(g[5]).tobytes() == s[5].tobytes()
        assert gram_minors(g, leading_minors_batch)[0].tobytes() == s.tobytes()


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), np.ones(3))

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([2.0, 0.5])), [2.0, 0.5])

    def test_shear_golden_ratio(self):
        phi = (1 + math.sqrt(5)) / 2
        sv = singular_values([[1, 1], [0, 1]])
        assert np.allclose(sv, [phi, 1 / phi], atol=1e-14)

    def test_unitary_has_unit_spectrum(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(a)
        assert np.max(np.abs(singular_values(q) - 1.0)) < 1e-12

    @PROP_SETTINGS
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_matches_gram_oracle_when_well_conditioned(self, seed, n):
        # square roots of the Jacobi eigenvalues of g^H g; the Gram route
        # loses relative accuracy like cond(g)^2, so draw near-unitary g
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        g = q @ np.diag(rng.uniform(0.5, 2.0, n))
        w, _ = jacobi_eigensystem(g.conj().T @ g)
        assert np.allclose(singular_values(g), np.sqrt(w)[::-1], rtol=1e-12, atol=0.0)


def test_inv_unit_upper(rng):
    u = np.broadcast_to(np.eye(5, dtype=complex), (3, 5, 5)).copy()
    rows, cols = np.triu_indices(5, 1)
    u[:, rows, cols] = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
    inv = inv_unit_upper(u)
    assert np.linalg.norm(u @ inv - np.eye(5)) < 1e-12
    assert np.array_equal(inv_unit_upper(u[1]), inv[1])


def test_frobenius_norm_is_the_linalg_norm_sum(rng):
    for shape in [(2, 2), (3, 3), (5, 4, 4), (2, 3, 2, 2)]:
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for stack in (s, s.real):
            want = np.linalg.norm(stack, axis=(-2, -1))
            assert np.asarray(frobenius_norm(stack)).tobytes() == np.asarray(want).tobytes()


# Every exported entry point that takes a matrix from outside the library,
# each called with that matrix as its only array input.
MATRIX_ENTRY_POINTS = {
    "PElement": PElement,
    "decompose_real": decompose_real,
    "domain_test": domain_test,
    "component_scales": component_scales,
    "s_max": s_max,
    "principal_minors": principal_minors,
    "sym_ldl": sym_ldl,
    "sym_eig": sym_eig,
    "singular_values": singular_values,
    "group_exp": lambda m: group_exp(m, 0.5),
    "fundamental_profile": lambda m: fundamental_profile(m, 1),
}
BAD_MATRICES = {
    "nan": np.array([[1.0, 0.0], [0.0, np.nan]]),
    "non-square": np.zeros((2, 3)),
    "3-D": np.broadcast_to(np.eye(2), (2, 2, 2)),
    "0x0": np.empty((0, 0)),
}


@pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_entry_points_reject_malformed_input(entry, bad):
    with pytest.raises(ValueError, match="square matrix|must be finite"):
        MATRIX_ENTRY_POINTS[entry](BAD_MATRICES[bad])
