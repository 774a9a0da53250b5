import numpy as np
import pytest

from covgraphs import linalg
from covgraphs.errors import DimensionMismatch, NegativeSpectrum, NotHermitian

from genutil import partial_trace, psd_factor, reference_canonical_eigh

rng = np.random.default_rng(101)


def rand_c(rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSupportProjection:
    def test_diagonal(self):
        p, _ = linalg.support_projection(np.diag([0.0, 2.0, 3.0]))
        assert np.allclose(p, np.diag([0.0, 1.0, 1.0]))

    def test_zero_matrix(self):
        p, _ = linalg.support_projection(np.zeros((4, 4)))
        assert np.allclose(p, 0)

    def test_rank_one_projector_is_own_support(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        m = np.outer(v, v)
        assert np.allclose(linalg.support_projection(m)[0], m)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            linalg.support_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_spectrum_raises(self):
        with pytest.raises(NegativeSpectrum):
            linalg.support_projection(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("kind, m, text", [
        (NotHermitian, [[0.0, 1.0], [0.0, 0.0]], "support_projection: defect 1.414e+00"),
        (NegativeSpectrum, [[1.0, 0.0], [0.0, -1.0]], "support_projection: min eigenvalue -1.000e+00"),
        (NegativeSpectrum, [[-2.0]], "support_projection: min eigenvalue -2.000e+00"),
    ])
    def test_matrix_error_names_no_member(self, kind, m, text):
        """A matrix is cut as a one-member stack, but its error reads as the
        matrix's own: no member prefix, and member None."""
        with pytest.raises(kind) as info:
            linalg.support_projection(np.array(m))
        assert str(info.value) == text
        assert info.value.member is None

    def test_commutes_and_reproduces(self):
        for _ in range(20):
            d = int(rng.integers(2, 17))
            a = rand_c(d, d)
            m = a @ a.conj().T
            p, _ = linalg.support_projection(m)
            assert np.linalg.norm(p @ m - m @ p) < 1e-9 * np.linalg.norm(m)
            assert np.linalg.norm(p @ m @ p - m) < 1e-9 * np.linalg.norm(m)

    def test_minimality(self):
        # Any projection Q from a larger eigenvector set with Q m = m
        # dominates the support: Q P = P.
        for _ in range(10):
            d = 6
            a = rand_c(d, 3)
            m = a @ a.conj().T
            p, _ = linalg.support_projection(m)
            w, v = linalg.canonical_eigh(m)
            keep = v[:, w > 1e-12 * w[0]]
            extra = rand_c(d, 1)
            extra = extra - keep @ (keep.conj().T @ extra)
            extra = extra / np.linalg.norm(extra)
            big = np.column_stack([keep, extra])
            q = big @ big.conj().T
            assert np.linalg.norm(q @ m - m) < 1e-9
            assert np.linalg.norm(q @ p - p) < 1e-9


class TestOrthonormalSpan:
    def test_spanning_set(self):
        p = linalg.orthonormal_span([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert np.allclose(p, np.eye(2))

    def test_empty(self):
        assert np.allclose(linalg.orthonormal_span([], dim=3), 0)

    def test_collinear(self):
        p = linalg.orthonormal_span([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.orthonormal_span([np.ones(2), np.ones(3)])


class TestPartialTrace:
    def test_factorized(self):
        a, b = rand_c(2, 2), rand_c(3, 3)
        m = np.kron(a, b)
        out = partial_trace(m, [2, 3], keep=[0])
        assert np.allclose(out, np.trace(b) * a)

    def test_keep_all(self):
        m = rand_c(6, 6)
        assert np.allclose(partial_trace(m, [2, 3], keep=[0, 1]), m)

    def test_maximally_entangled_marginal(self):
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0
        m = np.outer(omega, omega.conj())
        out = partial_trace(m, [2, 2], keep=[0])
        assert np.allclose(out, np.eye(2))

    def test_composition(self):
        m = rand_c(12, 12)
        once = partial_trace(m, [2, 3, 2], keep=[0, 2])
        twice = partial_trace(once, [2, 2], keep=[1])
        direct = partial_trace(m, [2, 3, 2], keep=[2])
        assert np.allclose(twice, direct)

    def test_full_trace_with_unit_weights(self):
        m = rand_c(6, 6)
        out = partial_trace(m, [2, 3], keep=[])
        assert np.allclose(out[0, 0], np.trace(m))

    def test_weights(self):
        a, b = rand_c(2, 2), rand_c(3, 3)
        m = np.kron(a, b)
        out = partial_trace(m, [2, 3], keep=[0], weights=[2.5])
        assert np.allclose(out, 2.5 * np.trace(b) * a)


class TestVec:
    def test_vec_identity(self):
        assert np.allclose(linalg.vec(np.eye(2)), [1, 0, 0, 1])

    def test_roundtrip(self):
        m = rand_c(3, 4)
        assert np.allclose(linalg.unvec(linalg.vec(m), 3, 4), m)

    def test_kron_identity(self):
        # vec(A X B) = (B^T ⊗ A) vec(X): the convention's defining test.
        for _ in range(10):
            a, x, b = rand_c(2, 2), rand_c(2, 2), rand_c(2, 2)
            lhs = linalg.vec(a @ x @ b)
            rhs = np.kron(b.T, a) @ linalg.vec(x)
            assert np.allclose(lhs, rhs)


class TestPsdFactor:
    def test_diagonal(self):
        r = psd_factor(np.diag([4.0, 0.0]))
        assert r.shape == (1, 2)
        assert np.allclose(r.conj().T @ r, np.diag([4.0, 0.0]))

    def test_projection_factor_isometric(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        p = np.outer(v, v)
        r = psd_factor(p)
        assert np.allclose(r.conj().T @ r, p)
        assert np.allclose(r @ r.conj().T, np.eye(1))

    def test_reconstruction(self):
        for _ in range(20):
            a = rand_c(4, 4)
            m = a @ a.conj().T
            r = psd_factor(m)
            assert np.linalg.norm(r.conj().T @ r - m) < 1e-9 * np.linalg.norm(m)

    def test_negative_raises(self):
        with pytest.raises(NegativeSpectrum):
            psd_factor(np.diag([1.0, -2.0]))


def test_adjoint_image_involutive():
    for _ in range(10):
        d, e = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rand_c(d, e)
        p = np.outer(linalg.vec(a), linalg.vec(a).conj())
        q = linalg.adjoint_image(p, d, e)
        expected = np.outer(linalg.vec(a.conj().T), linalg.vec(a.conj().T).conj())
        assert np.allclose(q, expected)
        assert np.allclose(linalg.adjoint_image(q, e, d), p)


class TestCanonicalEigh:
    def assert_bitwise(self, m):
        w, v = linalg.canonical_eigh(m)
        w_ref, v_ref = reference_canonical_eigh(m)
        assert np.array_equal(w, w_ref)
        assert v.tobytes() == v_ref.tobytes()

    def test_random(self):
        for n in (1, 2, 5, 17, 40):
            a = rand_c(n, n)
            self.assert_bitwise(a @ a.conj().T)
            self.assert_bitwise(a + a.conj().T)

    def test_degenerate(self):
        self.assert_bitwise(np.zeros((0, 0)))
        for n in (3, 8, 30):
            a = rand_c(n, 2)
            self.assert_bitwise(a @ a.conj().T)
            self.assert_bitwise(np.eye(n))
            self.assert_bitwise(np.zeros((n, n)))
            # real eigenvectors with leading zeros
            self.assert_bitwise(np.diag(np.arange(n, dtype=float)[::-1]))

    def test_zero_and_tiny_columns(self, monkeypatch):
        # Columns with no entry above 1e-12 keep phase 1; the first entry
        # above it sets the phase even when smaller ones come before it.
        n = 6
        v = rand_c(n, n)
        v[:, 1] = 0.0
        v[:, 3] = 1e-13 * rand_c(n, 1)[:, 0]
        v[:2, 4] = 1e-14
        v[0, 5] = -0.0 - 0.0j
        w = np.arange(n, dtype=float)
        # The kernel runs a matrix as a one-member stack: eigh answers in
        # the shape it is asked.
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (
            np.broadcast_to(w, m.shape[:-1]).copy(), np.broadcast_to(v, m.shape).copy()))
        self.assert_bitwise(np.zeros((n, n)))


def test_as_complex_of_no_members_is_an_empty_stack():
    got = linalg.as_complex([], (2, 2))
    assert got.shape == (0, 2, 2) and got.dtype == complex


def test_spectral_cut_one_rule_for_every_size():
    """Every member keeps its eigenpairs above TOL_SPEC times its top
    eigenvalue, and every live member has eigenvectors: a 1x1 member c
    has (Re c, [[1]]), so it keeps [[1]] iff Re c > 0, whatever its
    imaginary part."""
    real = np.concatenate([10.0 ** -np.arange(14), [0.0, -1e-12]])
    c = (real + 1e-2j * (np.arange(real.size) % 2)).reshape(-1, 1, 1)
    cut = linalg.spectral_cut(np.concatenate([c, np.zeros((2, 1, 1))]))
    assert np.array_equal(cut.live, np.flatnonzero(np.abs(c[:, 0, 0])))
    assert all(v.tobytes() == np.ones((1, 1), complex).tobytes() for v in cut.v)
    w = c[cut.live, 0, 0].real
    assert np.array_equal(cut.w[:, 0], w)
    assert np.array_equal(cut.rank, (w > linalg.TOL_SPEC * w).astype(int))
    a = rand_c(3, 2)
    st = np.array([a @ a.conj().T, np.diag([1.0, 1e-10, 0.0]), np.eye(3)])
    cut = linalg.spectral_cut(st)
    for s, m in enumerate(st):
        w, v = linalg.canonical_eigh(m)
        assert np.array_equal(cut.w[s], w) and np.array_equal(cut.v[s], v), s
        assert cut.rank[s] == np.sum(w > linalg.TOL_SPEC * w[0]), s


class TestFrobs:
    def test_equal_to_frob_per_block_in_input_order(self):
        shapes = [(1, 1), (2, 2), (4, 4), (1, 1), (2, 2), (2, 3), (6, 6), (4, 4)]
        mats = [rand_c(*shape) for shape in shapes] + [rng.standard_normal((3, 3))]
        for shape in dict.fromkeys(m.shape for m in mats):
            stack = np.stack([m for m in mats if m.shape == shape])
            assert np.array_equal(linalg.frobs(stack), [linalg.frob(m) for m in stack]), shape
        stack = np.stack([rand_c(3, 3) for _ in range(5)])
        assert np.array_equal(linalg.frobs(stack), [linalg.frob(m) for m in stack])

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 1, 1), (0, 3, 0)])
    def test_empty_stack(self, shape):
        got = linalg.frobs(np.zeros(shape, dtype=complex))
        assert got.shape == (0,)

    @pytest.mark.parametrize("entries", [
        [0.0, -0.0, 0j, complex(0.0, -0.0)],
        [-1.5, complex(-2.0, 3.0), complex(0.5, -0.25), -1e-3j],
        [5e-324, -5e-324, complex(1e-310, -2e-310), complex(-3e-308, 1e-320), 1e-160],
        [1e200, -1e200, complex(1e200, 1e200), complex(0.0, -1e200), 1e154, 1.8e308],
    ])
    def test_one_by_one_stacks_equal_frob_per_member(self, entries):
        """(k, 1, 1) stacks are taken elementwise: zeros, negative and
        subnormal parts and squares that overflow to inf, complex and real."""
        cplx = np.array(entries, dtype=complex).reshape(-1, 1, 1)
        with np.errstate(over="ignore"):
            for stack in (cplx, cplx.real.copy()):
                got = linalg.frobs(stack)
                assert np.array_equal(got, [linalg.frob(m) for m in stack])
            assert np.isinf(linalg.frobs(cplx)).any() == (np.abs(cplx).max() >= 1e200)

    def test_projection_defects(self):
        p = linalg.orthonormal_span([rand_c(4, 1) for _ in range(2)])
        bad = p + 1e-3 * rand_c(4, 4)
        got = linalg.projection_defects(np.stack([p, bad]))
        assert got[0] < 1e-12
        assert got[1] == max(linalg.frob(bad - bad.conj().T), linalg.frob(bad @ bad - bad))
