"""Dense complex linear-algebra kernels.

Everything downstream identifies the operator space Hom(K, H) (maps K -> H,
i.e. dim(H) x dim(K) matrices) with the vector space C^{dim(H)*dim(K)} through
column-stacking vectorization.  This module is the single owner of that
convention:

    vec(X)[col*rows + row] = X[row, col]
    vec(A @ X @ B) = kron(B.T, A) @ vec(X)

so the slow (outer) index of vec(Hom(K, H)) is the K-side index and the fast
(inner) index is the H-side index.  All other modules go through vec/unvec and
the helpers below instead of reshaping by hand.

Every threshold of the library is one of the constants below.  A ``tol``
argument (default TOL_PROJ) exists only where the CLI --tol sets it.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NegativeSpectrum,
    NotHermitian,
)

TOL_SPEC = 1e-9  # relative spectral cut: eigen/singular values <= TOL_SPEC * top are 0
TOL_PROJ = 1e-8  # projection tolerance: containment, channel, covariance, reversibility
TOL_ROUNDOFF = 1e-12  # absolute round-off: phases, stochastic sums, orbit weights, action equality
TOL_ROUNDTRIP = 10 * TOL_PROJ  # gate on the relation defect of a round trip (1e-7)
VALIDATE_SLACK = 100  # validators and reverse_channel's marginal test accept slack * tol
FUNCTIONAL_SLACK = 10  # slack of is_channel's functional test over its marginal test
BLEND_FLOOR = 1e-3  # least blend eigenvalue realize_channel accepts while halving tau
SPAN_RATIO = 1e-2  # source-graph span cut relative to the projection tolerance
TINY_UNIT = 1e-300  # lower bound of the magnitude unit of the source-graph span floor


def as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix entries must be finite")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2; numerical hygiene before eigh."""
    return (m + m.conj().T) / 2


def is_hermitian(m: np.ndarray) -> bool:
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - m.conj().T)) <= TOL_SPEC * scale


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def frobs(mats) -> np.ndarray:
    """Frobenius norms of a sequence of matrices, or of a (k, m, n) stack, in
    input order: one stacked reduction per shape, bitwise equal to frob of each
    (per matrix, the same BLAS dot products of the real and imaginary parts)."""
    if isinstance(mats, np.ndarray):
        v = mats.reshape(len(mats), 1, -1)
        re, im = v.real, v.imag
        return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1))
    mats = list(mats)
    out = np.empty(len(mats))
    by_shape = {}
    for k, m in enumerate(mats):
        by_shape.setdefault(m.shape, []).append(k)
    for idx in by_shape.values():
        out[idx] = frobs(np.stack([mats[k] for k in idx]))
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def canonical_eigh(m: np.ndarray):
    """eigh with deterministic output: eigenvalues descending, each
    eigenvector's first component above TOL_ROUNDOFF in modulus made real positive
    (a column with no such component is left as it is)."""
    w, v = np.linalg.eigh(hermitize(m))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    if v.size == 0:
        return w, v
    big = np.abs(v) > TOL_ROUNDOFF
    first = np.argmax(big, axis=0)
    cols = np.flatnonzero(big[first, np.arange(v.shape[1])])
    lead = v[first[cols], cols]
    # hypot, not np.abs: it rounds like the scalar abs of one entry, so the
    # phases are bit-identical to fixing one column at a time.
    v[:, cols] /= lead / np.hypot(lead.real, lead.imag)
    return w, v


def support_projection(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of eigenvectors of a Hermitian PSD
    matrix with eigenvalue above TOL_SPEC * (max eigenvalue)."""
    m = as_complex(m)
    scale = frob(m)
    if scale == 0.0:
        return np.zeros_like(m)
    if not is_hermitian(m):
        raise NotHermitian(f"support_projection: defect {frob(m - m.conj().T):.3e}")
    if m.shape == (1, 1):
        val = m[0, 0].real
        if val < -TOL_SPEC * scale:
            raise NegativeSpectrum(f"support_projection: eigenvalue {val:.3e}")
        return np.array([[1.0 + 0j]]) if val > TOL_SPEC * scale else np.zeros((1, 1), complex)
    w, v = canonical_eigh(m)
    top = float(w[0])
    if float(w[-1]) < -TOL_SPEC * max(top, scale):
        raise NegativeSpectrum(f"support_projection: min eigenvalue {w[-1]:.3e}")
    if top <= 0.0:
        return np.zeros_like(m)
    keep = w > TOL_SPEC * top
    vk = v[:, keep]
    return vk @ vk.conj().T


def orthonormal_span(vectors, dim: int | None = None, tol: float = TOL_SPEC,
                     floor: float = 0.0) -> np.ndarray:
    """Projection onto the linear span of the given vectors.

    Rank is the numerical rank at threshold tol relative to the largest
    singular value; `floor` additionally discards singular values below an
    absolute scale (so that a family of pure-roundoff vectors spans nothing).
    An empty list yields the zero projection (dim required).
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        if dim is None:
            raise DimensionMismatch("empty span needs an explicit ambient dimension")
        return np.zeros((dim, dim), dtype=complex)
    n = vecs[0].size
    for v in vecs:
        if v.size != n:
            raise DimensionMismatch("span vectors must share one ambient dimension")
    if dim is not None and dim != n:
        raise DimensionMismatch(f"span vectors have dim {n}, expected {dim}")
    if n == 1:
        top = max(abs(v[0]) for v in vecs)
        hit = top > max(floor, 0.0) and top > 0.0
        return np.array([[1.0 + 0j]]) if hit else np.zeros((1, 1), dtype=complex)
    a = np.column_stack(vecs)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= floor:
        return np.zeros((n, n), dtype=complex)
    rank = int(np.sum(s > max(tol * s[0], floor)))
    uk = u[:, :rank]
    return uk @ uk.conj().T


def projection_basis(p: np.ndarray):
    """Orthonormal basis (columns) of the range of a projection matrix."""
    if p.shape == (1, 1):
        return [np.ones(1, dtype=complex)] if p[0, 0].real > 0.5 else []
    w, v = canonical_eigh(p)
    return [v[:, k] for k in range(v.shape[1]) if w[k] > 0.5]


def projection_defects(mats) -> np.ndarray:
    """Frobenius defect of each matrix from being an orthogonal projection,
    max(‖p − p†‖, ‖p p − p‖), in input order."""
    mats = list(mats)
    return np.maximum(frobs([p - p.conj().T for p in mats]), frobs([p @ p - p for p in mats]))


def partial_trace(m: np.ndarray, dims, keep, weights=None) -> np.ndarray:
    """Partial trace over the tensor legs not in `keep`.

    `dims` lists the leg dimensions (their product must equal the matrix
    dimension); each traced leg t is scaled by weights[t] (default 1), with
    `weights` given per traced leg in leg order.
    """
    m = as_complex(m)
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise DimensionMismatch(f"matrix is {m.shape}, dims give {n}")
    keep = sorted(set(int(k) for k in keep))
    for k in keep:
        if k < 0 or k >= len(dims):
            raise IndexOutOfRange(f"keep index {k} out of range")
    traced = [t for t in range(len(dims)) if t not in keep]
    if weights is None:
        weights = [1.0] * len(traced)
    weights = [float(w) for w in weights]
    if len(weights) != len(traced):
        raise DimensionMismatch("weights length must match traced legs")

    t = m.reshape(dims + dims)
    nlegs = len(dims)
    # Contract traced legs one at a time, highest index first so positions of
    # the remaining legs stay valid.
    scale = 1.0
    for w, leg in sorted(zip(weights, traced), key=lambda p: -p[1]):
        t = np.trace(t, axis1=leg, axis2=leg + nlegs)
        nlegs -= 1
        scale *= w
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return scale * t.reshape(kept, kept)


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor a Hermitian PSD matrix as r† r = m with row count = rank."""
    m = as_complex(m)
    if not is_hermitian(m):
        raise NotHermitian("psd_factor: input is not Hermitian")
    w, v = canonical_eigh(m)
    scale = max(frob(m), 1.0)
    if w.size and float(w[-1]) < -TOL_SPEC * scale:
        raise NegativeSpectrum(f"psd_factor: min eigenvalue {w[-1]:.3e}")
    top = float(w[0]) if w.size else 0.0
    if top <= 0.0:
        return np.zeros((0, m.shape[0]), dtype=complex)
    keep = w > TOL_SPEC * top
    return (np.sqrt(w[keep])[:, None] * v[:, keep].conj().T)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition (negatives clipped)."""
    m = as_complex(m)
    w, v = canonical_eigh(m)
    scale = max(frob(m), 1.0)
    if w.size and float(w[-1]) < -TOL_SPEC * scale:
        raise NegativeSpectrum(f"psd_sqrt: min eigenvalue {w[-1]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a positive-definite Hermitian matrix."""
    m = as_complex(m)
    w, v = canonical_eigh(m)
    if w.size == 0 or float(w[-1]) <= TOL_SPEC * max(float(w[0]), 1.0):
        raise NegativeSpectrum("inv_sqrt_psd: matrix is singular at this tolerance")
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T


def adjoint_image(block: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Image of an operator on vec(Hom(K, H)) under X -> {a† : a in range}.

    `block` acts on vec of rows x cols matrices; the result acts on vec of
    cols x rows matrices.  For a projection onto span{vec(a_r)} this returns
    the projection onto span{vec(a_r†)}.
    """
    block = as_complex(block)
    d, e = rows, cols
    if block.shape != (d * e, d * e):
        raise DimensionMismatch("adjoint_image: block shape mismatch")
    # vec index of a d x e matrix is (col b, row a) -> b*d + a; the adjoint's
    # vec index is (a, b) -> a*e + b.  Entrywise: out[(a,b),(a',b')] =
    # conj(block[(b,a),(b',a')]).
    b4 = block.reshape(e, d, e, d)
    out = b4.transpose(1, 0, 3, 2).conj()
    return out.reshape(d * e, d * e)


def trace_outer(block: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Trace an operator on vec(Hom(K, H)) over the outer (K-side) leg.

    For a block on vec of inner x outer matrices (dim outer*inner), returns an
    inner x inner matrix.  Tr_outer(|vec a><vec b|) = a @ b†.
    """
    b4 = as_complex(block).reshape(outer, inner, outer, inner)
    return np.einsum("iaib->ab", b4)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
