"""Dense complex linear-algebra kernels.

Everything downstream identifies the operator space Hom(K, H) (maps K -> H,
i.e. dim(H) x dim(K) matrices) with the vector space C^{dim(H)*dim(K)} through
column-stacking vectorization.  This module is the single owner of that
convention:

    vec(X)[col*rows + row] = X[row, col]
    vec(A @ X @ B) = kron(B.T, A) @ vec(X)

so the slow (outer) index of vec(Hom(K, H)) is the K-side index and the fast
(inner) index is the H-side index.  This module states the convention: vec,
unvec and the helpers below apply it, as do the reshapes in cpmaps.apply,
cpmaps.choi_vecs, cpmaps._block_kraus, cpmaps._conjugated, cpmaps.basis_image_matrix,
QuantumRelation.operators, relations.partial_function_flags,
scc._source_span_vectors and scc._dilation_components.

Every threshold of the library is one of the constants below.  A ``tol``
argument (default TOL_PROJ) exists only where the CLI --tol sets it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeSpectrum,
    NotHermitian,
    ShapeMismatch,
)

TOL_SPEC = 1e-9  # relative spectral cut: eigen/singular values <= TOL_SPEC * top are 0
# TOL_SPEC as a cut on the singular values s of a factor V of a PSD block
# V V†: an eigenvalue s² of V V† is above TOL_SPEC s₀² iff s > √TOL_SPEC s₀.
TOL_SPEC_SV = TOL_SPEC ** 0.5
TOL_PROJ = 1e-8  # projection tolerance: containment, channel, covariance, reversibility
TOL_ROUNDOFF = 1e-12  # absolute round-off: phases, stochastic sums, orbit weights, action equality
# Round-off allowed each distance that groups' covariance checks compute on
# the generators, per unit of max(1, block norm) (1e-10; see is_covariant_cp).
BAND_GUARD = 100 * TOL_ROUNDOFF
# Round-off allowed each sum of products that cpmaps._hom_defects' bounds
# form, per term of the inner sums (e, a target factor's dimension) and per
# unit of the magnitudes summed (1e-13, about 450 ulps): a sum of e products
# is within about e ulps of the sum of their magnitudes, so this covers the
# error of the bounds and of the exact pair loop together a hundred times.
PRODUCT_GUARD = TOL_ROUNDOFF / 10
TOL_ROUNDTRIP = 10 * TOL_PROJ  # gate on the relation defect of a round trip (1e-7)
VALIDATE_SLACK = 100  # validators and reverse_channel's marginal test accept slack * tol
FUNCTIONAL_SLACK = 10  # slack of is_channel's functional test over its marginal test
BLEND_FLOOR = 1e-3  # least blend eigenvalue realize_channel accepts while halving tau
SPAN_RATIO = 1e-2  # source-graph span cut relative to the projection tolerance


def as_complex(m, shape: tuple | None = None) -> np.ndarray:
    """m as a complex array, scanned for non-finite entries (DimensionMismatch).

    With ``shape``, m is a sequence of members, each meant to be a ``shape``
    array, and the result is their (k,) + shape stack, built by one
    np.asarray and scanned once.  The first member that is not finite
    (DimensionMismatch) or has another shape (ShapeMismatch) raises,
    carrying its ``member`` position and ``shape``; members of unequal
    shapes are looked at one by one.
    """
    if shape is None:
        a = np.asarray(m, dtype=complex)
        if not np.isfinite(a).all():
            raise DimensionMismatch("matrix entries must be finite")
        return a
    if len(m) == 0:
        return np.zeros((0,) + shape, dtype=complex)
    try:
        a = np.asarray(m, dtype=complex)
    except ValueError:  # members of unequal shapes
        members = [np.asarray(x, dtype=complex) for x in m]
    else:
        if a.shape[1:] == shape and np.isfinite(a).all():
            return a
        # The first non-finite member fails, or the first if all are misshapen.
        members = a if a.shape[1:] == shape else a[:1]
    for s, x in enumerate(members):
        if not np.isfinite(x).all():
            raise _member_error(DimensionMismatch, "matrix entries must be finite", s, x.shape)
        if x.shape != shape:
            raise _member_error(ShapeMismatch, f"member {s} has shape {x.shape}, expected {shape}",
                                s, x.shape)


def as_complex_groups(groups, fails: list, name, *about) -> list:
    """as_complex(group[0], group[1]) of each group of members.  A group's
    error (``member``: its place in the group) goes to name(*about, group,
    exc), which returns (input position, error) for the list ``fails``; the
    error at the least position raises, the first of a tie."""
    stacks = []
    for group in groups:
        try:
            stacks.append(as_complex(group[0], group[1]))
        except (DimensionMismatch, ShapeMismatch) as exc:
            fails.append(name(*about, group, exc))
    if fails:
        raise min(fails, key=lambda fail: fail[0])[1]
    return stacks


def _member_error(kind, msg: str, member=None, shape=None):
    """kind(msg) on member ``member`` of a stack (None: a single matrix),
    carrying its position and shape for callers that name it by key."""
    exc = kind(msg)
    exc.member, exc.shape = member, shape
    return exc


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2 of a matrix or of each member of a stack;
    numerical hygiene before eigh."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def gram(vs: np.ndarray) -> np.ndarray:
    """V V† of each member of a (k, n, r) stack V."""
    return vs @ vs.conj().swapaxes(1, 2)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def frobs(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of the members of a (k, m, n) stack, in stack order:
    one stacked reduction, bitwise equal to frob of each member (per matrix,
    the same BLAS dot products of the real and imaginary parts; on 1x1
    members a length-1 dot product is one rounded product, so those are
    taken elementwise)."""
    if mats.shape[1:] == (1, 1):
        v = mats.reshape(-1)
        re, im = v.real, v.imag
        return np.sqrt(re * re + im * im)
    v = mats.reshape(len(mats), 1, mats.shape[1] * mats.shape[2])
    re, im = v.real, v.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(-1))


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
    (a column with no such component is left as it is).

    Takes a matrix or a (k, n, n) stack, n >= 0.  A stack goes through one
    batched eigh, which runs LAPACK once per member, and batched index
    arithmetic; a matrix runs as a one-member stack, so each member's output
    is bitwise the one of its own call.
    """
    if m.ndim == 2:
        w, v = canonical_eigh(m[None])
        return w[0], v[0]
    w, v = np.linalg.eigh(hermitize(m))
    if not v.size:
        return w, v
    k, n = w.shape
    at = np.arange(k)[:, None]
    cols = np.arange(n)
    order = (-w).argsort(axis=1, kind="stable")
    w = w[at, order]
    # v[at, :, order] holds column order[s, j] of member s as its row j: a
    # two-index gather and a copy back, cheaper than a three-index gather.
    v = np.ascontiguousarray(v[at, :, order].swapaxes(1, 2))
    big = np.abs(v) > TOL_ROUNDOFF
    first = big.argmax(axis=1)
    lead, has = v[at, first, cols], big[at, first, cols]
    # hypot, not np.abs: it rounds like the scalar abs of one entry, so the
    # phases are bit-identical to fixing one column at a time.
    phase = np.divide(lead, np.hypot(lead.real, lead.imag), out=np.ones_like(lead), where=has)
    np.divide(v, phase[:, None, :], out=v, where=has[:, None, :])
    return w, v


class Frames(NamedTuple):
    """Orthonormal frames of a (k, n, n) stack of projections: member s
    projects onto the span of the columns vecs[s, :, :ranks[s]].  vecs is
    (k, n, r) with r the largest rank; columns past a member's rank are zero.
    """

    ranks: np.ndarray
    vecs: np.ndarray

    def member(self, s: int) -> np.ndarray:
        return self.vecs[s, :, :self.ranks[s]]

    @classmethod
    def masked(cls, rank: np.ndarray, v: np.ndarray) -> "Frames":
        """Frames whose member s spans the first rank[s] columns of v[s]: vecs
        keeps those columns, and zeros after them.  A 1-dim frame (v is
        (k, 1, c)) is [[1]] or [[0]]: its vecs are rank itself."""
        width = int(rank.max(initial=0))
        if v.shape[1] == 1:
            return cls(rank, rank.astype(complex).reshape(-1, 1, 1)[:, :, :width])
        return cls(rank, np.where(np.arange(width) < rank[:, None, None], v[:, :, :width], 0))

    @classmethod
    def merged(cls, k: int, n: int, parts) -> "Frames":
        """Frames of k members from (positions, Frames) parts: the members at
        positions take the part's frames in order; the others span nothing.
        A single part that covers every member in order is returned as it is."""
        parts = list(parts)
        if len(parts) == 1 and np.array_equal(parts[0][0], np.arange(k)):
            return parts[0][1]
        width = max((fr.vecs.shape[-1] for _, fr in parts), default=0)
        ranks = np.zeros(k, dtype=int)
        vecs = np.zeros((k, n, width), dtype=complex)
        for pos, fr in parts:
            ranks[pos] = fr.ranks
            vecs[pos, :, :fr.vecs.shape[-1]] = fr.vecs
        return cls(ranks, vecs)

    def projections(self) -> np.ndarray:
        """The projections V V†, one batched product per rank; when every
        member has one nonzero rank, that product is the stack.  A 1x1
        frame, [[1]] or [[0]], is its own projection."""
        k, n = self.vecs.shape[:2]
        if n == 1:
            return self.vecs if self.vecs.shape[-1] else np.zeros((k, 1, 1), dtype=complex)
        ranks = set(self.ranks.tolist())
        if len(ranks) == 1 and 0 not in ranks:
            return gram(np.ascontiguousarray(self.vecs[:, :, :ranks.pop()]))
        out = np.zeros((k, n, n), dtype=complex)
        for r in ranks - {0}:
            sel = np.flatnonzero(self.ranks == r)
            out[sel] = gram(np.ascontiguousarray(self.vecs[sel, :, :r]))
        return out


def support_projection(m):
    """Orthogonal projection onto the span of eigenvectors of a Hermitian PSD
    matrix with eigenvalue above TOL_SPEC * (max eigenvalue), and those
    eigenvectors.

    Takes one matrix, validated by as_complex and cut by spectral_cut as a
    one-member stack, and returns (projection, its (n, r) kept columns); or
    the Cut of a (k, n, n) stack, as a CpMorphism keeps one per class, and
    returns ((k, n, n) projections, their Frames), each member bitwise the
    one of its own matrix call.  Projections come from Frames.projections.
    A member that is not Hermitian or has a negative eigenvalue raises; of
    a Cut, the first such member in stack order, and its message and
    ``member`` name its position.
    """
    one = not isinstance(m, Cut)
    cut = spectral_cut(as_complex(m)[None]) if one else m
    defect = frobs(cut.blocks - cut.blocks.conj().swapaxes(1, 2))
    skew = ~(defect <= TOL_SPEC * np.maximum(1.0, cut.scale))
    bad = (skew | cut.neg).nonzero()[0]
    if bad.size:
        b = int(bad[0])
        member = None if one else int(cut.live[b])
        at = "support_projection" if one else f"member {member}: support_projection"
        if skew[b]:
            raise _member_error(NotHermitian, f"{at}: defect {defect[b]:.3e}", member)
        raise _member_error(NegativeSpectrum, f"{at}: min eigenvalue {cut.w[b, -1]:.3e}", member)
    fr = Frames.merged(cut.size, cut.blocks.shape[-1], [(cut.live, Frames.masked(cut.rank, cut.v))])
    proj = fr.projections()
    return (proj[0], fr.member(0)) if one else (proj, fr)


class Cut(NamedTuple):
    """The TOL_SPEC cut of a (k, n, n) stack of Hermitian PSD blocks, read on
    its nonzero members: the stack's size k, their positions (live), the
    members (blocks), their Frobenius norms (scale) and eigenpairs (w, v) in
    canonical_eigh's order and phases, how many eigenpairs each keeps
    (rank: a prefix, those above TOL_SPEC times the top eigenvalue) and
    whether its least eigenvalue is below -TOL_SPEC times its top or norm
    (neg).  A 1x1 member c has the eigenpair (Re c, [[1]]), so it keeps
    [[1]] iff Re c > 0.  A cut does not raise on neg: each reader does."""

    size: int
    live: np.ndarray
    blocks: np.ndarray
    scale: np.ndarray
    w: np.ndarray
    v: np.ndarray
    rank: np.ndarray
    neg: np.ndarray


def spectral_cut(s: np.ndarray) -> Cut:
    """The Cut of a (k, n, n) stack, as the block store holds it: the one
    eigen-cut of the library, one batched eigh of the nonzero members (1x1
    members with no eigh)."""
    size = len(s)
    scale = frobs(s)
    live = scale.nonzero()[0]
    s, scale = s[live], scale[live]
    w, v = (s[:, :, 0].real, np.ones_like(s)) if s.shape[-1] == 1 else canonical_eigh(s)
    rank = np.add.reduce(w > TOL_SPEC * w[:, :1], 1)
    neg = w[:, -1] < -TOL_SPEC * np.maximum(w[:, 0], scale)
    return Cut(size, live, s, scale, w, v, rank, neg)


def orthonormal_span(vectors, dim: int | None = None, tol: float = TOL_SPEC,
                     floor: float = 0.0) -> np.ndarray:
    """Projection onto the linear span of the given sequence of vectors:
    the projections of their span_frames.

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
    return span_frames(np.column_stack(vecs)[None], tol, floor).projections()[0]


def span_frames(a: np.ndarray, tol: float = TOL_SPEC, floor: float = 0.0) -> Frames:
    """Frames of the spans of a (k, n, c) stack of k families of c columns
    each (c >= 1), from one batched SVD, each member bitwise its own call:
    the left singular vectors of singular value above tol times the
    largest and above floor (a family whose largest is at most floor spans
    nothing).  A family of 1-dim vectors spans [[1]] when its largest
    modulus is nonzero and above floor."""
    if a.shape[1] == 1:
        return Frames.masked((np.abs(a[:, 0, :]).max(axis=1) > max(floor, 0.0)).astype(int), a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cut = np.maximum(tol * s[:, 0], floor)
    rank = np.sum(s > cut[:, None], axis=1)
    rank[s[:, 0] <= floor] = 0
    return Frames.masked(rank, u)


def projection_frames(p: np.ndarray) -> Frames:
    """Frames of a (k, n, n) stack of orthogonal projections: per member the
    eigenvectors of its spectral_cut with eigenvalue above 1/2, in
    canonical_eigh's order and phases."""
    cut = spectral_cut(p)
    return Frames.merged(len(p), p.shape[-1],
                         [(cut.live, Frames.masked(np.add.reduce(cut.w > 0.5, 1), cut.v))])


def projection_defects(mats: np.ndarray) -> np.ndarray:
    """Frobenius defect of each member of a (k, n, n) stack from being an
    orthogonal projection, max(‖p − p†‖, ‖p p − p‖), in stack order."""
    return np.maximum(frobs(mats - mats.conj().swapaxes(1, 2)), frobs(mats @ mats - mats))


def top_eigenvalue(m: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part of a square matrix."""
    return float(np.linalg.eigvalsh(hermitize(m))[-1])


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
    the projection onto span{vec(a_r†)}.  Takes a matrix, validated by
    as_complex, or a (k, n, n) stack of blocks as the store holds them.
    """
    block = as_complex(block) if np.ndim(block) == 2 else block
    d, e = rows, cols
    if block.shape[-2:] != (d * e, d * e):
        raise DimensionMismatch("adjoint_image: block shape mismatch")
    # vec index of a d x e matrix is (col b, row a) -> b*d + a; the adjoint's
    # vec index is (a, b) -> a*e + b.  Entrywise: out[(a,b),(a',b')] =
    # conj(block[(b,a),(b',a')]).
    lead = block.ndim - 2
    b4 = block.reshape(block.shape[:-2] + (e, d, e, d))
    out = b4.transpose(*range(lead), lead + 1, lead, lead + 3, lead + 2).conj()
    return out.reshape(block.shape)


def adjoint_vecs(vecs: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """vec(a) -> vec(a†) on the columns of a (..., rows*cols, r) array of
    vectorized rows x cols matrices: the frame of the adjoint image of the
    projection onto their span.  a -> a† is conjugate-linear and preserves
    the Hilbert-Schmidt norm, so orthonormal columns stay orthonormal."""
    v5 = vecs.reshape(vecs.shape[:-2] + (cols, rows, vecs.shape[-1]))
    return v5.swapaxes(-3, -2).conj().reshape(vecs.shape)


def trace_outer(block: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Trace an operator on vec(Hom(K, H)) over the outer (K-side) leg.

    For a block on vec of inner x outer matrices (dim outer*inner), returns an
    inner x inner matrix.  Tr_outer(|vec a><vec b|) = a @ b†.  Takes a
    matrix, validated by as_complex, or a (k, n, n) stack of blocks as the
    store holds them, traced member by member.
    """
    block = as_complex(block) if np.ndim(block) == 2 else block
    b4 = block.reshape(block.shape[:-2] + (outer, inner, outer, inner))
    return np.einsum("...iaib->...ab", b4)


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over the leading
    (stack) axes: member s is kron(a[s], b[s]).  It is the broadcast product
    np.kron itself forms, so every member is bitwise np.kron of its pair."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    m, p, n, q = prod.shape[-4:]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))
