"""Task type and seeded input generators shared by the workloads.

The generators here are the benchmark's own; they deliberately do not reuse
the test suite's helpers, so that editing a test cannot change what the
benchmark measures.  Each generator draws only from the ``numpy.random``
Generator it is given.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Task:
    """One closed-loop request: run() goes through the public API and returns
    a verdict; `expected` is the answer known independently of the code
    under test (from how the input was built, or from a classical oracle)."""

    tid: str
    rung: str
    run: Callable[[], Any]
    expected: Any


def rand_complex(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng, dims, count):
    """`count` Gaussian Kraus maps for every factor pair of `dims` -> `dims`."""
    return {(i, j): [rand_complex(rng, e, d) for _ in range(count)]
            for i, d in enumerate(dims) for j, e in enumerate(dims)}


def isometric_kraus(rng, dims):
    """Kraus maps of a reversible channel from factors `dims` into one factor
    of dimension sum(dims) + 1: disjoint column blocks of a random unitary,
    scaled so the separable standard functional is preserved."""
    e = sum(dims) + 1
    u = rand_unitary(rng, e)
    kraus, off = {}, 0
    for i, d in enumerate(dims):
        kraus[(i, 0)] = [np.sqrt(d / e) * u[:, off:off + d]]
        off += d
    return kraus, e


def vec(m) -> np.ndarray:
    """Column-stacking vectorization (the library's documented convention)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def span_projection(vectors) -> np.ndarray:
    """Orthogonal projection onto the span of linearly independent vectors."""
    q, _ = np.linalg.qr(np.column_stack(vectors))
    return q @ q.conj().T


def adjoint_image(p: np.ndarray, d: int, e: int) -> np.ndarray:
    """Projection p on vec(d x e matrices) mapped to vec of their adjoints."""
    return p.reshape(e, d, e, d).transpose(1, 0, 3, 2).conj().reshape(d * e, d * e)


def rand_conf_blocks(rng, dims) -> dict:
    """Random confusability-graph blocks on a multi-factor system: each
    diagonal block spans {I, X, X†}, each off-diagonal pair one random
    operator and its adjoint image.  Never complete for factor dims >= 2."""
    blocks = {}
    for i, d in enumerate(dims):
        for j in range(i, len(dims)):
            e = dims[j]
            x = rand_complex(rng, d, e)
            if i == j:
                p = span_projection([vec(np.eye(d)), vec(x), vec(x.conj().T)]) if d > 1 \
                    else np.ones((1, 1), dtype=complex)
                blocks[(i, i)] = p
            else:
                p = span_projection([vec(x)])
                blocks[(i, j)] = p
                blocks[(j, i)] = adjoint_image(p, d, e)
    return blocks


def bits_digest(adj) -> str:
    """Short digest of a boolean matrix, for verdicts that are graphs."""
    a = np.asarray(adj, dtype=bool)
    return hashlib.sha256(np.packbits(a).tobytes() + bytes(str(a.shape), "ascii")).hexdigest()[:16]
