"""Span tracer for the traced benchmark run.

Every function and method defined in a covgraphs layer module is replaced,
for the duration of one traced pass, by a wrapper that records a span
(name, start, end, parent).  A name bound elsewhere by ``from .x import f``
is replaced in every module namespace that holds it, so calls through the
alias are seen too.  ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` are
wrapped for call counts, the largest matrix dimension, and a flop estimate
computed from the array shapes (not measured).  Nothing under ``src/`` is
edited: the wrappers are installed from here and removed afterwards.

Spans of one task are kept in flat arrays, folded into per-name totals
(calls, self time) when the task ends, and then dropped, so memory stays
bounded by the largest single task.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np


# Real-flop counts from Golub & Van Loan's tables; a complex input counts
# four times (one complex multiply-add is four real ones).
def _eigh_flops(m, n):
    # Symmetric QR algorithm with eigenvectors.
    return 9.0 * n ** 3


def _eigvalsh_flops(m, n):
    return 4.0 / 3.0 * n ** 3


def _svd_flops(m, n):
    # Thin SVD with both singular-vector sets, Golub-Reinsch (m >= n).
    m, n = max(m, n), min(m, n)
    return 14.0 * m * n * n + 8.0 * n ** 3


_FLOPS = {"eigh": _eigh_flops, "eigvalsh": _eigvalsh_flops, "svd": _svd_flops}


class Tracer:
    """Records spans while installed; aggregates them per name per task.

    `layers` names the covgraphs modules to wrap; `kernels` the
    numpy.linalg functions to count.
    """

    def __init__(self, layers, kernels):
        self.layers = tuple(layers)
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._parent = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.kernels = {k: {"calls": 0, "max_n": 0, "flop_est": 0.0} for k in kernels}
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return idx

    def _open(self, idx: int) -> int:
        sid = len(self._start)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._name.append(idx)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per task)."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        idx = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        traced.__wrapped_original__ = fn
        return traced

    def fold(self):
        """Turn the spans recorded so far into per-name calls and self time."""
        n = len(self._start)
        if n == 0:
            return
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.int64)
        dur = end - start
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=own, minlength=len(self.names))
        for i in range(len(self.names)):
            self.calls[i] += int(calls[i])
            self.self_s[i] += float(selfs[i])
        self._parent = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")

    # -- installation ---------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the body of the with-statement only."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        """Wrap every layer function and method, and the numpy kernels."""
        import covgraphs

        pkg = covgraphs.__name__
        modules = {name: importlib.import_module(f"{pkg}.{name}") for name in self.layers}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth):
                            wrapped = self.wrap(f"{layer}.{obj.__name__}.{mname}", meth)
                            self._undo.append((obj, mname, meth))
                            setattr(obj, mname, wrapped)
        # Rebind every namespace that holds an original, aliases included.
        for mod in [importlib.import_module(pkg)] + [
            importlib.import_module(f"{pkg}.{n}") for n in self.layers + ("errors",)
        ]:
            for attr, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None and wrapped.__wrapped_original__ is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
        for kname in self.kernels:
            orig = getattr(np.linalg, kname)
            self._undo.append((np.linalg, kname, orig))
            setattr(np.linalg, kname, self._kernel(kname, orig))

    def _kernel(self, kname: str, fn):
        stats = self.kernels[kname]
        flops = _FLOPS[kname]

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            m, n = shape[-2], shape[-1]
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            stats["calls"] += 1
            stats["max_n"] = max(stats["max_n"], int(max(m, n)))
            factor = 4.0 if np.iscomplexobj(a) else 1.0
            stats["flop_est"] += batch * factor * flops(m, n)
            return fn(a, *args, **kwargs)

        return counted

    def _uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def totals(self) -> dict:
        """{name: (calls, self_s)} for every name seen."""
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}
