"""Span tracing of noisegauge from outside the package.

``Tracer.install`` replaces every binding of each public function of the
nine noisegauge modules, across all ``noisegauge.*`` namespaces (the modules
import each other with ``from .x import y``, so patching only the defining
module would miss internal calls).  Dataclass validation (``__post_init__``)
and public methods are wrapped on their classes, and the LAPACK entry points
are wrapped at ``numpy.linalg``.  Each call records a span: name, start, end,
parent span and request id, kept in flat arrays and written out once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "measures", "channels", "separability", "linalg", "gad",
          "gaussian", "amend", "report")
LAPACK = ("eigvalsh", "eigh", "svd", "eig", "eigvals", "det", "inv", "solve")

# Names the per-layer metrics are computed from.  A refactor that removes one
# must update the benchmark, so a missing name stops the run.
REQUIRED = {
    "cli": ("main",),
    "measures": ("mu_c_search", "n_c"),
    "channels": ("choi", "compose_kraus", "kraus_from_choi"),
    "separability": ("is_eb", "min_pt_eigenvalue", "ChoiState"),
    "linalg": ("trace_norm",),
    "gad": ("n_c_gad", "p_n", "mu_c_gad"),
    "gaussian": ("n_c_iso", "n_c_attenuation", "n_c_amplification"),
    "amend": ("search_filter", "apply_filter", "gad_amendable", "sandwich"),
}


class TraceError(RuntimeError):
    """The traced program no longer has a shape the benchmark can measure."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_request = -1
        self.mu_evals = 0
        self.nc_steps = 0
        self.amendable: list[bool] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrapper(self, qualname: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            request.append(self.current_request)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_mu_search(self, result):
        self.mu_evals += int(result.evaluations)

    def _on_nc(self, result):
        if result.n is not None:
            self.nc_steps += result.n
        elif not result.proven_divergent:
            self.nc_steps += result.cap

    def _on_search(self, result):
        self.amendable.append(bool(result.amendable))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "measures.mu_c_search": self._on_mu_search,
            "measures.n_c": self._on_nc,
            "amend.search_filter": self._on_search,
        }
        modules = {layer: importlib.import_module(f"noisegauge.{layer}") for layer in LAYERS}
        namespaces = [m for k, m in sys.modules.items()
                      if k == "noisegauge" or k.startswith("noisegauge.")]
        for layer, module in modules.items():
            for attr in REQUIRED.get(layer, ()):
                if not hasattr(module, attr):
                    raise TraceError(f"noisegauge.{layer}.{attr} no longer exists")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{attr}"
                    wrapped = self._wrapper(qual, obj, hooks.get(qual))
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, key, wrapped)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                mname == "__post_init__" or not mname.startswith("_")):
                            self._set(obj, mname, self._wrapper(f"{layer}.{attr}.{mname}", meth))
        for fname in LAPACK:
            self._set(np.linalg, fname,
                      self._wrapper(f"numpy.linalg.{fname}", getattr(np.linalg, fname)))

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path, request_kinds: list[str]) -> None:
        np.savez(path, names=np.array(self.names), kinds=np.array(request_kinds),
                 **self.arrays())


class SpanTable:
    """Per-name counts, total and self times, and ancestry queries."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.request = a["name"], a["parent"], a["request"]
        self.dur = (a["end_ns"] - a["start_ns"]) / 1e9
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, qualname: str) -> np.ndarray:
        if qualname not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(qualname)

    def count(self, qualname: str) -> int:
        return int(self.mask(qualname).sum())

    def total(self, qualname: str) -> float:
        return float(self.dur[self.mask(qualname)].sum())

    def layer_mask(self, layer: str) -> np.ndarray:
        """Spans of one layer; LAPACK calls at numpy.linalg count as linalg."""
        heads = [q.split(".", 1)[0].replace("numpy", "linalg") for q in self.names]
        return np.isin(self.name, [i for i, h in enumerate(heads) if h == layer])

    def child_of(self, child: str, parent: str) -> np.ndarray:
        m = self.mask(child)
        par = self.parent[m]
        out = np.zeros(len(self.name), dtype=bool)
        out[np.flatnonzero(m)[par >= 0]] = self.mask(parent)[par[par >= 0]]
        return out

    def under(self, ancestor: str) -> np.ndarray:
        """Spans with an ancestor named ``ancestor`` (parents precede children)."""
        own = self.mask(ancestor)
        inside = np.zeros(len(self.name), dtype=bool)
        parent = self.parent
        for i in range(len(inside)):
            p = parent[i]
            inside[i] = p >= 0 and (own[p] or inside[p])
        return inside

    def outermost(self, qualnames: tuple[str, ...]) -> np.ndarray:
        """Spans of any of ``qualnames`` not nested in another of them."""
        m = np.zeros(len(self.name), dtype=bool)
        for q in qualnames:
            m |= self.mask(q)
        inner = np.zeros(len(self.name), dtype=bool)
        for q in qualnames:
            inner |= self.under(q)
        return m & ~inner
