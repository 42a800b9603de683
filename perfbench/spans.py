"""Benchmark-side tracing of module boundaries in the mhessian package.

``Tracer.install()`` replaces every function, method and property that a
``mhessian`` module defines with a wrapper, in every ``mhessian`` namespace
that binds it, so calls go through the wrapper wherever the program looks
the name up.  A wrapper opens a span only when the call crosses from one
module (layer) into another; calls inside one module run unrecorded.
Selected numpy and scipy kernels are wrapped as kernel spans, which are
attributed to the innermost enclosing module span.  ``uninstall()`` puts
every original object back.

Spans stay in memory as parallel lists (name, layer, start, end, parent and
one extra value) and are summarized into per-layer metrics by
``layer_metrics``.  Nothing here changes a result: wrappers pass arguments
and return values through untouched.
"""

import dataclasses
import functools
import inspect
import os
import sys
import time
from functools import cached_property

# kernel spans: (module path, attribute, category)
KERNELS = (
    ("numpy.linalg", "eigvalsh", "eig"),
    ("numpy.linalg", "eigh", "eig"),
    ("scipy.sparse.linalg", "spsolve", "direct"),
    ("scipy.sparse.linalg", "splu", "direct"),
    ("scipy.sparse.linalg", "bicgstab", "krylov"),
    ("scipy.sparse.linalg", "gmres", "krylov"),
    ("scipy.sparse.linalg", "spilu", "ilu"),
)
LINEAR = ("direct", "krylov", "ilu")

# nodal field evaluations of the grids layer
FIELD_FUNCTIONS = ("cone_field", "fm_field", "hessian_stack",
                   "relative_lambda_stack")

# modules that hold no traced code
SKIPPED_MODULES = ("mhessian", "mhessian.errors")

ROOT = "op"
KERNEL = "kernel"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._undo = []
        self.reset()

    # -- span storage -----------------------------------------------------
    def reset(self):
        self.name = []
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self.extra = []
        self._stack = [-1]
        self._layers = [None]
        self._keepalive = []

    def open(self, name, layer, extra=None):
        i = len(self.start)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.extra.append(extra)
        self.end.append(0.0)
        self._stack.append(i)
        if layer != KERNEL:
            self._layers.append(layer)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if self.layer[i] != KERNEL:
            self._layers.pop()

    def export(self):
        """Spans as a JSON-ready table; times in seconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
        }

    # -- wrappers ---------------------------------------------------------
    def _module_wrapper(self, layer, qualname, fn):
        keyed = qualname.rsplit(".", 1)[-1] in FIELD_FUNCTIONS
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        keyed = keyed and signature is not None
        writes = (layer == "serialize" and signature is not None
                  and "path" in signature.parameters)
        solves = layer == "solver"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layers[-1] == layer:
                return fn(*args, **kwargs)
            extra = None
            if keyed:
                bound = signature.bind(*args, **kwargs).arguments
                first = next(iter(bound.values()))
                chi = bound.get("chi")
                self._keepalive.append((first, chi))
                extra = (id(first), id(chi))
            i = self.open(qualname, layer, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if solves:
                iterations = getattr(result, "iterations", None)
                if isinstance(iterations, int):
                    self.extra[i] = iterations
            elif writes:
                path = signature.bind(*args, **kwargs).arguments["path"]
                self.extra[i] = os.path.getsize(path)
            return result

        return wrapper

    def _kernel_wrapper(self, name, category, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if category == "eig" and args:
                shape = getattr(args[0], "shape", ())
                extra = 1
                for d in shape[:-2]:
                    extra *= int(d)
            i = self.open(name, KERNEL, (category, extra))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Wrap every mhessian module boundary and the kernels."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "mhessian" or name.startswith("mhessian."))
                   and m is not None]
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            if mod.__name__ in SKIPPED_MODULES:
                continue
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif callable(obj):
                    wrapped[id(obj)] = self._module_wrapper(
                        layer, f"{layer}.{name}", obj)
        for path, attr, category in KERNELS:
            mod = sys.modules.get(path)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            kernel = self._kernel_wrapper(f"{path}.{attr}", category, fn)
            wrapped[id(fn)] = kernel
            self._set(mod, attr, kernel)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in ("__init__",
                                                      "__post_init__",
                                                      "__call__"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._module_wrapper(layer, qual,
                                                      attr.__func__))
            elif isinstance(attr, property):
                new = property(self._module_wrapper(layer, qual, attr.fget),
                               attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, cached_property):
                new = cached_property(self._module_wrapper(layer, qual,
                                                           attr.func))
                new.__set_name__(cls, name)
            elif inspect.isfunction(attr):
                new = self._module_wrapper(layer, qual, attr)
            else:
                continue
            self._set(cls, name, new)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced op whose wall time was ``wall``.

    A layer's calls and busy time count its outermost spans (those with no
    ancestor of the same layer); its self time is the part of its spans not
    covered by child spans, kernels included.  Kernel spans are
    counted under "inside solver spans" when any ancestor is a solver span.
    """
    count = len(tr.start)
    dur = [tr.end[i] - tr.start[i] for i in range(count)]
    child = [0.0] * count
    in_solver = [False] * count
    for i in range(count):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
            in_solver[i] = in_solver[p] or tr.layer[p] == "solver"

    def outer(i):  # no ancestor span of the same layer
        p = tr.parent[i]
        while p >= 0:
            if tr.layer[p] == tr.layer[i]:
                return False
            p = tr.parent[p]
        return True

    self_t = [dur[i] - child[i] for i in range(count)]

    busy, selft, calls = {}, {}, {}
    kernel = {}  # (where, category) -> [calls, seconds, matrices]
    eigvalsh_in_solver = 0
    iterations = 0
    index_solves = 0
    field_calls = 0
    field_s = 0.0
    grids_eig_matrices = 0
    repeat_calls, repeat_keys = 0, set()
    written = 0
    root_self = 0.0
    root_dur = 0.0
    for i in range(count):
        layer = tr.layer[i]
        p = tr.parent[i]
        parent_layer = tr.layer[p] if p >= 0 else None
        if layer == ROOT:
            root_self += self_t[i]
            root_dur += dur[i]
            continue
        if layer == KERNEL:
            category, matrices = tr.extra[i]
            module = parent_layer
            where = "solver" if in_solver[i] else module
            rec = kernel.setdefault((where, category), [0, 0.0, 0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += matrices or 0
            if in_solver[i] and tr.name[i].endswith("eigvalsh"):
                eigvalsh_in_solver += 1
            if module == "grids" and not in_solver[i] and category == "eig":
                grids_eig_matrices += matrices or 0
            continue
        selft[layer] = selft.get(layer, 0.0) + self_t[i]
        if outer(i):
            calls[layer] = calls.get(layer, 0) + 1
            busy[layer] = busy.get(layer, 0.0) + dur[i]
        if layer == "solver" and isinstance(tr.extra[i], int):
            if not in_solver[i]:
                iterations += tr.extra[i]
            if parent_layer == "regularize":
                index_solves += 1
        if layer == "serialize" and isinstance(tr.extra[i], int):
            written += tr.extra[i]
        if layer == "grids" and isinstance(tr.extra[i], tuple):
            if not in_solver[i]:
                field_calls += 1
                field_s += dur[i]
            if parent_layer == "regularize":
                repeat_calls += 1
                repeat_keys.add(tr.extra[i])

    def kern(where, cats, idx):
        return sum(kernel.get((where, c), [0, 0.0, 0])[idx] for c in cats)

    def per_call_us(layer):
        n = calls.get(layer, 0)
        return busy.get(layer, 0.0) / n * 1e6 if n else 0.0

    eig_calls = kern("solver", ("eig",), 0)
    out = {
        "solver.busy_s": busy.get("solver", 0.0),
        "solver.self_s": selft.get("solver", 0.0),
        "solver.newton_iters": iterations,
        "solver.eig_calls": eig_calls,
        "solver.eig_s": kern("solver", ("eig",), 1),
        "solver.eig_matrices": kern("solver", ("eig",), 2),
        "solver.evals_per_iter": (eigvalsh_in_solver / iterations
                                  if iterations else 0.0),
        "solver.linear_s": kern("solver", LINEAR, 1),
        "solver.direct_calls": kern("solver", ("direct",), 0),
        "solver.krylov_calls": kern("solver", ("krylov",), 0),
        "solver.ilu_calls": kern("solver", ("ilu",), 0),
        "grids.field_calls": field_calls,
        "grids.field_s": field_s,
        "grids.eig_matrices": grids_eig_matrices,
        "regularize.busy_s": busy.get("regularize", 0.0),
        "regularize.self_s": selft.get("regularize", 0.0),
        "regularize.index_solves": index_solves,
        "regularize.field_repeat_ratio": (repeat_calls / len(repeat_keys)
                                          if repeat_keys else 0.0),
        "serialize.calls": calls.get("serialize", 0),
        "serialize.s": busy.get("serialize", 0.0),
        "serialize.bytes": written,
        "cli.self_s": selft.get("cli", 0.0),
    }
    for layer in ("hermitian", "cones", "fm", "curvature"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.us_per_call"] = per_call_us(layer)
    # module self times plus kernel time: everything under the op except
    # the benchmark's own glue, as a share of the measured op wall time
    attributed = root_dur - root_self
    out["trace.attributed_ratio"] = attributed / wall if wall > 0 else 0.0
    return out


def absent_metrics(names) -> list:
    """Per-layer metrics whose module, function or field no longer exists.

    They are left out of the report instead of reading as zero, so that a
    refactor that renames a layer shows up as missing data, not as a gain.
    """
    def has(path, attr=None):
        mod = sys.modules.get(path)
        return mod is not None and (attr is None or hasattr(mod, attr))

    report = getattr(sys.modules.get("mhessian.solver"), "SolveReport", None)
    iterations = (dataclasses.is_dataclass(report) and "iterations"
                  in {f.name for f in dataclasses.fields(report)})
    fields = any(has("mhessian.grids", f) for f in FIELD_FUNCTIONS)
    kernels = {c: any(has(p, a) for p, a, k in KERNELS if k == c)
               for c in ("eig", "direct", "krylov", "ilu")}
    missing = []
    for name in names:
        layer, _, metric = name.partition(".")
        if layer == "trace":
            continue
        if not has(f"mhessian.{layer}"):
            missing.append(name)
        elif metric in ("newton_iters", "evals_per_iter") and not iterations:
            missing.append(name)
        elif metric.startswith("field_") and not fields:
            missing.append(name)
        elif metric.startswith("eig") and not kernels["eig"]:
            missing.append(name)
        elif metric.split("_")[0] in ("direct", "krylov", "ilu") \
                and not kernels[metric.split("_")[0]]:
            missing.append(name)
    return missing
