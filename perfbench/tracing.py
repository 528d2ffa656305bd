"""Span tracing of cartankit from outside the package.

``Tracer.install()`` replaces every function a cartankit module exposes
across a layer boundary with a wrapper that records a span, at every
binding of the function object: module attributes (including names
imported into other modules), values of module-level dicts such as the
CLI's command table, and members of the module's public classes
(methods, ``__call__`` and ``cached_property`` members).  It also wraps
the ``numpy.linalg`` decompositions cartankit calls.  ``uninstall()``
restores every original binding, so untraced passes run untouched code.

A span is ``[name, layer, start, end, parent, job]``.  A layer's self time
is the time of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

import numpy as np

#: The cartankit modules, one layer each (ROADMAP L0..L4).
LAYERS = ("matalg", "groupoid", "twist", "reduced", "inclusion", "weyl",
          "envelope", "serialize", "cli")
#: numpy.linalg functions cartankit calls; reported as the layer ``linalg``.
LINALG = ("svd", "eigh", "eigvalsh", "lstsq")
#: O(1) table lookups called once per arrow pair.  A span would cost more
#: than the call, so their time counts to the caller.
ACCESSORS = {"FiniteGroupoid.compose", "FiniteGroupoid.is_unit_arrow",
             "CocycleTwist.value", "CocycleTwist.c", "CocycleTwist.weight"}

_COMPLEX_BYTES = 16
_REAL_BYTES = 8


def svd_cost(a, full_matrices=True, compute_uv=True):
    """Computed (flops, result bytes) of one complex or real SVD.

    Flops follow the Golub-Van Loan counts for Golub-Reinsch SVD (values
    only: 4mn^2 - 4n^3/3; thin factors: 14mn^2 + 8n^3; full factors:
    4m^2 n + 8mn^2 + 9n^3, with m >= n), times 4 for complex input and
    times the batch size.
    """
    a = np.asarray(a)
    *batch, rows, cols = a.shape
    m, n = max(rows, cols), min(rows, cols)
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 14 * m * n * n + 8 * n ** 3
    cplx = np.iscomplexobj(a)
    count = int(np.prod(batch)) if batch else 1
    width = _COMPLEX_BYTES if cplx else _REAL_BYTES
    out = n * _REAL_BYTES
    if compute_uv:
        u_cols, v_rows = (rows, cols) if full_matrices else (n, n)
        out += (rows * u_cols + v_rows * cols) * width
    return flops * (4 if cplx else 1) * count, out * count


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Records spans while installed; aggregates them per layer."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        # span index -> words returned, (twist arrows, cover states),
        # (svd flops, svd result bytes)
        self.words = {}
        self.arrows = {}
        self.svd = {}
        self.pair_visits = 0
        self._restore = []
        self._hooks = {
            "inclusion.normalizer_words": self._on_words,
            "weyl.weyl_twist": self._on_weyl,
            "envelope.eigen_twist": self._on_eigen_twist,
            "twist.convolve": self._on_convolve,
            "linalg.svd": self._on_svd,
        }

    # --- recording -----------------------------------------------------------

    def span(self, name, layer):
        """Open a span by hand (the benchmark's job spans); returns a closer."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, layer, perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self.stack.append(idx)

        def close():
            rec[3] = perf_counter()
            self.stack.pop()
        return close

    def _wrap(self, fn, name, layer):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, layer, 0.0, None, stack[-1] if stack else -1,
                   tracer.job]
            spans.append(rec)
            stack.append(idx)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result
        return traced

    def _on_words(self, idx, args, kwargs, result):
        self.words[idx] = len(result)

    def _on_weyl(self, idx, args, kwargs, result):
        self.arrows[idx] = (len(result.twist.groupoid.arrows), 1)

    def _on_eigen_twist(self, idx, args, kwargs, result):
        cover = _arg(args, kwargs, 1, "cover", None)
        self.arrows[idx] = (len(result.twist.groupoid.arrows),
                            len(cover.states))

    def _on_convolve(self, idx, args, kwargs, result):
        f = _arg(args, kwargs, 0, "f", None)
        self.pair_visits += len(f.twist.groupoid.compose_table)

    def _on_svd(self, idx, args, kwargs, result):
        self.svd[idx] = svd_cost(
            _arg(args, kwargs, 0, "a", None),
            full_matrices=_arg(args, kwargs, 1, "full_matrices", True),
            compute_uv=_arg(args, kwargs, 2, "compute_uv", True))

    # --- installation --------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        pkg = sys.modules["cartankit"]
        modules = [sys.modules[f"cartankit.{m}"] for m in LAYERS]
        namespaces = [pkg] + modules
        imported = {id(obj) for mod in namespaces
                    for obj in vars(mod).values()
                    if getattr(obj, "__module__", None) != mod.__name__}

        replace = {}  # id(original function) -> wrapper
        for layer, mod in zip(LAYERS, modules):
            for key, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (
                        not key.startswith("_") or id(obj) in imported):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{key}", layer)
                elif inspect.isclass(obj) and not key.startswith("_"):
                    self._install_class(obj, layer)
        for mod in namespaces:
            for key, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, key, replace[id(obj)])
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in replace:
                            self._set(obj, k, replace[id(v)])
        for key in LINALG:
            self._set(np.linalg, key,
                      self._wrap(getattr(np.linalg, key), f"linalg.{key}",
                                 "linalg"))

    def _install_class(self, cls, layer):
        for key, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{key}"
            if isinstance(member, cached_property):
                new = cached_property(self._wrap(member.func, name, layer))
                new.__set_name__(cls, member.attrname)
                self._set(cls, key, new)
            elif inspect.isfunction(member) and (
                    key == "__call__" or not key.startswith("_")) and \
                    f"{cls.__name__}.{key}" not in ACCESSORS:
                self._set(cls, key, self._wrap(member, name, layer))

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # --- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and calls, and the named counters."""
        spans = self.spans
        own = [rec[3] - rec[2] for rec in spans]
        for rec in spans:
            if rec[4] >= 0:
                own[rec[4]] -= rec[3] - rec[2]
        self_s, calls = defaultdict(float), defaultdict(int)
        name_calls, name_s = defaultdict(int), defaultdict(float)
        for rec, t in zip(spans, own):
            self_s[rec[1]] += t
            calls[rec[1]] += 1
            name_calls[rec[0]] += 1
            name_s[rec[0]] += rec[3] - rec[2]

        # yield = twist arrows / (words examined x cover states), where the
        # words are those of the normalizer_words calls the pipeline made
        words_under = defaultdict(int)
        for idx, n in self.words.items():
            words_under[spans[idx][4]] += n
        found = {"weyl": [0, 0], "envelope": [0, 0]}
        for idx, (arrows, states) in self.arrows.items():
            acc = found[spans[idx][1]]
            acc[0] += arrows
            acc[1] += words_under[idx] * states

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["linalg.self_s"] = self_s["linalg"]
        for key in LINALG:
            out[f"linalg.{key}_calls"] = name_calls[f"linalg.{key}"]
            out[f"linalg.{key}_s"] = name_s[f"linalg.{key}"]
        out["linalg.svd_flops"] = float(sum(f for f, _ in self.svd.values()))
        out["linalg.svd_out_mb"] = max(
            (b for _, b in self.svd.values()), default=0) / 2 ** 20
        out["twist.convolve_calls"] = name_calls["twist.convolve"]
        out["twist.pair_visits"] = self.pair_visits
        out["reduced.represent_calls"] = \
            name_calls["reduced.ReducedAlgebra.represent"]
        out["inclusion.normalizer_words_calls"] = \
            name_calls["inclusion.normalizer_words"]
        out["inclusion.words_returned"] = sum(self.words.values())
        for layer, metric in (("envelope", "class_yield"),
                              ("weyl", "germ_yield")):
            hits, base = found[layer]
            out[f"{layer}.{metric}"] = hits / base if base else 0.0
            out[f"{layer}.{metric}_base"] = base
        out["bench.self_s"] = self_s["bench"]
        out["trace.spans"] = len(spans)
        return out
