"""Outside-in layer tracing: wrap boostcav's public functions, change no file.

Modules import layer functions by name (`from .quadrature import
gauss_legendre`), so wrapping the defining module is not enough: every
`boostcav.*` module attribute that *is* a layer function is replaced, and
so are the entries of `verify.MODULE_GROUPS`. Integrands handed to the
quadrature layer are wrapped too, so their time and abscissa count are
split from the quadrature's own. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

# in the order the CLI calls them; cavity and reports are plain data
LAYERS = ("cli", "verify", "rect2d", "observables", "regsum", "stress", "modes", "quadrature")
VERIFY_GROUPS = ("modes", "stress", "regsum", "observables", "rect2d")
REUSE_KEYED = ("rect_finite_parts", "cutoff_finite_part")

# span fields
LAYER, NAME, PARENT, REQUEST, START, END, INTEGRAND_S, INTEGRAND_CALLS, POINTS, OUTERMOST = range(10)


def _freeze(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(x) for x in value)
    return value


def _reuse_key(name: str, args: tuple, kwargs: dict):
    """(geometry, schedule) of a finite-part call."""
    if name == "rect_finite_parts":
        return name, args[0], args[1], args[2] if len(args) > 2 else kwargs["config"]
    summand = args[0] if args else kwargs["summand"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    state = tuple(sorted((k, _freeze(x)) for k, x in vars(summand).items()))
    return name, type(summand).__name__, state, config


class Tracer:
    """Spans of every wrapped call, plus the reuse count of finite-part calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._restore: list[tuple] = []
        self.request = -1
        self._seen: set = set()
        self.keyed_calls = 0
        self.repeats = 0

    # -- recording --------------------------------------------------------
    def start_request(self, index: int) -> None:
        """Spans of one request share its index; reuse is judged per process."""
        self.request = index
        self._seen = set()

    def _wrap(self, layer: str, name: str, fn):
        integrand = layer == "quadrature"
        keyed = name in REUSE_KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, self._stack[-1] if self._stack else -1, self.request,
                    0.0, 0.0, 0.0, 0, 0, self._depth[layer] == 0]
            if integrand:
                args = (self._timed_integrand(span, args[0]),) + args[1:]
            if keyed:
                key = _reuse_key(name, args, kwargs)
                self.keyed_calls += 1
                self.repeats += key in self._seen
                self._seen.add(key)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._depth[layer] += 1
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._depth[layer] -= 1
                self._stack.pop()

        return traced

    @staticmethod
    def _timed_integrand(span: list, f):
        def integrand(*xs):
            t0 = perf_counter()
            try:
                return f(*xs)
            finally:
                span[INTEGRAND_S] += perf_counter() - t0
                span[INTEGRAND_CALLS] += 1
                span[POINTS] += np.broadcast(*xs).size

        return integrand

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Replace every reference to a layer's public functions."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"boostcav.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "boostcav" and not mod_name.startswith("boostcav."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        groups = sys.modules["boostcav.verify"].MODULE_GROUPS
        for group, fn in list(groups.items()):
            self._restore.append((groups, group, fn))
            groups[group] = self._wrap("verify", f"group:{group}", fn)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- aggregation ------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s (outermost spans only) and self_s per layer."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.total_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for group in VERIFY_GROUPS:
            out[f"verify.{group}.total_s"] = 0.0
        out["quadrature.integrand_s"] = 0.0
        out["quadrature.integrand_calls"] = 0
        out["quadrature.points"] = 0
        for i, span in enumerate(self.spans):
            layer, duration = span[LAYER], span[END] - span[START]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child_time[i] - span[INTEGRAND_S]
            if span[OUTERMOST]:
                out[f"{layer}.total_s"] += duration
            if span[NAME].startswith("group:"):
                out[f"verify.{span[NAME][6:]}.total_s"] += duration
            if layer == "quadrature":
                out["quadrature.integrand_s"] += span[INTEGRAND_S]
                out["quadrature.integrand_calls"] += span[INTEGRAND_CALLS]
                out["quadrature.points"] += span[POINTS]
        out["regsum.repeat_frac"] = self.repeats / self.keyed_calls if self.keyed_calls else 0.0
        return out

    def dump(self) -> dict:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        fields = ["layer", "name", "parent", "request", "start_s", "end_s",
                  "integrand_s", "integrand_calls", "points"]
        rows = [[LAYERS.index(s[LAYER]), index[s[NAME]], s[PARENT], s[REQUEST],
                 round(s[START], 7), round(s[END], 7), round(s[INTEGRAND_S], 7),
                 s[INTEGRAND_CALLS], s[POINTS]] for s in self.spans]
        return {"layers": list(LAYERS), "names": names, "fields": fields, "spans": rows}
