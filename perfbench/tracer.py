"""Per-layer spans for the toricsegre modules, recorded from outside the
package.

``Tracer.installed()`` replaces every public function of the measured
modules, and every public method of their public classes other than the
per-term value types (``LEAF_CLASSES``), with a timing wrapper.  The wrapper is bound in every ``toricsegre`` module namespace
that binds the original (``saturate_ideal`` lives in both ``groebner`` and
``segre``), so no call escapes its span.  Leaving the context restores the
originals.

Each wrapped name collects ``calls``, inclusive seconds ``s`` (outermost
activation only, so recursion is not counted twice) and ``self_s``:
inclusive time minus the time of wrapped children.  Names read
``<module>.<function>`` for functions and ``<module>.<method>`` for methods;
a method whose name a module already uses reads
``<module>.<Class>.<method>``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from time import perf_counter

MODULES = ("cli", "parser", "fan", "chow", "cones", "segre", "groebner",
           "linalg", "exactpoly")

# Per-term value types: their methods run once per monomial, so a span
# around them would time the wrapper rather than the layer.
LEAF_CLASSES = frozenset({"Polynomial", "GrevLex", "BlockOrder",
                          "RingContext"})

# Results whose coefficient sizes feed groebner.max_coeff_bits.
_COEFF_SOURCES = {"groebner.groebner_basis": "elements",
                  "groebner.saturate_ideal": "generators"}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "toricsegre"
                                  or name.startswith("toricsegre."))]


def traced_targets():
    """(name, owner, attribute, original) for every callable to wrap.

    ``owner`` is the module or class that defines it; ``original`` is the
    raw function (for class- and static methods, the descriptor)."""
    import toricsegre  # noqa: F401  (loads the package)
    targets = []
    for short in MODULES:
        mod = sys.modules["toricsegre." + short]
        names = set()
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__):
                targets.append(("%s.%s" % (short, attr), mod, attr, val))
                names.add(attr)
        for cname, cls in vars(mod).items():
            if (cname.startswith("_") or cname in LEAF_CLASSES
                    or not inspect.isclass(cls)
                    or cls.__module__ != mod.__name__):
                continue
            for attr, val in vars(cls).items():
                if attr.startswith("_"):
                    continue
                fn = val.__func__ if isinstance(
                    val, (classmethod, staticmethod)) else val
                if not inspect.isfunction(fn):
                    continue  # properties and plain attributes
                label = attr if attr not in names else "%s.%s" % (cname, attr)
                names.add(label)
                targets.append(("%s.%s" % (short, label), cls, attr, val))
    return targets


def _coeff_bits(polys):
    bits = 0
    for p in polys:
        for c in p.coeffs.values():
            bits = max(bits, abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
    return bits


class Tracer:
    """Span statistics for one traced pass (or several, accumulated)."""

    def __init__(self):
        self.stats = {}      # name -> [calls, inclusive_s, self_s]
        self.edges = {}      # (parent name, child name) -> inclusive_s
        self.max_coeff_bits = 0
        self._stack = []     # open spans: [name, child seconds]
        self._depth = {}     # name -> open activations (recursion)
        self._paused = False

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth, edges = self._stack, self._depth, self.edges
        coeff_attr = _COEFF_SOURCES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += dt - frame[1]
                if not depth[name]:
                    stats[1] += dt
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0.0) + dt
            if coeff_attr is not None:
                # inspecting the result is tracer work: keep it out of
                # the parent's self time
                t1 = perf_counter()
                tracer.max_coeff_bits = max(
                    tracer.max_coeff_bits,
                    _coeff_bits(getattr(result, coeff_attr)))
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patches = []  # (owner, attribute, original value)
        try:
            modules = _package_modules()
            for name, owner, attr, val in traced_targets():
                if inspect.isclass(owner):
                    if isinstance(val, (classmethod, staticmethod)):
                        new = type(val)(self._wrap(name, val.__func__))
                    else:
                        new = self._wrap(name, val)
                    patches.append((owner, attr, val))
                    setattr(owner, attr, new)
                    continue
                new = self._wrap(name, val)
                for mod in modules:
                    for key, bound in list(vars(mod).items()):
                        if bound is val:
                            patches.append((mod, key, val))
                            setattr(mod, key, new)
            yield self
        finally:
            for owner, attr, val in reversed(patches):
                setattr(owner, attr, val)

    @contextlib.contextmanager
    def paused(self):
        """Calls in the block run unrecorded (benchmark-side work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def module_self_s(self, module):
        prefix = module + "."
        return sum(v[2] for k, v in self.stats.items()
                   if k.startswith(prefix))
