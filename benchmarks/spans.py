"""Outside-in layer tracing for onsaw.

The tracer wraps public functions and methods of each ``onsaw`` module from
outside, keeps a span stack, and aggregates per span name:

- ``calls``: completed calls that did work (a dunder returning
  ``NotImplemented`` did none and is not counted);
- ``self_s``: the span's duration minus the durations of the spans it directly
  encloses, so recursion (``reduce``) and operator nesting add up correctly;
- ``total_s``: the inclusive duration, meaningful for spans that do not nest
  inside themselves (the CLI suites);
- work counters filled in by per-span hooks.

Two ways of wrapping would silently miss calls, so ``install`` rebinds every
reference to a wrapped object that onsaw holds: aliases in class dicts
(``__radd__ = __add__``), names re-bound by ``from .x import y`` in every
``onsaw.*`` module, and defaults captured at definition time
(``verify_dolan_grady(bracket_fn=bracket)``).  ``restore`` puts every one of
them back.
"""

import inspect
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def onsaw_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "onsaw" or name.startswith("onsaw."))
    ]


def _onsaw_classes(modules):
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__.startswith("onsaw"):
                seen[id(value)] = value
    return list(seen.values())


def _functions_of(owner):
    for value in vars(owner).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if inspect.isfunction(value):
            yield value


def bindings():
    """Every (owner, key) slot through which onsaw code reaches an object.

    Owners are modules, classes, and functions (for their ``__defaults__``
    and ``__kwdefaults__``).  Returns a list of (owner, key, value).
    """
    modules = onsaw_modules()
    classes = _onsaw_classes(modules)
    out = []
    functions = {}
    for owner in modules + classes:
        for key, value in list(vars(owner).items()):
            out.append((owner, key, value))
        for fn in _functions_of(owner):
            functions[id(fn)] = fn
    for fn in functions.values():
        if fn.__defaults__:
            out.append((fn, "__defaults__", fn.__defaults__))
        if fn.__kwdefaults__:
            out.append((fn, "__kwdefaults__", fn.__kwdefaults__))
    return out


class Tracer:
    """Aggregating span tracer; one instance per traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []
        self._undo = []

    def wrap(self, fn, span, hook=None):
        """Return a wrapper recording one span per call of ``fn``.

        ``span`` is a name, or a function of the call's arguments giving one.
        ``hook(tracer, args, result)`` runs after a call that did work; its
        cost, like the wrapper's, is hidden from the enclosing span's self
        time.
        """
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        dynamic = callable(span)

        def traced(*args, **kwargs):
            name = span(args) if dynamic else span
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
            if result is not NotImplemented:
                calls[name] += 1
                if hook is not None:
                    hook(self, args, result)
            if stack:
                stack[-1][0] += perf_counter() - t0
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap each (owner, attr, span, hook) target and rebind every
        reference to the original that onsaw holds."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        # Ids are safe keys: each original stays alive inside its wrapper.
        wrappers = {}
        for owner, attr, span, hook in targets:
            original = vars(owner)[attr]
            wrappers[id(original)] = self.wrap(original, span, hook)

        def swap(value):
            return wrappers.get(id(value), value)

        for owner, key, value in bindings():
            if key == "__defaults__":
                new = tuple(map(swap, value))
                changed = any(a is not b for a, b in zip(new, value))
            elif key == "__kwdefaults__":
                new = {k: swap(v) for k, v in value.items()}
                changed = any(new[k] is not v for k, v in value.items())
            else:
                new = swap(value)
                changed = new is not value
            if changed:
                self._set(owner, key, value, new)

    def _set(self, owner, key, old, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def restore(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)
