"""Outside-in layer trace: wrap every public function of the traced
orientgeo modules and attribute wall time and call counts to them.

The wrapper replaces the module attribute, so both cross-module calls
(`losses.objective(...)` from harness) and same-module calls through a
global name are caught.  Functions added to a module later are picked up
without editing this file.  Class constructors and methods are not
wrapped: their time counts toward the calling function.

Self time of a call is its wall time minus the wall time of the wrapped
calls it made.  The wrapper's own cost (two clock reads and a few list
operations per call) lands in the caller's self time, which is why the
benchmark also reports the traced-minus-untraced difference.
"""

import collections
import functools
import importlib
import inspect
import time

MODULES = ("harness", "dictionary", "losses", "models", "so3", "metrics", "gradcheck", "jitter")


def public_functions(module):
    """(name, function) for every public function defined in `module`."""
    return [
        (name, obj)
        for name, obj in sorted(vars(module).items())
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Per-function inclusive time, self time and call count while installed.

    `hooks` maps "module.function" to a callable(args, result) run
    after each successful call, for counters that need the arguments or
    the result (rows through a layer, flags on a returned value).
    """

    def __init__(self, hooks):
        self.hooks = hooks
        self.inclusive = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.calls = collections.Counter()
        self._originals = []
        self._child = [0.0]  # wall time of wrapped children, one slot per open call

    def _wrap(self, key, fn):
        clock = time.perf_counter
        child = self._child
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls
        hook = self.hooks.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                inclusive[key] += dt
                self_time[key] += dt - inner
                calls[key] += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __enter__(self):
        for modname in MODULES:
            module = importlib.import_module(f"orientgeo.{modname}")
            for name, fn in public_functions(module):
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{modname}.{name}", fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()
        return False

    @property
    def attributed(self):
        """Wall time inside outermost wrapped calls: the sum of all self times."""
        return self._child[0]

    def module_self(self, modname):
        return sum(v for k, v in self.self_time.items() if k.split(".", 1)[0] == modname)

    def module_calls(self, modname):
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == modname)
