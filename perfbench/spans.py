"""Span tracing installed from the benchmark, around calls into each layer.

A ``Tracer`` replaces each traced function at every name a caller can bind
it by: the module globals of every loaded ``utilsched`` module that hold the
original object, or the class attribute for a method.  Each call then
records a span whose parent is the innermost open span, so a layer's self
time is its span duration minus the time of the spans it caused.  Spans are
folded into per-name totals as they close rather than kept one by one; the
traced frame loops make hundreds of thousands of calls.

``Tracer.restore`` puts every original back.  A target that a later version
of the package deletes or renames is recorded in ``Tracer.absent`` and its
metrics are left out rather than reported as zero.
"""

import functools
import importlib
import sys
import time

PACKAGE = "utilsched"


class SpanStats:
    """Per-name totals of the spans that have closed."""

    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self, keep_durations):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = [] if keep_durations else None


class OpenSpan:
    """A span on the stack: its name, the time and calls of its children."""

    __slots__ = ("name", "child_s", "child_calls")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.child_calls = None

    def count_child(self, name):
        if self.child_calls is None:
            self.child_calls = {}
        self.child_calls[name] = self.child_calls.get(name, 0) + 1


def _resolve(module_name, qualname):
    """Return (owner, attribute, original) or None when the target is gone."""
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Installs span wrappers and aggregates the spans they record."""

    def __init__(self):
        self.stack = []
        self.stats = {}
        self.absent = []
        self.broken = set()
        self._installed = []

    def install(self, name, module_name, qualname, on_result=None, keep_durations=False):
        """Wrap ``utilsched.<module_name>.<qualname>`` as span ``name``.

        ``on_result(result, args, kwargs, span)`` runs after a call returns,
        with the closed span, so a target can record what its result says
        (iteration counts, residuals) without a second call.  A hook that
        cannot read the result marks the span in ``broken``, so the metrics
        it feeds are left out instead of crashing the run.
        """
        found = _resolve(module_name, qualname)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, original = found
        stats = self.stats[name] = SpanStats(keep_durations)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = OpenSpan(name)
            stack.append(span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - span.child_s
                if stats.durations is not None:
                    stats.durations.append(elapsed)
                if stack:
                    parent = stack[-1]
                    parent.child_s += elapsed
                    parent.count_child(name)
            if on_result is not None and name not in self.broken:
                try:
                    on_result(result, args, kwargs, span)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    # the result no longer has the shape the hook reads
                    self.broken.add(name)
            return result

        functools.update_wrapper(wrapper, original)
        if isinstance(owner, type):
            # a method inherited from a base class is shadowed, then deleted again
            self._installed.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            return
        for module in [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, binding, original))
                    setattr(module, binding, wrapper)

    def restore(self):
        """Put back every original binding, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if self.stack:
            raise RuntimeError(f"spans left open: {[s.name for s in self.stack]}")
