"""In-memory spans recorded around a program's functions, from outside it.

`Tracer.wrap` replaces a module attribute with a timing wrapper.  Each
call records one span: name, start, end, the span that was open when it
started (its parent) and an optional note computed from the call's
arguments and result.  Spans stay in memory; `restore` puts every
original attribute back.
"""

import functools
import time
import types


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, note]
        self._open = []
        self._saved = []

    def wrap(self, owner, attr, name, note=None):
        """Time every call of `owner.attr` as a span called `name`.

        Raises LookupError when the attribute is gone, so that a renamed
        layer fails the traced run instead of silently reading as zero.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            raise LookupError(f"{owner.__name__}.{attr} does not exist; update the benchmark's layer list")
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        timed.span_name = name
        self._saved.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self):
        """Put back every wrapped attribute, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def notes(self, name):
        return [span[4] for span in self.spans if span[0] == name]

    def count_children(self, child, parent):
        """Number of `child` spans whose direct parent is a `parent` span."""
        return sum(
            1 for span in self.spans
            if span[0] == child and span[3] is not None and self.spans[span[3]][0] == parent
        )


def span_cost(calls=20000):
    """Seconds one span adds to a call: a wrapped no-op against the bare no-op."""
    module = types.ModuleType("probe")
    module.noop = lambda: None
    timings = []
    for wrapped in (False, True):
        tracer = Tracer()
        if wrapped:
            tracer.wrap(module, "noop", "probe.noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            module.noop()
        timings.append(time.perf_counter() - t0)
        tracer.restore()
    return (timings[1] - timings[0]) / calls
