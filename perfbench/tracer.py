"""Span tracer for the benchmark's traced runs.

The tracer replaces chosen flipproc functions with wrappers that record a
span per call: name, start, end, parent span and the job label the harness
set.  Because flipproc modules import functions from each other by name
(``flipproc.equivalence`` holds its own ``enumerate_classes``,
``flipproc.cli`` its own ``compare``), a wrapper is bound into every loaded
flipproc module whose namespace holds the original function object, and
``uninstall`` puts every original back.  Spans stay in memory until the
harness writes them out.
"""

import resource
import sys
import time

# Wrapped functions, as (module, function).  simulate.step is deliberately
# absent: at about 5 us per step a per-call wrapper would add about 20% to
# the step loop, which is measured instead as the self time of run().
TARGETS = (
    ("flipproc.codes", "enumerate_classes"),
    ("flipproc.codes", "canonical_class"),
    ("flipproc.rules", "is_symmetric"),
    ("flipproc.rules", "load_rule"),
    ("flipproc.rules", "validate"),
    ("flipproc.equivalence", "coeff_vector"),
    ("flipproc.equivalence", "compare"),
    ("flipproc.equivalence", "lift"),
    ("flipproc.equivalence", "symmetrize"),
    ("flipproc.equivalence", "classify_unique"),
    ("flipproc.dynamics", "velocity"),
    ("flipproc.dynamics", "integrate"),
    ("flipproc.simulate", "sample_graph"),
    ("flipproc.simulate", "block_densities"),
    ("flipproc.simulate", "run"),
    ("flipproc.simulate", "transference_check"),
    ("flipproc.cli", "main"),
)

_MARK = "__perfbench_span__"


def _configured_steps(config):
    """Steps a simulate.run call is configured for: floor(T n^2) per run,
    by the same rounding the simulator's sample schedule uses."""
    return config.runs * int(config.horizon * config.n * config.n + 1e-9)


# Counts recorded at the boundary, from a call's arguments and result.
EXTRAS = {
    "dynamics.integrate": lambda args, result: len(result.times) - 1,
    "simulate.run": lambda args, result: _configured_steps(args[0]),
    "simulate.transference_check": lambda args, result: result[0]["runs_passing"],
}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _flipproc_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "flipproc" or name.startswith("flipproc."))
    ]


def require_untraced():
    """Raise when any tracer wrapper is bound in a flipproc module."""
    found = [
        f"{mod.__name__}.{attr}"
        for mod in _flipproc_modules()
        for attr, value in list(vars(mod).items())
        if callable(value) and hasattr(value, _MARK)
    ]
    if found:
        raise RuntimeError(f"untraced run found tracer wrappers: {found}")


class Tracer:
    """Spans are lists [name, start, end, parent, job, extra]; parent is the
    index of the enclosing span or -1, extra a number some spans carry:
    maxrss growth in MB for enumerate_classes, otherwise from EXTRAS."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    def install(self):
        import flipproc.cli  # noqa: F401  -- cli.main is a target
        require_untraced()
        modules = _flipproc_modules()
        for module, func in TARGETS:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(module.split(".", 1)[1] + "." + func, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        require_untraced()

    def adopt(self, spans):
        """Append spans recorded by a traced child process as top-level
        spans of the current job."""
        offset = len(self.spans)
        for name, start, end, parent, _, extra in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               self.job, extra])

    def _wrap(self, name, original):
        spans, stack = self.spans, self._stack
        rss = name == "codes.enumerate_classes"
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(idx)
            rss0 = _maxrss_mb() if rss else 0.0
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if rss:
                span[5] = _maxrss_mb() - rss0
            elif extra is not None:
                span[5] = extra(args, result)
            return result

        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        setattr(wrapper, _MARK, original)
        return wrapper


def self_times(spans):
    """Per span: duration minus the time its direct children cover.  Calls
    are synchronous and single-threaded, so children never overlap."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
