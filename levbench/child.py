"""Run one ``levkit`` command the way the console script does, and time it.

Usage: python3 child.py RESULT_JSON [--trace] -- LEVKIT_ARGS...

The process imports ``levkit.cli`` and calls ``main(argv)``, exactly as the
``levkit`` entry point does.  It records the monotonic clock when the import
returns (the parent subtracts its own spawn time to get the set-up time) and
writes that, together with the spans of a traced run, to RESULT_JSON after
``main`` returns.  The exit code is the command's exit code.

With ``--trace`` it wraps the public functions at each layer boundary under
every name a levkit module calls them by, so that ``levkit.cli.simulate``
and ``levkit.dynamics.simulate`` are one wrapper.  Spans (name, start, end,
parent, attributes) stay in memory until the command ends.  ``tracemalloc``
runs only inside the spans that report a peak, so the rest of the command
runs at full speed.
"""

# Only sys and time are imported before levkit, so the measured set-up is
# the console script's; the tracer's imports wait until it is installed.
import sys
import time

import levkit.cli

IMPORTED = time.monotonic()


def _geometry_span(sphere, coupling, geom, *args, **kwargs):
    return {"FingerArray": "newforces.finger",
            "FluidCapillary": "newforces.capillary"}.get(
                type(geom).__name__, "newforces.other")


def _simulated_samples(sphere, trap, config, *args, **kwargs):
    return {"samples": int(round(config.duration / config.time_step))}


# (module, function, span name, span attributes, track tracemalloc peak).
# A callable span name or attribute function is applied to the call's
# arguments; the finger and capillary kernels share one public entry point.
TRACED = (
    ("levkit.config", "load_config", "config.load_config", None, False),
    ("levkit.config", "normalize_config", "config.normalize_config", None, False),
    ("levkit.newforces", "yukawa_force_modulated", _geometry_span, None, False),
    ("levkit.limits", "isl_projection", "limits.isl_projection", None, False),
    ("levkit.limits", "coulomb_projection", "limits.coulomb_projection", None, False),
    ("levkit.limits", "dm_projection", "limits.dm_projection", None, False),
    ("levkit.dynamics", "simulate", "dynamics.simulate", _simulated_samples, True),
    ("levkit.dynamics", "estimate_psd", "dynamics.estimate_psd", None, False),
    ("levkit.dynamics", "impulse_response_template",
     "dynamics.impulse_response_template", None, False),
    ("levkit.dynamics", "matched_filter_outputs",
     "dynamics.matched_filter_outputs", None, False),
    ("levkit.dynamics", "matched_filter_threshold",
     "dynamics.matched_filter_threshold", None, True),
    ("levkit.cli", "cmd_simulate", "cli.simulate", None, False),
    ("levkit.cli", "cmd_exclusion", "cli.exclusion", None, False),
)


class Tracer:
    """In-memory span recorder with nested tracemalloc peaks."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, attributes]
        self.stack = []     # indices of open spans
        self.mem = []       # open memory frames: [span index, base, peak]

    def wrap(self, fn, name, attrs, track_memory):
        import tracemalloc

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            extra = attrs(*args, **kwargs) if attrs else {}
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [span_name, 0.0, 0.0, parent, extra]
            self.spans.append(span)
            self.stack.append(index)
            if track_memory:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                current, peak = tracemalloc.get_traced_memory()
                for frame in self.mem:
                    frame[2] = max(frame[2], peak)
                tracemalloc.reset_peak()
                self.mem.append([index, current, current])
            span[1] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
                if track_memory:
                    _, peak = tracemalloc.get_traced_memory()
                    frame = self.mem.pop()
                    frame[2] = max(frame[2], peak)
                    extra["peak_bytes"] = frame[2] - frame[1]
                    if self.mem:
                        self.mem[-1][2] = max(self.mem[-1][2], frame[2])
                    else:
                        tracemalloc.stop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import importlib

        for module_name, attr, name, attrs, track_memory in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, attrs, track_memory)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "levkit" and not mod_name.startswith("levkit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def main():
    result_path = sys.argv[1]
    rest = sys.argv[2:]
    tracer = None
    if rest and rest[0] == "--trace":
        tracer = Tracer()
        tracer.install()
        rest = rest[1:]
    if not rest or rest[0] != "--":
        sys.exit("usage: child.py RESULT_JSON [--trace] -- LEVKIT_ARGS...")
    code = levkit.cli.main(rest[1:])
    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"imported": IMPORTED,
                   "spans": tracer.spans if tracer else []}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
