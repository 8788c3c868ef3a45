"""Per-layer tracing of nmrteleport from outside the package.

:meth:`Tracer.install` replaces every public function of the seven modules
with a timing wrapper, in every module namespace that bound it (the
modules import each other's functions by name, so ``lift_operator`` is
also bound in ``channels``, ``circuits`` and ``nmr``).  ``DensityMatrix``
constructions are counted through ``__post_init__``, and ``eigvalsh``
calls through ``numpy.linalg`` while a ``DensityMatrix`` is being validated
(its positivity check), not those of other modules or of ``state_fidelity``.  A span stack gives every span its self time:
its duration minus the time covered by the spans it caused.

Run as a script, it traces one CLI invocation::

    python perfbench/tracer.py TRACE.json compare --engine pulse --out DIR

which behaves like ``python -m nmrteleport compare ...`` and afterwards
writes the trace to TRACE.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("qstate", "channels", "circuits", "nmr", "tomography", "experiment", "cli")


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        # "<engine>_<experiment>" (or "channel") -> [points, DensityMatrix constructions]
        self.points: dict[str, list] = defaultdict(lambda: [0, 0])
        self._stack: list[list[float]] = []
        self._validating = 0  # DensityMatrix.__post_init__ frames open

    def wrap(self, name, fn, enter=None):
        """Time ``fn`` as span ``name``; ``enter(args, kwargs)`` may return an exit callback."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            leave = enter(args, kwargs) if enter else None
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = spans[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            return leave(result) if leave else result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # Hooks that record counts at the layer boundaries.

    def _count_kraus(self, args, kwargs):
        channel = args[1] if len(args) > 1 else kwargs["channel"]
        self.counters["channels.kraus_elements_applied"] += len(channel.elements)

    def _count_schedule(self, args, kwargs):
        schedule = args[0] if args else kwargs["schedule"]
        for ev in schedule.events:
            key = "nmr.rf_rotations" if type(ev).__name__ == "RfRotation" else "nmr.free_evolutions"
            self.counters[key] += 1

    def _label_process(self, signature):
        def enter(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            label = f"{bound.arguments['engine']}_{bound.arguments['experiment']}"

            def leave(evaluate):
                evaluate.perfbench_label = label
                return evaluate

            return leave

        return enter

    def _count_point(self, args, kwargs):
        evaluate = args[0] if args else kwargs["evaluate"]
        label = getattr(evaluate, "perfbench_label", "channel")
        before = self.spans["qstate.DensityMatrix"][0]

        def leave(result):
            entry = self.points[label]
            entry[0] += 1
            entry[1] += self.spans["qstate.DensityMatrix"][0] - before
            return result

        return leave

    def install(self) -> None:
        """Wrap the public functions of every module; call once per process."""
        import numpy as np

        modules = [importlib.import_module(f"nmrteleport.{m}") for m in MODULES]
        hooks = {
            "channels.apply_channel": self._count_kraus,
            "nmr.simulate_schedule": self._count_schedule,
            "tomography.process_tomography": self._count_point,
        }
        wrapped = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                enter = hooks.get(name)
                if name == "experiment.build_process":
                    enter = self._label_process(inspect.signature(obj))
                wrapped[obj] = self.wrap(name, obj, enter)
        for module in [importlib.import_module("nmrteleport"), *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

        qstate = modules[0]
        post_init = self.wrap("qstate.DensityMatrix", qstate.DensityMatrix.__post_init__)
        eigvalsh = np.linalg.eigvalsh
        timed_eigvalsh = self.wrap("qstate.eigvalsh", eigvalsh)

        def validating_post_init(dm):
            self._validating += 1
            try:
                return post_init(dm)
            finally:
                self._validating -= 1

        def eigvalsh_in_validation(*args, **kwargs):
            return (timed_eigvalsh if self._validating else eigvalsh)(*args, **kwargs)

        qstate.DensityMatrix.__post_init__ = validating_post_init
        np.linalg.eigvalsh = eigvalsh_in_validation

    def snapshot(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
            "points": {k: {"points": v[0], "constructions": v[1]} for k, v in sorted(self.points.items())},
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.snapshot(), f, sort_keys=True)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("nmrteleport.cli")
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
