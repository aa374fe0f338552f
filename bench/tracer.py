"""In-memory span recorder for the traced benchmark pass.

`install` wraps the package's public functions, and the numpy and mpmath
kernels they call, at every module binding of each name (attacks imports
`tmsv` by name, for example), so each call opens a span. Spans aggregate per
name into calls, total time, child time and errors; self time is the total
minus the part covered by child spans. Nothing in the package is edited: the
wrappers live only in the process that installs them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# Public functions traced per module, spans named "<module>.<function>".
PUBLIC = {
    "cli": ("main",),
    "keyrate": ("sweep",),
    "attacks": (
        "optimize_attack",
        "holevo_bound",
        "eve_info",
        "ao_attack_state",
        "simulation_residual",
    ),
    "gaussian": (
        "tmsv",
        "condition_heterodyne",
        "von_neumann_entropy",
        "beam_splitter",
        "two_mode_squeezer",
    ),
    "channels": ("effective_channel", "apply_channel"),
    "teleportation": ("ao_simulate", "ao_effective_channel", "bk_effective_channel"),
    "verify": ("run_all",),
}

# Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = ("attacks.optimize_attack",)


class Stat:
    __slots__ = ("calls", "total", "child", "errors", "counted", "durations")

    def __init__(self, keep: bool):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.errors = 0
        self.counted = 0
        self.durations = [] if keep else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # child-time accumulator of each open span, innermost last
        self._open: list[float] = []

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(name in KEEP_DURATIONS)
        return self.stats[name]

    def _close(self, stat: Stat, t0: float) -> None:
        dt = time.perf_counter() - t0
        stat.calls += 1
        stat.total += dt
        stat.child += self._open.pop()
        if self._open:
            self._open[-1] += dt
        if stat.durations is not None:
            stat.durations.append(dt)

    def span(self, name: str, fn, counter=None):
        """Wrap fn so that each call records a span; counter, if given, is a
        monotone count whose growth during the call is added to the span."""
        stat = self._stat(name)
        opened = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = counter() if counter else 0
            opened.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._close(stat, t0)
                if counter:
                    stat.counted += counter() - before

        return traced

    def block(self, name: str, factory):
        """Wrap a context-manager factory so that each `with` block is a span."""
        tracer = self
        stat = self._stat(name)

        class Traced:
            def __init__(self, *args, **kwargs):
                self.inner = factory(*args, **kwargs)

            def __enter__(self):
                value = self.inner.__enter__()
                tracer._open.append(0.0)
                self.t0 = time.perf_counter()
                return value

            def __exit__(self, *exc):
                tracer._close(stat, self.t0)
                return self.inner.__exit__(*exc)

        return Traced

    def summary(self) -> dict[str, dict]:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.total - s.child,
                "errors": s.errors,
                "counted": s.counted,
                "durations": s.durations,
            }
            for name, s in self.stats.items()
        }


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Trace the imported package in this process. Returns a function that
    counts CovMat validations monotonically, across the audit resets that
    the physicality-battery check makes in the middle of a run."""
    import mpmath
    import numpy as np

    from cvqkd_attacks import gaussian, verify

    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "cvqkd_attacks" or name.startswith("cvqkd_attacks.")
    ]

    carried = [0]
    audit = gaussian.physicality_audit
    reset = gaussian.reset_physicality_audit

    def validations() -> int:
        return carried[0] + audit()[1]

    def carrying_reset():
        carried[0] += audit()[1]
        reset()

    _rebind(modules, reset, carrying_reset)

    for module, names in PUBLIC.items():
        mod = sys.modules[f"cvqkd_attacks.{module}"]
        for fn_name in names:
            fn = getattr(mod, fn_name, None)
            if fn is not None:
                _rebind(modules, fn, tracer.span(f"{module}.{fn_name}", fn))

    covmat = gaussian.CovMat
    covmat.__post_init__ = tracer.span("gaussian.covmat", covmat.__post_init__)

    verify.CHECKS = tuple(
        dataclasses.replace(c, fn=tracer.span(f"verify.check.{c.name}", c.fn, validations))
        for c in verify.CHECKS
    )

    np.linalg.eigvals = tracer.span("kernel.numpy_eigvals", np.linalg.eigvals)
    np.linalg.inv = tracer.span("kernel.numpy_inv", np.linalg.inv)
    mpmath.eig = tracer.span("kernel.mpmath_eig", mpmath.eig)
    mpmath.mp.workdps = tracer.block("kernel.mpmath_workdps", mpmath.mp.workdps)
    return validations
