"""Machine-speed calibration for the end-to-end times.

On a shared machine other tenants slow every instruction of a run by up to
1.6x for seconds to minutes, which swamps a 10-25% change of the program.
The runner therefore times a fixed reference, a small first-order
evaluator of the benchmark's own that never touches unifrag, about every
``EVERY_S`` seconds between ops, and reports each op's wall time scaled by
``NOMINAL_S / t_ref``, where ``t_ref`` is the median reference time around
that op.  A reported time is then the op's wall time on a machine on which
the reference takes ``NOMINAL_S``; a change of the program moves it as much
as it moves the wall time, a slow spell of the machine much less.

The reference runs with the cyclic garbage collector off, so that the
program's heap (which a collection would have to walk) does not slow it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# seconds between two reference samples taken between ops
EVERY_S = 0.05
# reference samples on each side of an op that its scale is taken over
HALF_WINDOW = 4
# a round figure near the reference's median time on the baseline machine
# (2-vCPU Xeon, Python 3.11), so that scaled times read close to wall times
NOMINAL_S = 0.001

# a fixed structure over {R:2, P:1} on five elements and twelve fixed
# formulas of depth 4, as nested tuples
_rng = random.Random(7)
_DOMAIN = tuple(range(5))
_R = frozenset((a, b) for a in _DOMAIN for b in _DOMAIN if _rng.random() < 0.4)
_P = frozenset(a for a in _DOMAIN if _rng.random() < 0.5)


def _formula(depth: int, var: int):
    if depth == 0:
        return ("R", var, 1) if _rng.random() < 0.5 else ("P", var)
    kind = _rng.randrange(4)
    if kind == 0:
        return ("not", _formula(depth - 1, var))
    if kind == 1:
        return ("and", _formula(depth - 1, var), _formula(depth - 1, var))
    if kind == 2:
        return ("or", _formula(depth - 1, var), _formula(depth - 1, 1))
    return ("exists", 1, _formula(depth - 1, 1))


_FORMULAS = [_formula(4, 0) for _ in range(12)]


def _holds(f, env: dict) -> bool:
    kind = f[0]
    if kind == "R":
        return (env.get(f[1], 0), env.get(f[2], 0)) in _R
    if kind == "P":
        return env.get(f[1], 0) in _P
    if kind == "not":
        return not _holds(f[1], env)
    if kind == "and":
        return _holds(f[1], env) and _holds(f[2], env)
    if kind == "or":
        return _holds(f[1], env) or _holds(f[2], env)
    return any(_holds(f[2], {**env, f[1]: a}) for a in _DOMAIN)


def _reference() -> int:
    return sum(len(frozenset(a for a in _DOMAIN if _holds(f, {0: a})))
               for _ in range(3) for f in _FORMULAS)


class Ruler:
    """Reference samples taken through a run, and the scales they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = time.perf_counter()

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self._due = time.perf_counter() + EVERY_S
        return elapsed

    def tick(self) -> int:
        """Sample when due; the index of the next sample, which marks the
        position of the op that just ended."""
        if time.perf_counter() >= self._due:
            self.sample()
        return len(self.samples)

    def scale(self, position: int) -> float:
        """NOMINAL_S over the median reference time around a position."""
        lo = max(0, position - HALF_WINDOW)
        window = self.samples[lo:position + HALF_WINDOW] or self.samples[-HALF_WINDOW:]
        return NOMINAL_S / statistics.median(window)

    def bracket(self, fn, samples: int = 3):
        """Run fn between reference samples; its result and the scale of the
        samples on both sides."""
        before = [self.sample() for _ in range(samples)]
        result = fn()
        after = [self.sample() for _ in range(samples)]
        return result, NOMINAL_S / statistics.median(before + after)
