"""How fast the machine runs Python right now, from a fixed calibration loop.

The shared machine this benchmark was tuned on changes speed by up to 1.6x
over tens of seconds while its load average stays flat (the slowdown does not
show as steal time either, so CPU time does not help).  Raw CPU-bound timings
of identical code then spread by 20-25 % between runs.  A fixed pure-Python
loop that allocates small objects, fills a dict and sorts them slows down by
the same factor: timed right next to a pass, it gives the pass's slowdown.

``scale()`` is the measured seconds per calibration rep over
``REFERENCE_REP_S``: above 1 the machine is running slower than the
reference, and a CPU-bound duration divided by it is what the reference
machine would have taken.  The loop touches no code of the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

REFERENCE_REP_S = 0.001


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def _rep() -> int:
    table = {}
    for i in range(1000):
        item = _Item(i, str(i))
        table[item.name] = item
    ordered = sorted(table.values(), key=lambda it: (it.key % 97, it.name))
    return sum(it.key for it in ordered if it.name in table)


def scale(budget_s: float) -> float:
    """Slowdown against the reference, measured over about ``budget_s`` seconds."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        _rep()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / reps / REFERENCE_REP_S
