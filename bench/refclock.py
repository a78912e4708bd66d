"""Timing at reference speed, for a machine shared with other tenants.

Other tenants slow a shared core down by up to 2x, in spells that last
from a second to over a minute, so wall times of one run can differ from
the next by more than any change worth measuring.  ``timed`` therefore
also times a fixed pure-Python kernel just before and just after the
call, and returns the factor that rescales the call's wall time to the
speed at which the kernel takes ``REF_S``: about the speed of an idle core
of the machine the baseline was taken on (x86-64, 2 vCPUs, CPython 3.11),
where the factor is near 1.  The kernel is interpreter-bound like qcnet
and allocates nothing the garbage collector tracks, so a collection never
lands inside it; qcnet code cannot change it.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

T = TypeVar("T")

REF_S = 250e-6  # kernel time on an idle core of the baseline machine


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        k = (i & 63) * 7 + i % 7
        table[k] = table.get(k, 0) + 1
        acc += len(str(i)) + (i ^ (i >> 3)) % 11
    return acc + len(table)


def kernel_s() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """``fn()``, its wall time in seconds, and the factor that scales that
    time to reference speed.  Exceptions from ``fn`` propagate."""
    before = kernel_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = kernel_s()
    return result, wall, 2 * REF_S / (before + after)
