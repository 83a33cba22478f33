"""Host-speed calibration for the benchmark's timings.

The speed of a shared host drifts by tens of percent over minutes, in CPU time
as much as in wall time.  ``calibrate`` times a fixed kernel that does not
call srdf_kit; a time measured next to it is reported in reference seconds,
``dt * CAL_REF_S / calibration``.  The kernel is imported by the benchmark
process and by its fresh-interpreter import probes, so both calibrate on the
CPU they run on.
"""

import time

import numpy

CAL_REF_S = 0.004          # the kernel's time on an idle 2-vCPU x86-64 VM

_A = numpy.random.default_rng(0).standard_normal((40, 40))
_S = _A @ _A.T


def calibrate() -> float:
    """Seconds taken by a fixed mix of small dense linear algebra and interpreter
    work, the two kinds of work the jobs spend their time in."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        acc += float(numpy.linalg.eigh(_S)[0][0])
        acc += float((_S @ _S)[0, 0])
        acc += sum(i * 0.5 for i in range(1500))
        acc += len({i: str(i) for i in range(300)})
    if not numpy.isfinite(acc):
        raise ArithmeticError("calibration kernel gave a non-finite value")
    return time.perf_counter() - t0


class Clock:
    """``scaled(dt)`` turns a time just measured into reference seconds, using the
    calibrations before and after it."""

    def __init__(self):
        self.last = calibrate()
        self.cal: list[float] = [self.last]

    def scaled(self, dt: float) -> float:
        now = calibrate()
        self.cal.append(now)
        speed = CAL_REF_S / (0.5 * (self.last + now))
        self.last = now
        return dt * speed
