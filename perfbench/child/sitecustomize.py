"""Calibration inside each smx child process of the cli-cold workload.

cli-cold puts this directory first on the child's PYTHONPATH, so the
interpreter imports this module at start-up, before smx. It runs the
calibration blocks of perfbench/speed.py once before the child's own work
and once at exit, on the CPU that runs the child, and writes both sample
times and the seconds they took to the file named by
PERFBENCH_CALIBRATION. A sample taken by the parent on another CPU does
not track the child: the two CPUs of a shared machine slow down
independently. Without that variable this module does nothing.
"""

import atexit
import os
import sys
import time

_TARGET = os.environ.get("PERFBENCH_CALIBRATION")

if _TARGET:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        import speed
    finally:
        del sys.path[0]

    _probe = speed.SpeedProbe()
    _begin = time.perf_counter()
    _probe.sample(min_blocks=4)
    _start = time.perf_counter()

    def _finish():
        wall = time.perf_counter() - _start
        before = time.perf_counter()
        _probe.sample(seconds=speed.SHARE * wall, min_blocks=4)
        spent = (_start - _begin) + (time.perf_counter() - before)
        with open(_TARGET, "w", encoding="ascii") as handle:
            handle.write(f"{_probe.samples[0]!r} {_probe.samples[1]!r} {spent!r}\n")

    atexit.register(_finish)
