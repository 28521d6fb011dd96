"""Time one benchmark set-up in a fresh interpreter: import plus input generation.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``; prints the
set-up seconds and the calibrations right before and after it.
"""
import sys
import time
from pathlib import Path

from calibration import calibrate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

before = calibrate()
start = time.perf_counter()
import workloads  # noqa: E402

workloads.INPUTS[sys.argv[1]](int(sys.argv[2]))
took = time.perf_counter() - start
print(took, before, calibrate())
