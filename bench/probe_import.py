"""Time `import mcdisc, mcdisc.cli` in a fresh process, then the calibration
kernel; prints both in seconds. Nothing else is imported before the timed
import, so it carries the whole cost a user's first import pays."""
import time

start = time.perf_counter()
import mcdisc  # noqa: E402,F401
import mcdisc.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

import statistics  # noqa: E402

import worker  # noqa: E402

calibration_s = statistics.median(worker.timed_calibration() for _ in range(5)) / 1e9
print(import_s, calibration_s)
