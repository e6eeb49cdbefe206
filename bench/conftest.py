"""Host-speed samples around every kernel microbenchmark.

On a shared host a kernel's raw times swing with the host's speed from
run to run. Each case that takes the benchmark fixture records the time
of perfbench's reference loop (host_speed, the sample that scales the
benchmark's *_ref metrics), the median of SAMPLES samples, just before
and just after it, in benchmark.extra_info as reference_loop_before_s
and reference_loop_after_s. A case's times divided by these compare across
runs; pytest-benchmark writes them into its --benchmark-json and
--benchmark-autosave records.
"""
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import host_speed  # noqa: E402

SAMPLES = 5


def reference_loop_s() -> float:
    return statistics.median(host_speed() for _ in range(SAMPLES))


@pytest.fixture(autouse=True)
def reference_loop_around(request):
    if "benchmark" not in request.fixturenames:
        yield
        return
    info = request.getfixturevalue("benchmark").extra_info
    info["reference_loop_before_s"] = reference_loop_s()
    yield
    info["reference_loop_after_s"] = reference_loop_s()
