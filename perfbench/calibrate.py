"""Machine-speed references for normalising timings.

The benchmark runs on a shared machine whose speed drifts by tens of
percent over seconds to minutes, while CPU time tracks wall time (so
the drift is in execution speed, not in scheduling).  Each timing is
therefore taken next to samples of a fixed reference task that does not
depend on the package, and reported as

    normalised = raw * nominal reference time / measured reference time

that is, in seconds on the machine the benchmark was written on (Intel
Xeon, Python 3.11, 2 vCPUs).  There are two references:

* `interpreter`: the start of a bare `python3 -c pass` in a fresh
  process.  It suits cold `a1u` queries, whose time is mostly
  interpreter start and imports, and a fresh process is immune to the
  benchmark process's own heap and garbage-collector state.  Each query
  is scaled by the samples just before and after it.
* `python_work`: a fixed in-process task of small tuples, sorts and
  sets, the kind of work the enumerator does.  Sampled between the
  timed operations, it sees the same slow and fast spells as they do.
  A run-wide factor uses the 10th percentile of the run's samples: like
  the fastest run of each case that the sweeps and the selfcheck suites
  report, it sees the machine's fast spells, but it does not rest on a
  single lucky sample when fast spells are rare.

The record line keeps the raw timings as well.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

# nominal reference times: the median interpreter start and the 10th
# percentile of python_work() on the machine the benchmark was written
# on; they only fix the scale
INTERPRETER_S = 0.043
PYTHON_WORK_S = 0.004


def interpreter() -> float:
    """Seconds to start and stop a bare interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


def python_work() -> float:
    """Seconds of a fixed in-process task of small tuples, sorts and sets."""
    start = perf_counter()
    sets = []
    for i in range(3000):
        key = tuple(sorted((i * 7919 + j * 104729) % 97 for j in range(5)))
        sets.append(frozenset(key) | {i})
    len(set(map(len, sets)))  # use the sets, as real work would
    return perf_counter() - start


def low_decile(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[0]


# name -> (probe, nominal seconds, statistic over a run, seconds of timed
# work between two samples)
REFERENCES = {
    "interpreter": (interpreter, INTERPRETER_S, statistics.median, 1.0),
    "python_work": (python_work, PYTHON_WORK_S, low_decile, 0.25),
}


class Scale:
    """Reference samples taken between timed work, and the factor that
    turns raw seconds into normalised seconds."""

    def __init__(self, reference: str = "interpreter"):
        self.reference = reference
        self.probe, self.nominal, self.pick, self.every_s = REFERENCES[reference]
        self.samples: list[float] = []
        self._work = 0.0

    def sample(self) -> None:
        self.samples.append(self.probe())

    def after(self, seconds: float) -> None:
        """Count seconds of timed work; sample once every_s have gone."""
        self._work += seconds
        if self._work >= self.every_s:
            self.sample()
            self._work = 0.0

    def factor(self, since: int = 0) -> float:
        """Factor for work timed between samples[since] and the last one."""
        return self.nominal / self.pick(self.samples[since:])
