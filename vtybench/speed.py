"""Host speed, measured beside the requests, and times scaled to a reference speed.

The benchmark's host is a shared 2-vCPU Xeon whose speed drifts: a plain
pure-Python loop took 0.14 s to 0.26 s from one second to the next, with
CPU time equal to wall time throughout, so the slowdown is the core's and
neither CPU time nor a longer run removes it. Runs of the same code then
spread by more than their bounds.

So before every timed request (and around every set-up) the benchmark
times two fixed calibration jobs, with no vty code in them:

- ``terms``: interpreter-bound Python in the style of vty's closures and
  interpreters (tuple terms, set membership, recursion, small ints);
- ``bigints``: Cantor unpairing of a 32 000-bit integer, the arithmetic
  of ``universal_run``, which walks a program encoded in one big integer.

The host's drift slows the two kinds of work by different amounts, so
each step of a request is scaled by the job of its own kind (``Step.work``
in ``workloads.py``): its wall time times the job's reference time over
the job's median time around the request. A change to vty moves a scaled
time as it moves the wall time at one fixed host speed; a change of host
speed moves the step and its calibration alike. On three minutes of
recorded ``machines`` passes, 5-pass runs spread 15.8 % between quartiles
in wall time, 4.9 % scaled by ``terms`` alone, and ``universal_run``
steps 13.8 % in wall time, 7.1 % scaled by ``terms`` and 1.2 % by
``bigints``.
"""

from __future__ import annotations

import math
import statistics
import time

# Each job's median time on the reference host (2-vCPU shared Xeon) in its
# usual state, in seconds. They fix the unit of every scaled time and never
# change; raising one raises every time scaled by it alike.
REFERENCE_S = {"terms": 0.002, "bigints": 0.0012}
# A request is scaled by the calibrations of the requests up to this far
# on either side in the same pass: the host holds one speed for a second
# or so, and one calibration alone jitters.
WINDOW = 4
# Calibrations taken before and after each set-up.
SETUP_SAMPLES = 5

_ATOMS = tuple(f"a{i}" for i in range(20))
_AXIOMS = frozenset(
    [_ATOMS[0], _ATOMS[1]]
    + [("->", _ATOMS[i], _ATOMS[i + 2]) for i in range(len(_ATOMS) - 2)]
    + [("->", ("->", _ATOMS[i], _ATOMS[i + 1]), _ATOMS[i]) for i in range(len(_ATOMS) - 1)]
)


def _size(term) -> int:
    return 1 if isinstance(term, str) else 1 + _size(term[1]) + _size(term[2])


def terms() -> int:
    """A small modus-ponens closure with bounded pairing."""
    known = set(_AXIOMS)
    for _ in range(5):
        new = {term[2] for term in known
               if not isinstance(term, str) and term[1] in known}
        small = sorted((term for term in known if _size(term) < 4), key=repr)[:40]
        new.update(("->", a, b) for a in small for b in small[:10] if _size(a) + _size(b) < 6)
        known |= new
    return len(known)


def _pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def _unpair(z: int) -> tuple[int, int]:
    s = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


_LIST = 0
for _i in range(15):
    _LIST = _pair(_pair(_i % 5, _i % 3), _LIST) + 1


def bigints() -> int:
    """Walk the 15-cell list encoded in ``_LIST`` and sum its heads."""
    total = 0
    rest = _LIST
    while rest:
        head, rest = _unpair(rest - 1)
        total += head
    return total


JOBS = {"terms": (terms, 573), "bigints": (bigints, 125)}  # job, what it returns


def sample(clock=time.perf_counter) -> dict[str, float]:
    """Seconds each calibration job takes now."""
    seconds = {}
    for work, (job, expected) in JOBS.items():
        start = clock()
        value = job()
        seconds[work] = clock() - start
        if value != expected:
            raise RuntimeError(f"calibration job {work} returned {value}, not {expected}")
    return seconds


def scaled(parts, samples: list[dict[str, float]]) -> float:
    """The (work, wall seconds) parts at the reference speed, by these calibrations."""
    return sum(seconds * REFERENCE_S[work] / statistics.median(s[work] for s in samples)
               for work, seconds in parts)


def scale(record) -> list[float]:
    """Each request's time at the reference speed, by the calibrations around it.

    ``record`` holds, per request of one pass, its calibrations and its
    (work, wall seconds) steps.
    """
    return [scaled(parts, [samples for samples, _ in record[max(0, i - WINDOW):i + WINDOW + 1]])
            for i, (_, parts) in enumerate(record)]
