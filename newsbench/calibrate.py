"""A fixed piece of pure-Python work, timed next to each measurement to
gauge how fast the host is running at that moment.

On a shared host the CPU time a process gets swings by up to 2x, for
fractions of a second or for minutes, and wall and CPU times swing with
it. A time divided by the calibration measured next to it swings far
less: the benchmark reports its times scaled to REFERENCE_MS.
"""

from __future__ import annotations

import re
from time import perf_counter

# about the calibration time on an idle CPU of the host the benchmark was
# written on (2-vCPU Intel Xeon VM, Python 3.11)
REFERENCE_MS = 56.0
ROUNDS = 24

_TEXT = " ".join(f"Officials in City{i % 37} said {i} people were Hurt on Day{i % 7}."
                 for i in range(300))
_WORD = re.compile(r"[A-Za-z]+|\d+")


def calibrate() -> float:
    """Wall time of the fixed work, in ms."""
    start = perf_counter()
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        spans = []
        for match in _WORD.finditer(_TEXT):
            word = match.group().lower()
            counts[word] = counts.get(word, 0) + 1
            spans.append((match.start(), match.end(), word))
        "|".join(sorted(counts))
    return (perf_counter() - start) * 1000


def scaled(value: float, cal_ms: float) -> float:
    """value as if measured at the speed where calibrate() takes REFERENCE_MS."""
    return value * REFERENCE_MS / cal_ms
