"""A fixed reference workload that measures how fast the host runs right now.

The host this benchmark runs on shares its cores with other machines, and
its speed for the same pure-Python work changes by up to about 1.7x, in
phases of seconds to minutes.  An untraced pass is therefore timed in
segments of at least MIN_SEGMENT_S, with a reference burst after each,
outside the time, and each segment is reported in *reference seconds*: its
measured seconds times REF_BURST_S over the median time of the bursts
around it.  A segment that took 1 s while the bursts took 2 * REF_BURST_S
is reported as 0.5 s.  The host's speed cancels; a change to
dkequiv does not, because the burst does not call dkequiv.

The reference work is the kind dkequiv spends its time on: exact Fraction
row reduction and products of small matrices, and lookups through a list
composition table.  It does not depend on the seed.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

from tracing import NullRecorder

# About the burst's time on a 2-vCPU Linux VM with Python 3.11.7; any
# fixed value would do, this one keeps reference seconds near wall seconds.
REF_BURST_S = 0.09
UNITS = 8
MIN_SEGMENT_S = 0.5
NEAR = 4


def _matrix(n, state):
    """An n x n matrix of small integers from a linear congruential stream."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (state * 1103515245 + 12345) % 2 ** 31
            row.append(Fraction((state >> 16) % 7 - 3))
        rows.append(row)
    return rows, state


def _rank(m):
    """Rank by exact row reduction."""
    m = [row[:] for row in m]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _table_walk(n):
    """Count the associative triples of the composition table of Z/n."""
    comp = [[(i + j) % n for j in range(n)] for i in range(n)]
    return sum(1 for f in range(n) for g in range(n) for h in range(n)
               if comp[comp[h][g]][f] == comp[h][comp[g][f]])


def unit():
    """One unit of reference work, about 11 ms; returns a checksum."""
    state = 1
    total = 0
    for _ in range(3):
        a, state = _matrix(7, state)
        b, state = _matrix(7, state)
        total += _rank(_product(a, b))
    return total + _table_walk(22)


def burst():
    """Seconds taken by one burst of UNITS reference units."""
    t = perf_counter()
    for _ in range(UNITS):
        unit()
    return perf_counter() - t


class Meter(NullRecorder):
    """Recorder and clock of an untraced run whose times are reported in
    reference seconds.  It runs a burst when it is made, and after every
    segment of at least MIN_SEGMENT_S and every split().

    reference_seconds() scales each segment by REF_BURST_S over the median
    of the NEAR bursts on either side of it.  A single burst is too short to
    stand for the segment's speed, and the median shrugs off one that met a
    brief stall; so the scaling waits for the bursts after the segment, at
    the end of the run.
    """

    def __init__(self):
        self.refs = [burst()]
        self.segments = []  # (seconds, index in refs of the burst before it)
        self.splits = []  # (first, end) index in segments of each split()

    def start(self):
        self._first = len(self.segments)
        self._t = perf_counter()

    def lap(self, force=False):
        seconds = perf_counter() - self._t
        if seconds < MIN_SEGMENT_S and not force:
            return
        self.segments.append((seconds, len(self.refs) - 1))
        self.refs.append(burst())
        self._t = perf_counter()

    def split(self):
        self.lap(force=True)
        first, self._first = self._first, len(self.segments)
        self.splits.append((first, self._first))
        return sum(seconds for seconds, _ in self.segments[first:self._first])

    def reference_seconds(self):
        """Each split's time, in reference seconds."""
        scaled = [seconds * REF_BURST_S / statistics.median(
                      self.refs[max(0, j + 1 - NEAR):j + 1 + NEAR])
                  for seconds, j in self.segments]
        return [sum(scaled[a:b]) for a, b in self.splits]
