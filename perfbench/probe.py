"""A fixed piece of pure-Python work that measures how fast the machine runs
right now.

A shared host changes the speed of its virtual CPUs as other tenants load
it: the same code runs up to 1.7 times slower for stretches of a fraction of
a second to minutes.  A task timed between two probes in the same process
ran at the probes' speed, so its time divided by theirs is steady.  The
benchmark reports such quotients times PROBE_REF_S: seconds at the speed at
which one probe takes PROBE_REF_S.
"""

import time

PROBE_REF_S = 0.005
_ITERATIONS = 20000


def probe():
    """(wall, cpu) seconds of the fixed work.  It creates no object that the
    garbage collector tracks, so the program's heap does not change it."""
    d = dict.fromkeys(range(64), 0)
    s = 0
    wall, cpu = time.perf_counter(), time.process_time()
    for i in range(_ITERATIONS):
        k = (i * 7 + s) & 63
        d[k] += i % 13
        s = (s + d[k]) & 0xFFFF
    return time.perf_counter() - wall, time.process_time() - cpu
