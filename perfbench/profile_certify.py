#!/usr/bin/env python3
"""Reconcile the traced layer shares of the certify workload with cProfile.

    python3 perfbench/profile_certify.py [--seed N]

Runs one certify pass under cProfile and one traced pass, and prints the
share of the pass's timed calls spent in NatTransform.validate and in hat
according to each.  cProfile charges every Python call, so its shares for
call-heavy code run high; the traced shares are the ones run.py reports.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from time import perf_counter

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    got = run.import_program()
    if got is None:
        return 1
    workloads, tracing, _ = got
    from dkequiv import equivalence, functors

    wl = workloads.WORKLOADS["certify"]
    work = run.work_dir("certify")
    targets = {"functors.nat_validate_s": functors.NatTransform.validate,
               "equivalence.hat_s": equivalence.hat}

    rec = tracing.Recorder()
    with tracing.installed(rec):
        inp = wl.setup(args.seed, rec, work)
        t0 = perf_counter()
        wl.run(inp, args.seed, rec, work)
        wall = perf_counter() - t0 - rec.bookkeeping
    traced = tracing.summarize(rec.spans, rec.counts, wall, 0.0)

    null = tracing.NullRecorder()
    inp = wl.setup(args.seed, null, work)
    prof = cProfile.Profile()
    prof.runcall(wl.run, inp, args.seed, null, work)
    stats = pstats.Stats(prof)
    cumulative = {}
    for key, fn in targets.items():
        code = fn.__code__
        where = (code.co_filename, code.co_firstlineno, code.co_name)
        cumulative[key] = stats.stats[where][3]

    print(f"certify seed {args.seed}: traced pass {wall:.3f} s, "
          f"cProfile pass {stats.total_tt:.3f} s")
    for key in targets:
        print(f"{key:26s} traced {traced[key] / wall:6.1%}   "
              f"cProfile {cumulative[key] / stats.total_tt:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
