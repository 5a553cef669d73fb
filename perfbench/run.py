#!/usr/bin/env python3
"""dkequiv benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload certify|theta|axioms --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; dkequiv is imported from its src/.  The
run repeats passes (set-up, then the timed calls) for at most S seconds,
at least once, checks every output, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 gives the end-to-end metrics: run_s (median over passes of the
timed calls' time), setup_s (import time plus the median of at least five
set-ups), peak_rss_mb and success_rate.  Both times are in reference
seconds, which the host's changing speed does not move (see calibrate.py);
the measured seconds are printed on stderr.  --trace 1 alternates traced
and untraced passes, at least two traced and one untraced, and gives the
per-layer metrics (medians over traced passes; counts must repeat exactly
across passes).  Spans are written to
perfbench/.work/<workload>/spans.jsonl when the run ends.

Files are written only under perfbench/.work/.  Without the checkout's
src/ the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUPS = 5  # set-up is cheap next to a pass; setup_s is a median of at least this many


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["certify", "theta", "axioms"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import dkequiv from the checkout's src/ and the benchmark modules;
    returns them, or None when the program is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dkequiv
        import calibrate
        import tracing
        import workloads
    except ImportError as e:
        print(f"cannot import dkequiv from {src}: {e}", file=sys.stderr)
        return None
    if not Path(dkequiv.__file__).resolve().is_relative_to(src):
        print(f"dkequiv was imported from {dkequiv.__file__}, not {src}",
              file=sys.stderr)
        return None
    return workloads, tracing, calibrate


def work_dir(workload):
    """Where a workload writes its files; each run overwrites the last."""
    work = HERE / ".work" / workload
    work.mkdir(parents=True, exist_ok=True)
    return work


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Operations attempted and failed, and the verdicts of the first pass."""

    def __init__(self, wl, seed, expected):
        self.wl = wl
        self.seed = seed
        self.ops = wl.ops(seed)
        self.expected = expected
        self.first = None
        self.attempted = 0
        self.failed = 0

    def judge(self, inp, outputs, facts):
        """Count the pass's operations and those whose output is wrong.

        The first pass's outputs get the full checks.  A later pass is
        right where its outputs equal the first pass's byte for byte and
        those were right, so the costly checks run once per run.
        """
        if self.first is None:
            try:
                bad = self.wl.check(self.seed, inp, outputs, facts)
            except (KeyError, TypeError, ValueError):
                traceback.print_exc()
                bad = set(self.ops)
            for op, fname in self.ops.items():
                data = outputs.get(fname)
                if data is None or (self.expected is not None and sha256(data)
                                    != self.expected.get(fname, {}).get("sha256")):
                    bad.add(op)
            self.first = (outputs, facts, bad)
        else:
            first_outputs, first_facts, first_bad = self.first
            bad = {op for op, fname in self.ops.items()
                   if op in first_bad
                   or outputs.get(fname) != first_outputs.get(fname)
                   or facts.get(op) != first_facts.get(op)}
        for op in sorted(bad):
            print(f"wrong output: {self.wl.name} seed {self.seed} {op}",
                  file=sys.stderr)
        self.attempted += len(self.ops)
        self.failed += len(bad)


def one_pass(wl, seed, rec, work, tally):
    """Set-up, then the timed calls; returns (setup seconds, run seconds),
    or None when the pass raised.

    The previous pass's objects hold reference cycles; collecting them first
    keeps their collection out of this pass's timings.
    """
    gc.collect()
    rec.start()
    try:
        inp = wl.setup(seed, rec, work)
        setup = rec.split()
        outputs, facts = wl.run(inp, seed, rec, work)
        run = rec.split()
    except Exception:
        traceback.print_exc()
        tally.attempted += len(tally.ops)
        tally.failed += len(tally.ops)
        return None
    tally.judge(inp, outputs, facts)
    print(f"pass: set-up {setup:.4f} s, timed calls {run:.4f} s",
          file=sys.stderr)
    return setup, run


def repeat(step, until, enough):
    """Call step() until enough() holds, then again while the next call is
    expected, from the longest so far, to end by the clock time `until`.
    Stops early when step() returns False."""
    longest = 0.0
    while not enough() or perf_counter() + longest <= until:
        t = perf_counter()
        if not step():
            return
        longest = max(longest, perf_counter() - t)


def end_to_end(wl, seed, work, tally, until, import_s, calibrate):
    """Untraced passes timed in reference seconds (see calibrate.py);
    returns the end-to-end metrics, or None."""
    meter = calibrate.Meter()
    passes = []  # (index of the set-up's split, measured run seconds)

    def step():
        i = len(meter.splits)
        got = one_pass(wl, seed, meter, work, tally)
        if got is not None:
            passes.append((i, got[1]))
        return got is not None

    repeat(step, until, lambda: passes)
    if not passes:
        return None
    extra = len(meter.splits)
    while len(passes) + len(meter.splits) - extra < SETUPS:
        gc.collect()
        meter.start()
        wl.setup(seed, meter, work)
        meter.split()
    ref = meter.reference_seconds()
    runs = [ref[i + 1] for i, _ in passes]
    setups = [ref[i] for i, _ in passes] + ref[extra:]
    import_s *= calibrate.REF_BURST_S / statistics.median(
        meter.refs[:calibrate.NEAR])
    print(f"measured: median pass "
          f"{statistics.median(r for _, r in passes):.4f} s, median burst "
          f"{statistics.median(meter.refs):.4f} s of {len(meter.refs)}; "
          f"passes in reference seconds "
          f"{', '.join(f'{r:.4f}' for r in runs)}", file=sys.stderr)
    return {
        "run_s": (statistics.median(runs), "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (
            (tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def _unit(key):
    for suffix, unit in (("_s", "s"), ("_frac", "ratio"), ("_bits", "bits"),
                         ("_bytes", "bytes")):
        if key.endswith(suffix):
            return unit
    return "count"


def per_layer(wl, seed, work, tally, until, tracing):
    """Traced and untraced passes in turn, traced first, at least two traced
    and one untraced, so that both meet the same machine conditions; returns
    the per-layer metrics, or None."""
    null = tracing.NullRecorder()
    rec = tracing.Recorder()
    plain, traced = [], []

    def step():
        if len(traced) <= len(plain):
            with tracing.installed(rec):
                got = one_pass(wl, seed, rec, work, tally)
            if got is not None:
                setup_s, run_s = got
                traced.append((run_s, tracing.summarize(
                    rec.spans, rec.counts, setup_s + run_s, rec.bookkeeping)))
                rec.new_pass()
        else:
            got = one_pass(wl, seed, null, work, tally)
            if got is not None:
                plain.append(got[1])
        return got is not None

    repeat(step, until, lambda: len(plain) >= 1 and len(traced) >= 2)
    rec.write(work / "spans.jsonl")
    if not plain or len(traced) < 2:
        return None
    metrics = {}
    for key in traced[0][1]:
        values = [summary[key] for _, summary in traced]
        if _unit(key) in ("s", "ratio"):
            metrics[key] = (statistics.median(values), _unit(key))
            continue
        if len(set(values)) != 1:
            print(f"count not repeatable across passes: {key} {values}",
                  file=sys.stderr)
        metrics[key] = (values[0], _unit(key))
    metrics["trace.overhead_frac"] = (
        statistics.median(r for r, _ in traced) / statistics.median(plain) - 1,
        "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    t0 = perf_counter()
    got = import_program()
    if got is None:
        return 1
    workloads, tracing, calibrate = got
    import_s = perf_counter() - t0

    wl = workloads.WORKLOADS[args.workload]
    work = work_dir(wl.name)
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    tally = Tally(wl, args.seed, recorded.get(wl.name, {}).get(str(args.seed)))
    until = perf_counter() + args.seconds
    if args.trace:
        metrics = per_layer(wl, args.seed, work, tally, until, tracing)
    else:
        metrics = end_to_end(wl, args.seed, work, tally, until, import_s,
                             calibrate)
    if metrics is None:
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
