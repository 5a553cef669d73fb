#!/usr/bin/env python3
"""Record the reference outputs of every workload into perfbench/expected.json.

    python3 perfbench/record.py

For the default seed 0 and the held-out seed 1009, one untraced pass of each
workload is run, its outputs are checked, and the sha256 digest and size of
every output file are recorded.  run.py then fails any operation whose output
digest differs for these seeds.  Run it only on code whose outputs are the
reference; nothing is written if any output fails its checks.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (0, 1009)


def main():
    got = run.import_program()
    if got is None:
        return 1
    workloads, tracing, _ = got
    recorded = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in SEEDS:
            work = run.work_dir(name)
            rec = tracing.NullRecorder()
            inp = wl.setup(seed, rec, work)
            outputs, facts = wl.run(inp, seed, rec, work)
            bad = wl.check(seed, inp, outputs, facts)
            if bad:
                print(f"{name} seed {seed}: wrong output for {sorted(bad)}",
                      file=sys.stderr)
                return 2
            recorded.setdefault(name, {})[str(seed)] = {
                fname: {"sha256": run.sha256(data), "bytes": len(data)}
                for fname, data in outputs.items()}
    run.EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
