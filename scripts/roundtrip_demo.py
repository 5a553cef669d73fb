#!/usr/bin/env python3
"""Walk one chain complex through the equivalence and print the bookkeeping.

A seeded chain complex on the zero-completion of the endpoint-preserving
ordinal category is transported to an ordinary functor (augmented
simplicial-style dimensions), then back through the kernel intersections
(the normalized complex), recovering the original dimensions exactly.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dkequiv.builders import build_delta_bt
from dkequiv.equivalence import build_kernel_module, hat, unit
from dkequiv.functors import random_pointed_functor


def dim_list(text):
    return tuple(int(x) for x in text.split(","))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dims", type=dim_list, default="2,3,2,1,1",
                    help="comma-separated dimensions, one per ordinal")
    args = ap.parse_args()
    if args.size < 1:
        ap.error("--size: need at least 1")
    if len(args.dims) != args.size:
        ap.error(f"--dims: need one dimension per ordinal, {args.size} in all")
    s = build_delta_bt(args.size)
    km = build_kernel_module(s)
    f = random_pointed_functor(km.d, args.dims, seed=args.seed)
    print("chain complex dims:     ", list(f.dims))
    ranks = []
    for dr in km.d.nonzero_morphisms():
        r = km.d.d_to_r[dr]
        if s.cat.dom[r] == s.cat.cod[r] + 1:
            ranks.append((s.cat.dom[r] + 1, f.mats[dr].rank()))
    print("boundary ranks by level:", sorted(ranks))
    print("transported dims:       ", list(hat(km, f).dims))
    eta = unit(km, f)
    ft = eta.target
    print("normalized complex dims:", list(ft.dims))
    print("unit is a natural iso:  ", eta.validate().ok and eta.is_iso())
    assert ft.dims == f.dims
    return 0


if __name__ == "__main__":
    sys.exit(main())
