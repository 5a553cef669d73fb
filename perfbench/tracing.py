"""Span recorder and the wrapping of dkequiv calls for a traced run.

A traced run replaces, for its duration, the coarse public calls of each
dkequiv module and the exactlin kernels (mul, rref, block, inverse, kernel)
with wrappers that record a span: name, start, end, parent span and
operation id.  Nothing inside src/ is edited; wrappers are installed by
rebinding module globals and class attributes and removed afterwards.
QMat.zeros and QMat.__init__ are deliberately left alone: they run about
450k times in one certify pass.

Counters are computed outside the wrapped call, from its operands and
result.  The time spent computing them is accumulated as "bookkeeping" and
subtracted from every span that encloses it, so counting does not inflate
the layer times.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from dkequiv import builders, equivalence, exactlin, fincat, functors, structure

LAYERS = ("builders", "cli", "fincat", "structure", "equivalence", "functors",
          "exactlin")
_MODULES = (builders, equivalence, exactlin, fincat, functors, structure)


class NullRecorder:
    """Recorder of an untraced run: every hook is free.

    Every recorder is also its pass's clock: start() and split() time the
    set-up and the timed calls, and a workload calls lap() between two
    segments of its timed calls, where calibrate.Meter measures the host's
    speed.
    """

    def start(self):
        self._t = perf_counter()

    def lap(self):
        pass

    def split(self):
        """Seconds since start() or the last split()."""
        now = perf_counter()
        seconds, self._t = now - self._t, now
        return seconds

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def op(self, op_id):
        yield

    def count(self, name, n):
        pass


class Recorder(NullRecorder):
    """Spans kept in memory: [name, start, end, parent index, op id,
    bookkeeping seconds inside the span]."""

    def __init__(self):
        self.passes = []
        self.spans = []
        self.counts = Counter()
        self.bookkeeping = 0.0
        self._stack = []
        self._op = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self._op,
                           self.bookkeeping])
        self._stack.append(i)
        return i

    def close(self, i):
        end = perf_counter()
        span = self.spans[i]
        span[2] = end
        span[5] = self.bookkeeping - span[5]
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    @contextmanager
    def op(self, op_id):
        outer, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = outer

    def count(self, name, n):
        self.counts[name] += n

    def new_pass(self):
        """Start a new pass; the spans of earlier passes are kept for write."""
        if self.spans:
            self.passes.append(self.spans)
        self.spans = []
        self.counts = Counter()
        self.bookkeeping = 0.0

    def write(self, path):
        with open(path, "w") as fh:
            for n, spans in enumerate(self.passes + [self.spans]):
                for name, start, end, parent, op, excl in spans:
                    fh.write(json.dumps(
                        {"pass": n, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "bookkeeping": excl}
                    ) + "\n")


# -- counters, computed from operands and results -----------------------------


def _max_bits(m):
    """Largest bit length of an entry's numerator or of the denominator."""
    top = max((max(map(abs, row), default=0) for row in m.rows), default=0)
    return max(top.bit_length(), m.den.bit_length())


def _count_build(rec, args, out):
    rec.count("builders.morphisms", out.cat.n_morphisms)


def _count_fincat_check(rec, args, out):
    cat = args[0]
    if out.structural:
        return
    n_into = Counter(cat.cod)
    n_from = Counter(cat.dom)
    rec.count("fincat.assoc_triples",
              sum(n_into[cat.dom[g]] * n_from[cat.cod[g]]
                  for g in range(cat.n_morphisms)))


def _count_factor_candidates(rec, args, out):
    rec.count("structure.factor_candidates", len(out))


def _count_coends(rec, args, out):
    rec.count("structure.coend_classes",
              sum(e.class_count for e in out.entries))


def _count_hat(rec, args, out):
    """All-zero share of the blocks hat assembles (blocks of positive area),
    read off the output matrices with the subobject block layout."""
    km, f = args[0], args[1]
    s = km.structure
    cat = s.cat
    layout = {}
    for a in cat.objects():
        spans, pos = [], 0
        for rep in s.sub_poset(a).linearization:
            w = f.dims[cat.dom[rep]]
            spans.append((pos, w))
            pos += w
        layout[a] = spans
    blocks = zero = 0
    for g in cat.morphisms():
        rows = out.mats[g].rows
        for (r0, h) in layout[cat.cod[g]]:
            if not h:
                continue
            for (c0, w) in layout[cat.dom[g]]:
                if not w:
                    continue
                blocks += 1
                if not any(x for row in rows[r0:r0 + h] for x in row[c0:c0 + w]):
                    zero += 1
    rec.count("equivalence.hat_blocks", blocks)
    rec.count("equivalence.hat_zero_blocks", zero)


def _count_nat_validate(rec, args, out):
    if out.structural:
        return
    src = args[0].source
    if isinstance(src, functors.AdditiveFunctor):
        rec.count("functors.naturality_squares", src.base.n_morphisms)
    else:
        rec.count("functors.naturality_squares", src.d.n_nonzero)


def _count_mul(rec, args, out):
    a, b = args[0], args[1]
    rec.count("exactlin.mul_calls", 1)
    rec.count("exactlin.mul_madds", a.nrows * a.ncols * b.ncols)
    col_nz = [sum(map(bool, col)) for col in zip(*a.rows)]
    rec.count("exactlin.mul_useful_madds",
              sum(n * sum(map(bool, row)) for n, row in zip(col_nz, b.rows)))


def _count_block(rec, args, out):
    rec.count("exactlin.block_calls", 1)


def _count_rref(rec, args, out):
    m = args[0]
    rec.count("exactlin.rref_calls", 1)
    rec.count("exactlin.rref_cells", m.nrows * m.ncols)
    bits = max(_max_bits(m), _max_bits(out[0]))
    if bits > rec.counts["exactlin.rref_max_bits"]:
        rec.counts["exactlin.rref_max_bits"] = bits


# (owner, attribute, span name or None for a counter-only wrapper, counter)
TARGETS = (
    (builders, "build_delta_bt", "builders.build", _count_build),
    (builders, "build_fi_sharp", "builders.build", _count_build),
    (builders, "build_cube", "builders.build", _count_build),
    (fincat.FinCat, "check", "fincat.check", _count_fincat_check),
    (structure, "check_assumptions", "structure.check_assumptions", None),
    (structure.MRStructure, "factor_candidates", None,
     _count_factor_candidates),
    (structure, "verify_coend_bijections", "structure.coends", _count_coends),
    (structure, "build_d_cat", "structure.d_cat", None),
    (equivalence, "build_kernel_module", "equivalence.kernel_module", None),
    (equivalence, "certify_functor", "equivalence.certify_functor", None),
    (equivalence, "hat", "equivalence.hat", _count_hat),
    (equivalence, "tilde_subspaces", "equivalence.tilde", None),
    (equivalence, "tilde", "equivalence.tilde", None),
    (equivalence, "unit_with", "equivalence.unit_counit", None),
    (equivalence, "counit_with", "equivalence.unit_counit", None),
    (equivalence, "theta_matrix", "equivalence.theta_matrix", None),
    (functors, "random_pointed_functor", "functors.generate", None),
    (functors.NatTransform, "validate", "functors.nat_validate",
     _count_nat_validate),
    (functors.NatTransform, "is_iso", "functors.is_iso", None),
    (exactlin.QMat, "mul", "exactlin.mul", _count_mul),
    (exactlin.QMat, "rref", "exactlin.rref", _count_rref),
    (exactlin.QMat, "inverse", "exactlin.inverse", None),
    (exactlin.QMat, "kernel", "exactlin.kernel", None),
    (exactlin, "block", "exactlin.block", _count_block),
)

# certify_functor(km, f, name): its span and everything under it carry the
# functor's name as operation id.
_OP_ARG = {"equivalence.certify_functor": 2}


def _wrap(rec, fn, name, counter):
    op_arg = _OP_ARG.get(name)

    def wrapper(*args, **kwargs):
        if name is None:
            out = fn(*args, **kwargs)
        else:
            if op_arg is not None:
                outer, rec._op = rec._op, args[op_arg]
            i = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
                if op_arg is not None:
                    rec._op = outer
        if counter is not None:
            t = perf_counter()
            counter(rec, args, out)
            rec.bookkeeping += perf_counter() - t
        return out

    return wrapper


@contextmanager
def installed(rec):
    """Wrap every target for the duration of the block.

    A module-level function is rebound in every dkequiv module that imported
    it, so calls from inside the package are traced as well.
    """
    undo = []
    try:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            wrapped = _wrap(rec, original, name, counter)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in _MODULES:
                if getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-pass reduction ---------------------------------------------------------


def _net(span):
    return span[2] - span[1] - span[5]


def summarize(spans, counts, wall, bookkeeping):
    """Per-layer metrics of one traced pass.

    A named time is the sum of the net durations of the spans with that
    name that are not nested in another span of the same name.  A layer's
    self time is its spans' net time minus that of their direct children.
    `wall` is the pass's wall time; the share covered by no span is taken
    after removing the bookkeeping time from it.
    """
    names = [s[0] for s in spans]
    totals = Counter()
    per_call = {}
    child_net = Counter()
    top = 0.0
    for i, span in enumerate(spans):
        net = _net(span)
        name = span[0]
        p = span[3]
        outermost = True
        while p >= 0:
            if names[p] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            totals[name] += net
        per_call.setdefault(name, []).append(net)
        if span[3] >= 0:
            child_net[span[3]] += net
        else:
            top += net
    self_time = Counter()
    for i, span in enumerate(spans):
        self_time[span[0].split(".")[0]] += _net(span) - child_net[i]
    out = {}
    for key in ("builders.build", "cli.load", "cli.dump", "fincat.check",
                "structure.check_assumptions", "structure.coends",
                "structure.d_cat", "equivalence.kernel_module",
                "equivalence.hat", "equivalence.unit_counit",
                "equivalence.tilde", "equivalence.theta_matrix",
                "functors.generate", "functors.nat_validate",
                "functors.is_iso", "exactlin.mul", "exactlin.block",
                "exactlin.rref", "exactlin.inverse", "exactlin.kernel"):
        out[key + "_s"] = totals[key]
    certs = per_call.get("equivalence.certify_functor")
    out["equivalence.certify_functor_s"] = statistics.median(certs) if certs else 0.0
    for layer in LAYERS:
        out[layer + ".self_s"] = self_time[layer]
    for key in ("builders.morphisms", "cli.output_bytes",
                "fincat.assoc_triples", "structure.factor_candidates",
                "structure.coend_classes", "functors.naturality_squares",
                "exactlin.mul_calls", "exactlin.mul_madds",
                "exactlin.block_calls", "exactlin.rref_calls",
                "exactlin.rref_cells", "exactlin.rref_max_bits"):
        out[key] = counts[key]
    blocks = counts["equivalence.hat_blocks"]
    out["equivalence.hat_zero_block_frac"] = (
        counts["equivalence.hat_zero_blocks"] / blocks if blocks else 0.0)
    madds = counts["exactlin.mul_madds"]
    out["exactlin.mul_useful_frac"] = (
        counts["exactlin.mul_useful_madds"] / madds if madds else 0.0)
    covered_wall = wall - bookkeeping
    out["trace.unattributed_frac"] = (
        (covered_wall - top) / covered_wall if covered_wall > 0 else 0.0)
    return out
