"""Command-line surface for scripted use.

Exit codes form a stable contract: 0 on success, 2 on a mathematical
failure (an axiom or certificate violation, with a witness in the output),
3 on malformed input.  All output is deterministic JSON: identical inputs
and seed produce byte-identical files.

Whether an input is malformed is decided by the from_jsonable parsers and
by the library's checks of argument values.  _load reads every input file
and _dump writes every output file, each raising MalformedInput when it
cannot; main is the one place where an exception becomes an exit code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .builders import BUILDERS, ParInput, ParInputError, build_par, build_stock
from .equivalence import (
    TransportError,
    build_kernel_module,
    certify_equivalence,
    hat,
    theta_matrix,
    tilde,
)
from .exactlin import PreconditionViolated, QMat, orthogonal_idempotents
from .functors import (
    AdditiveFunctor,
    InfeasibleRelations,
    PointedFunctor,
    random_pointed_functor,
)
from .structure import MRStructure, check_assumptions

OK, MATH_FAILURE, BAD_INPUT = 0, 2, 3


class MalformedInput(ValueError):
    """An input file that cannot be read or parsed, with an optional witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _dump(path: Path, data) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    except OSError as e:
        raise MalformedInput(f"cannot write {path}: {e}") from e


def _fail(code, message, witness=None):
    print(json.dumps({"error": message, "witness": witness}, sort_keys=True))
    return code


def _load(path, parse):
    """parse(the JSON document in the file at path), the one reader of input
    files: whatever reading and parsing raise becomes MalformedInput."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except ParInputError as e:
        raise MalformedInput("base category unsuitable", e.problems) from e
    except (OSError, RecursionError, json.JSONDecodeError) as e:
        raise MalformedInput(f"cannot read {path}: {e}") from e
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise MalformedInput(f"malformed input file {path}: {e!r}") from e


def _report_payload(structure, report):
    cat = structure.cat
    payload = report.to_jsonable()
    if report.structural.ok:
        der = structure.derived
        payload["r_class"] = sorted(der.r_class)
        payload["r_class_labels"] = [
            cat.mor_labels[i] for i in sorted(der.r_class)
        ]
    return payload


def _require_category_laws(structure) -> None:
    """Raise TransportError with FinCat.check's report when the structure's
    table breaks the category laws, which every later check presumes.  The
    report is computed once per table, so later checks reuse it."""
    report = structure.cat.check()
    if not report.ok:
        raise TransportError("category laws violated", report.to_jsonable())


def _stock(name, size):
    """The stock structure build_stock gives and its tag, which carries the
    size only when the builder reads it."""
    structure = build_stock(name, size)
    return structure, name if BUILDERS[name][1] is None else f"{name}_{size}"


def cmd_example(args) -> int:
    name, out = args.name, Path(args.out)
    if name == "par":
        if not args.base:
            raise ValueError("par requires --base with a base-category file")
        structure = _load(
            args.base, lambda data: build_par(ParInput.from_jsonable(data))
        )
        tag = f"par_{Path(args.base).stem}"
    else:
        structure, tag = _stock(name, args.size)
    report = check_assumptions(structure)
    _dump(out / f"{tag}.structure.json", structure.to_jsonable())
    _dump(out / f"{tag}.assumptions.json", _report_payload(structure, report))
    if not report.passed:
        return _fail(
            MATH_FAILURE,
            "assumption checks failed",
            report.to_jsonable(),
        )
    print(json.dumps({"example": tag, "passed": True,
                      "class_sizes": report.class_sizes}, sort_keys=True))
    return OK


def cmd_check(args) -> int:
    structure = _load(args.path, MRStructure.from_jsonable)
    _require_category_laws(structure)
    report = check_assumptions(structure)
    payload = _report_payload(structure, report)
    if args.out:
        _dump(Path(args.out), payload)
    if not report.passed:
        return _fail(MATH_FAILURE, "checks failed", payload)
    print(json.dumps({"passed": True, "class_sizes": report.class_sizes},
                     sort_keys=True))
    return OK


def _transport_inputs(args, kind):
    """The kernel module of the --category structure and the --functor of
    the given kind (PointedFunctor or AdditiveFunctor) on it; raises
    TransportError with the failing report when the structure fails the
    category laws or its assumptions, or the functor its laws."""
    structure = _load(args.category, MRStructure.from_jsonable)
    _require_category_laws(structure)
    report = check_assumptions(structure)
    if not report.passed:
        raise TransportError("assumption checks failed", report.to_jsonable())
    km = build_kernel_module(structure, validate=False)
    base = km.d if kind is PointedFunctor else structure.cat
    functor = _load(args.functor, lambda data: kind.from_jsonable(base, data))
    vr = functor.validate()
    if not vr.ok:
        raise TransportError("input functor invalid", vr.to_jsonable())
    return km, functor


def cmd_transport(args) -> int:
    if args.direction == "hat":
        km, functor = _transport_inputs(args, PointedFunctor)
        out = hat(km, functor)
    else:
        km, functor = _transport_inputs(args, AdditiveFunctor)
        out = tilde(km, functor)
    payload = out.to_jsonable(category=str(args.category))
    _dump(Path(args.out), payload)
    print(json.dumps(
        {"direction": args.direction, "dims_in": list(functor.dims),
         "dims_out": list(out.dims)}, sort_keys=True))
    return OK


def cmd_certify(args) -> int:
    for flag, n in (("--seeds", args.seeds), ("--dims-max", args.dims_max)):
        if n < 0:
            raise ValueError(f"certify requires {flag} >= 0")
    if args.category:
        structure = _load(args.category, MRStructure.from_jsonable)
        tag = Path(args.category).stem
    else:
        structure, tag = _stock(args.name, args.size)
    _require_category_laws(structure)
    report = check_assumptions(structure)
    if not report.passed:
        payload = report.to_jsonable()
        failing = [c for c in payload["assumptions"] if not c["passed"]]
        return _fail(MATH_FAILURE, "assumption checks failed",
                     failing[0] if failing else payload["structural"])
    km = build_kernel_module(structure, validate=False)
    problems = km.validate()
    if problems:
        return _fail(MATH_FAILURE, "bimodule law failures", problems[:3])
    rng = random.Random(args.seed)
    n_obj = structure.cat.n_objects
    functors, names = [], []
    attempts = 0
    while len(functors) < args.seeds and attempts < 20 * (args.seeds + 1):
        attempts += 1
        dims = tuple(rng.randrange(args.dims_max + 1) for _ in range(n_obj))
        try:
            functors.append(
                random_pointed_functor(km.d, dims, seed=rng.randrange(2 ** 30))
            )
        except InfeasibleRelations:
            continue
        names.append(f"seed{args.seed}_{len(functors) - 1}")
    cert = certify_equivalence(km, functors, names)
    payload = {"category": tag, "seed": args.seed,
               "certificate": cert.to_jsonable()}
    _dump(Path(args.out), payload)
    if not cert.ok:
        bad = cert.first_failure()
        return _fail(MATH_FAILURE, f"certificate failed at {bad.name}",
                     bad.to_jsonable())
    print(json.dumps({"category": tag, "functors": len(functors),
                      "ok": True}, sort_keys=True))
    return OK


def cmd_theta(args) -> int:
    km, functor = _transport_inputs(args, AdditiveFunctor)
    n = km.structure.cat.n_objects
    if args.object is not None and not 0 <= args.object < n:
        raise ValueError(f"theta requires 0 <= --object < {n}")
    objects = [args.object] if args.object is not None else range(n)
    payload = {}
    for a in objects:
        th = theta_matrix(km, functor, a)
        poset = km.structure.sub_poset(a)
        payload[str(a)] = {
            "block_order": list(reversed(poset.linearization)),
            "matrix": th.to_jsonable(),
            "inverse": th.inverse().to_jsonable(),
        }
    _dump(Path(args.out), payload)
    print(json.dumps({"objects": sorted(payload)}, sort_keys=True))
    return OK


def _matrices(data):
    """The matrices of an idem input: {"matrices": [...]} or a bare list."""
    mats = data["matrices"] if isinstance(data, dict) else data
    return [QMat.from_jsonable(m) for m in mats]


def cmd_idem(args) -> int:
    idems = _load(args.input, _matrices)
    es = orthogonal_idempotents(idems)
    ranks = [e.rank() for e in es]
    payload = {
        "idempotents": [e.to_jsonable() for e in es],
        "ranks": ranks,
        "rank_sum": sum(ranks),
        "ambient_dim": idems[0].nrows,
    }
    if args.out:
        _dump(Path(args.out), payload)
    print(json.dumps({"ranks": payload["ranks"],
                      "rank_sum": payload["rank_sum"]}, sort_keys=True))
    return OK


def make_parser():
    p = argparse.ArgumentParser(
        prog="dkequiv",
        description="finite split-subobject categories and their functor "
        "category equivalences",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="build a stock category and check it")
    ex.add_argument("name", choices=[*BUILDERS, "par"])
    ex.add_argument("--size", type=int, default=3)
    ex.add_argument("--base", help="base-category file for par")
    ex.add_argument("--out", default=".")
    ex.set_defaults(fn=cmd_example)

    ch = sub.add_parser("check", help="validate a structure file")
    ch.add_argument("path")
    ch.add_argument("--out")
    ch.set_defaults(fn=cmd_check)

    tr = sub.add_parser("transport", help="apply hat or tilde to a functor file")
    tr.add_argument("direction", choices=["hat", "tilde"])
    tr.add_argument("--category", required=True)
    tr.add_argument("--functor", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(fn=cmd_transport)

    ce = sub.add_parser("certify", help="roundtrip certificate on seeded functors")
    ce.add_argument("--category")
    ce.add_argument("--name", default="delta_bt")
    ce.add_argument("--size", type=int, default=3)
    ce.add_argument("--seeds", type=int, default=5)
    ce.add_argument("--seed", type=int, default=0)
    ce.add_argument("--dims-max", type=int, default=3)
    ce.add_argument("--out", required=True)
    ce.set_defaults(fn=cmd_certify)

    th = sub.add_parser("theta", help="dump the triangular comparison per object")
    th.add_argument("--category", required=True)
    th.add_argument("--functor", required=True)
    th.add_argument("--object", type=int)
    th.add_argument("--out", required=True)
    th.set_defaults(fn=cmd_theta)

    idm = sub.add_parser("idem", help="complete orthogonal idempotent decomposition")
    idm.add_argument("--input", required=True)
    idm.add_argument("--out")
    idm.set_defaults(fn=cmd_idem)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, a code the contract keeps for
        # mathematical failures; --help exits 0
        return BAD_INPUT if e.code else OK
    # the one table from exceptions to exit codes
    try:
        return args.fn(args)
    except (TransportError, PreconditionViolated) as e:
        return _fail(MATH_FAILURE, str(e), e.witness)
    except ValueError as e:
        # MalformedInput, or a bad argument value such as a --size below
        # the builder's least size
        return _fail(BAD_INPUT, str(e), getattr(e, "witness", None))


if __name__ == "__main__":
    sys.exit(main())
