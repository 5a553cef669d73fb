"""Command-line surface for scripted use.

Exit codes form a stable contract: 0 on success, 2 on a mathematical
failure (an axiom or certificate violation, with a witness in the output),
3 on malformed input.  All output is deterministic JSON: identical inputs
and seed produce byte-identical files.
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
from .structure import MRStructure, build_d_cat, check_assumptions

OK, MATH_FAILURE, BAD_INPUT = 0, 2, 3


def _dump(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(_fail(BAD_INPUT, f"cannot read {path}: {e}"))


def _fail(code, message, witness=None):
    print(json.dumps({"error": message, "witness": witness}, sort_keys=True))
    return code


def _stock_structure(name, size) -> MRStructure:
    try:
        return build_stock(name, size)
    except ValueError as e:
        raise SystemExit(_fail(BAD_INPUT, str(e)))


def _load_structure(path) -> MRStructure:
    data = _load_json(path)
    try:
        return MRStructure.from_jsonable(data)
    except (KeyError, TypeError, AssertionError) as e:
        raise SystemExit(_fail(BAD_INPUT, f"malformed structure file {path}: {e!r}"))


def _report_payload(structure, report):
    cat = structure.cat
    payload = report.to_jsonable()
    if report.structural.ok:
        der = structure.derived()
        payload["r_class"] = sorted(der.r_class)
        payload["r_class_labels"] = [
            cat.mor_labels[i] for i in sorted(der.r_class)
        ]
    return payload


def cmd_example(args) -> int:
    name, out = args.name, Path(args.out)
    if name == "par":
        if not args.base:
            return _fail(BAD_INPUT, "par requires --base with a base-category file")
        data = _load_json(args.base)
        try:
            inp = ParInput.from_jsonable(data)
        except (KeyError, TypeError) as e:
            return _fail(BAD_INPUT, f"malformed base category: {e!r}")
        try:
            structure = build_par(inp)
        except ParInputError as e:
            return _fail(BAD_INPUT, "base category unsuitable", e.problems)
        tag = f"par_{Path(args.base).stem}"
    else:
        structure = _stock_structure(name, args.size)
        # the tag carries the size only when the builder reads it
        tag = name if BUILDERS[name][1] is None else f"{name}_{args.size}"
    report = check_assumptions(structure)
    _dump(out / f"{tag}.structure.json", structure.to_jsonable())
    _dump(out / f"{tag}.assumptions.json", _report_payload(structure, report))
    if args.verbose:
        print(f"wrote {tag}.structure.json and {tag}.assumptions.json")
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
    structure = _load_structure(args.path)
    cat_report = structure.cat.check()
    if not cat_report.ok:
        return _fail(MATH_FAILURE, "category laws violated", cat_report.to_jsonable())
    report = check_assumptions(structure)
    payload = _report_payload(structure, report)
    if args.out:
        _dump(Path(args.out), payload)
    print(json.dumps({"passed": report.passed,
                      "class_sizes": report.class_sizes}, sort_keys=True))
    if not report.passed:
        return _fail(MATH_FAILURE, "checks failed", payload)
    return OK


def _load_functor(path, structure, kind):
    data = _load_json(path)
    if data.get("kind") != kind:
        raise SystemExit(
            _fail(BAD_INPUT, f"functor file {path} is not of kind {kind}")
        )
    try:
        if kind == "pointed":
            return PointedFunctor.from_jsonable(build_d_cat(structure), data)
        return AdditiveFunctor.from_jsonable(structure.cat, data)
    except (KeyError, TypeError, AssertionError, ValueError) as e:
        raise SystemExit(_fail(BAD_INPUT, f"malformed functor file {path}: {e!r}"))


def cmd_transport(args) -> int:
    structure = _load_structure(args.category)
    report = check_assumptions(structure)
    if not report.passed:
        return _fail(MATH_FAILURE, "assumption checks failed",
                     report.to_jsonable())
    km = build_kernel_module(structure, validate=False)
    kind = "pointed" if args.direction == "hat" else "additive"
    functor = _load_functor(args.functor, structure, kind)
    vr = functor.validate()
    if not vr.ok:
        return _fail(MATH_FAILURE, "input functor invalid", vr.to_jsonable())
    try:
        if args.direction == "hat":
            out = hat(km, functor)
        else:
            out = tilde(km, functor)
    except TransportError as e:
        return _fail(MATH_FAILURE, str(e), e.witness)
    payload = out.to_jsonable(category=str(args.category))
    _dump(Path(args.out), payload)
    print(json.dumps(
        {"direction": args.direction, "dims_in": list(functor.dims),
         "dims_out": list(out.dims)}, sort_keys=True))
    return OK


def cmd_certify(args) -> int:
    if args.category:
        structure = _load_structure(args.category)
        tag = Path(args.category).stem
    else:
        structure = _stock_structure(args.name, args.size)
        tag = f"{args.name}_{args.size}"
    report = check_assumptions(structure)
    if not report.passed:
        payload = report.to_jsonable()
        failing = [c for c in payload["assumptions"] if not c["passed"]]
        return _fail(MATH_FAILURE, "assumption checks failed",
                     failing[0] if failing else payload["structural"])
    km = build_kernel_module(structure, validate=True)
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
    structure = _load_structure(args.category)
    report = check_assumptions(structure)
    if not report.passed:
        return _fail(MATH_FAILURE, "assumption checks failed")
    km = build_kernel_module(structure, validate=False)
    functor = _load_functor(args.functor, structure, "additive")
    vr = functor.validate()
    if not vr.ok:
        return _fail(MATH_FAILURE, "input functor invalid", vr.to_jsonable())
    objects = [args.object] if args.object is not None else list(
        structure.cat.objects()
    )
    payload = {}
    for a in objects:
        try:
            th = theta_matrix(km, functor, a)
        except TransportError as e:
            return _fail(MATH_FAILURE, str(e), e.witness)
        poset = structure.sub_poset(a)
        payload[str(a)] = {
            "block_order": list(reversed(poset.linearization)),
            "matrix": th.to_jsonable(),
            "inverse": th.inverse().to_jsonable(),
        }
    _dump(Path(args.out), payload)
    print(json.dumps({"objects": sorted(payload)}, sort_keys=True))
    return OK


def cmd_idem(args) -> int:
    data = _load_json(args.input)
    mats = data["matrices"] if isinstance(data, dict) else data
    try:
        idems = [QMat.from_jsonable(m) for m in mats]
    except (TypeError, ValueError) as e:
        return _fail(BAD_INPUT, f"malformed matrix list: {e!r}")
    try:
        es = orthogonal_idempotents(idems)
    except PreconditionViolated as e:
        return _fail(MATH_FAILURE, str(e), {"pair": list(e.pair)})
    payload = {
        "idempotents": [e.to_jsonable() for e in es],
        "ranks": [e.rank() for e in es],
        "rank_sum": sum(e.rank() for e in es),
        "ambient_dim": idems[0].nrows if idems else 0,
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
    ex.add_argument("--verbose", action="store_true")
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
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
