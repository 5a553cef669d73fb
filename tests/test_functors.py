import subprocess
import sys
from pathlib import Path

import pytest

from dkequiv.exactlin import QMat
from dkequiv.fincat import FinCat
from dkequiv.functors import (
    AdditiveFunctor,
    InfeasibleRelations,
    NatTransform,
    PointedFunctor,
    random_pointed_functor,
)
from dkequiv.structure import MRStructure, build_d_cat

SRC = Path(__file__).resolve().parents[1] / "src"


def constant_functor(cat):
    return AdditiveFunctor(
        cat, [1] * cat.n_objects, {f: QMat.identity(1) for f in cat.morphisms()}
    )


def test_constant_functor_valid(delta4, fi3):
    for s in (delta4, fi3):
        assert constant_functor(s.cat).validate().ok


def test_chain_with_nonzero_square_rejected(km_delta4):
    d = km_delta4.d
    cat = d.cat
    dims = [1] * cat.n_objects
    mats = {}
    for f in d.nonzero_morphisms():
        mats[f] = QMat.identity(1)  # collapse o collapse now maps to 1, not 0
    bad = PointedFunctor(d, dims, mats)
    rep = bad.validate()
    assert not rep.ok
    assert any("zero composite" in v["message"] for v in rep.law)


def test_permutation_representation_valid(km_fi3):
    d = km_fi3.d
    cat = d.cat
    dims = [0, 1, 2, 3]
    mats = {}
    for f in d.nonzero_morphisms():
        lab = cat.mor_labels[f]
        t = tuple(int(x) for x in lab.split(",")) if lab != "()" else ()
        n = len(t)
        rows = [[1 if t[j] == i + 1 else 0 for j in range(n)] for i in range(n)]
        mats[f] = QMat.from_rows(rows, n)
    func = PointedFunctor(d, dims, mats)
    assert func.validate().ok


def test_random_pointed_functor_soundness(km_delta4, km_fi3, km_cube3, km_pt):
    for km, dims in [
        (km_delta4, (2, 2, 1, 1)),
        (km_fi3, (1, 2, 2, 1)),
        (km_cube3, (1, 2, 1, 1)),
        (km_pt, (2, 1)),
    ]:
        for seed in range(4):
            f = random_pointed_functor(km.d, dims, seed)
            assert f.dims == dims
            assert f.validate().ok, (dims, seed)


def test_random_pointed_functor_deterministic(km_delta4):
    a = random_pointed_functor(km_delta4.d, (1, 2, 1, 2), seed=9)
    b = random_pointed_functor(km_delta4.d, (1, 2, 1, 2), seed=9)
    assert a.dims == b.dims
    assert all(a.mats[k] == b.mats[k] for k in a.mats)
    c = random_pointed_functor(km_delta4.d, (1, 2, 1, 2), seed=10)
    assert any(a.mats[k] != c.mats[k] for k in a.mats)


def test_random_pointed_functor_zero_dims(km_delta4):
    f = random_pointed_functor(km_delta4.d, (0, 0, 0, 0), seed=0)
    assert f.validate().ok
    assert all(m.shape == (0, 0) for m in f.mats.values())


@pytest.mark.parametrize("optimize", [[], ["-O"]])
@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1, 1), (1, -1, 1)])
def test_random_pointed_functor_rejects_bad_dims(optimize, dims):
    # too short, too long or negative: a ValueError naming dims, with or
    # without asserts
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from dkequiv.builders import build_delta_bt\n"
        "from dkequiv.functors import random_pointed_functor\n"
        "try:\n"
        f"    random_pointed_functor(build_delta_bt(3).d_cat, {dims!r}, 0)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    done = subprocess.run(
        [sys.executable, *optimize, "-c", script, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "dims: need 3 non-negative integers, one per object\n"


def iso_pair_structure():
    """Two objects joined by mutually inverse morphisms: any one-dimensional
    value at a single object is infeasible."""
    cat = FinCat(
        2,
        [0, 1, 0, 1],
        [0, 1, 1, 0],
        [0, 1],
        [
            [0, None, None, 3],
            [None, 1, 2, None],
            [2, None, None, 1],
            [None, 3, 0, None],
        ],
        ["a", "b"],
        ["ida", "idb", "u", "v"],
    )
    assert cat.check().ok
    return MRStructure(cat, [0, 1, 2, 3], {0: 0, 1: 1, 2: 3, 3: 2})


def test_infeasible_relations_raised():
    s = iso_pair_structure()
    assert s.validate().ok
    d = build_d_cat(s)
    with pytest.raises(InfeasibleRelations):
        random_pointed_functor(d, (1, 0), seed=0)
    f = random_pointed_functor(d, (2, 2), seed=0)
    assert f.validate().ok


def test_nat_transform_iso_detection(km_delta4):
    f = random_pointed_functor(km_delta4.d, (1, 1, 1, 1), seed=1)
    ident = NatTransform(f, f, [QMat.identity(1)] * 4)
    assert ident.validate().ok
    assert ident.is_iso()
    singular = NatTransform(f, f, [QMat.zeros(1, 1)] * 4)
    assert not singular.is_iso()


def test_functor_json_round_trip(km_delta4, delta4):
    f = random_pointed_functor(km_delta4.d, (1, 2, 1, 1), seed=3)
    data = f.to_jsonable(category="cat.json")
    again = PointedFunctor.from_jsonable(km_delta4.d, data)
    assert again.dims == f.dims
    assert all(again.mats[k] == f.mats[k] for k in f.mats)
    t = constant_functor(delta4.cat)
    data = t.to_jsonable()
    back = AdditiveFunctor.from_jsonable(delta4.cat, data)
    assert back.dims == t.dims and back.mats == t.mats


def test_additive_validation_reports_are_pinned(pt):
    # the walking split epi with the 1x1 identity everywhere is a functor;
    # a copy with mu missing and mu* of the wrong shape fails structurally,
    # and a copy with id1 doubled breaks the identity and composition laws
    cat = pt.cat
    one = QMat.identity(1)
    good = {f: one for f in cat.morphisms()}
    assert AdditiveFunctor(cat, [1, 1], good).validate().ok
    mats = dict(good)
    del mats[2]
    mats[3] = QMat.zeros(2, 1)
    assert AdditiveFunctor(cat, [1, 1], mats).validate().to_jsonable() == {
        "structural": [
            {"message": "missing matrix", "morphism": 2},
            {"message": "matrix shape mismatch", "morphism": 3, "shape": [2, 1]},
        ],
        "law": [],
        "ok": False,
    }
    mats = dict(good)
    mats[1] = QMat.from_rows([[2]])
    assert AdditiveFunctor(cat, [1, 1], mats).validate().to_jsonable() == {
        "structural": [],
        "law": [
            {"message": "identity not sent to identity", "object": 1},
            {"message": "composition not preserved", "g": 1, "f": 1},
            {"message": "composition not preserved", "g": 1, "f": 2},
            {"message": "composition not preserved", "g": 1, "f": 4},
            {"message": "composition not preserved", "g": 3, "f": 1},
            {"message": "composition not preserved", "g": 4, "f": 1},
        ],
        "ok": False,
    }


def test_pointed_validation_reports_are_pinned(delta3):
    # delta_bt 3's completion has nonzero morphisms 0..4: the identities 0,
    # 2, 4 and the collapses 1 (1 -> 0) and 3 (2 -> 1), whose composite is a
    # formal zero.  The 1x1 identity everywhere sends that zero to 1.
    d = build_d_cat(delta3)
    assert list(d.nonzero_morphisms()) == [0, 1, 2, 3, 4]
    one = QMat.identity(1)
    good = {f: one for f in d.nonzero_morphisms()}
    mats = dict(good)
    del mats[1]
    mats[3] = QMat.zeros(1, 2)
    assert PointedFunctor(d, [1, 1, 1], mats).validate().to_jsonable() == {
        "structural": [
            {"message": "missing matrix", "morphism": 1},
            {"message": "matrix shape mismatch", "morphism": 3, "shape": [1, 2]},
        ],
        "law": [],
        "ok": False,
    }
    mats = dict(good)
    mats[4] = QMat.from_rows([[2]])
    assert PointedFunctor(d, [1, 1, 1], mats).validate().to_jsonable() == {
        "structural": [],
        "law": [
            {"message": "identity not sent to identity", "object": 2},
            {"message": "zero composite not sent to zero", "g": 1, "f": 3},
            {"message": "composition not preserved", "g": 3, "f": 4},
            {"message": "composition not preserved", "g": 4, "f": 4},
        ],
        "ok": False,
    }
