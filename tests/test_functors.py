import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dkequiv.builders import (
    BUILDERS,
    build_cube,
    build_delta_bt,
    build_fi_sharp,
    build_finset_input,
    build_flinj_input,
    build_par,
    build_pt,
)
from dkequiv.equivalence import build_kernel_module, hat
from dkequiv.exactlin import QMat
from dkequiv.fincat import FinCat, ValidationReport, table_category
from dkequiv.functors import (
    AdditiveFunctor,
    InfeasibleRelations,
    NatTransform,
    PointedFunctor,
    _unit_atom_valid,
    random_invertible,
    random_pointed_functor,
)
from dkequiv.structure import MRStructure, build_d_cat, check_assumptions

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


def split_idempotent_pair():
    """Objects x and c, an embedding m: x -> c retracted by p, e = m o p,
    and End(c) = {1, u, v, e}, in which every product of two
    non-identities is e, with u o m = v o m = m and p o u = p o v = p.
    u and v are irreducible and v o u = e is not, so v o u falls to zero
    in the completion: the one-dimensional atom at c is not a functor."""
    def compose(g, f):
        if f in ("1x", "1c"):
            return g
        if g in ("1x", "1c"):
            return f
        if (g, f) == ("p", "m"):
            return "1x"
        return "m" if f == "m" else "p" if g == "p" else "e"

    cat, _ = table_category(
        ["x", "c"],
        [(0, 0, "1x", "1x"), (1, 1, "1c", "1c"), (0, 1, "m", "m"),
         (1, 0, "p", "p"), (1, 1, "e", "e"), (1, 1, "u", "u"), (1, 1, "v", "v")],
        compose,
        lambda a: ("1x", "1c")[a],
    )
    return MRStructure(cat, [0, 1, 2], {0: 0, 1: 1, 2: 3})


def test_unit_atom_fails_where_endomorphisms_fall_to_zero():
    s = split_idempotent_pair()
    assert s.cat.check().ok and s.validate().ok
    assert sorted(s.r_class) == [0, 1, 5, 6]
    d = s.d_cat
    assert [_unit_atom_valid(d, c) for c in d.cat.objects()] == [True, False]
    with pytest.raises(InfeasibleRelations):
        random_pointed_functor(d, (0, 1), seed=0)
    # the projective atom at c is three-dimensional: 1, u and v
    assert random_pointed_functor(d, (1, 3), seed=0).validate().ok


# sha256 of random_pointed_functor(d, dims, seed).to_jsonable(), as sorted
# JSON, recorded before the atoms read D's hom sets through the hom index
FUNCTOR_DIGESTS = {
    "pt": (build_pt, [
        ((2, 1), 0, "095a5c763af74366c334226cfdb98a092405bd0b3b716fc8dbecbdc1426eddc9"),
        ((1, 2), 1, "5e1713ef2afaddb5934fe931d1d114f15d879921fa8f02180d66fbd9bf07fedc"),
        ((3, 3), 2, "b6d5f8e1ecc8b74cb20b9fd4212f2c55ba9026300be02eea6b5ef667da01010d"),
    ]),
    "delta_bt_4": (lambda: build_delta_bt(4), [
        ((1, 2, 2, 1), 0,
         "be879ef48c4b44bf5f214710cd565b3f86c2061789e671bfd799d6f7d4f9b7fa"),
        ((2, 2, 1, 1), 5,
         "aca2441c681aae5aedf590d979115813f7c7992d693f447d0c3b803ce3a5232c"),
        ((3, 1, 2, 3), 7,
         "08d9b2fddf7873cce577309e4cfaddaf879acb2b06d0a22dd18be47e693a3f4e"),
    ]),
    "fi_sharp_3": (lambda: build_fi_sharp(3), [
        ((1, 2, 2, 1), 0,
         "77f462ab7aefee9fdf054b09294a95334a129502c11e4da456f1686d0205a226"),
        ((1, 0, 2, 1), 5,
         "086b89c6b75b279c548f737681c1006b947ef09dc1c2cce35096b8e5ea56d2be"),
        ((2, 3, 3, 2), 7,
         "7b3c0e8b511b803d7d38db46a002f9206a0c9dbecdeb5bd697b1bc56542c371b"),
    ]),
    "fi_sharp_4": (lambda: build_fi_sharp(4), [
        ((1, 1, 2, 1, 1), 0,
         "dcce376ed65963286f592a016e9453444c405c50fcc1d1a1844762393c22a212"),
        ((2, 0, 3, 1, 2), 3,
         "6cc2b6530d9dc7602be65daca3882be9acf409fc1ee8745238f483813cd2c90b"),
    ]),
    "cube_2": (lambda: build_cube(2), [
        ((1, 0, 2), 0, "e350305ff3815eed486c021432b45de4e0ac61fe7af91513fb3692bb1d9c5471"),
        ((2, 2, 1), 5, "34efdff1019d2dae917463f340765e3f41f63cb3fdaf7da1899217572338c8cf"),
    ]),
    "vi_sharp_2": (lambda: build_par(build_flinj_input(2)), [
        ((1, 2, 1), 0, "7181181c98d3bc43a0fc33190119f58659c7384a23ff9fa7f048ee480b40d86f"),
        ((2, 1, 3), 4, "998c747281a8bddd028ab9ecf215ba8aced41abdff0b6a91ff779323c82e1f82"),
    ]),
    "gamma_2": (lambda: build_par(build_finset_input(2)), [
        ((1, 2, 1), 0, "5d23cc3c378a07c52f67aad5cc2b5d8b4a51b4a14788e9627e1a56cf9dde7b61"),
        ((2, 1, 3), 4, "0def43531f69607255ab9c516b953e442d1684cfd4c5b76fbc13f88b82d5f2a0"),
    ]),
    "split_idempotent_pair": (split_idempotent_pair, [
        ((1, 3), 0, "e3f3000d059b80b57382289127bfc7d6400fb07b7ee7c5eae3992b997b682f4c"),
        ((2, 6), 1, "a1b4339b08c34e7838f0eb3c29f04ace088fbe3ca2a65e9347052a05df739a2f"),
    ]),
}


@pytest.mark.parametrize("name", list(FUNCTOR_DIGESTS))
def test_seeded_functors_are_byte_identical(name):
    build, runs = FUNCTOR_DIGESTS[name]
    d = build().d_cat
    for dims, seed, digest in runs:
        f = random_pointed_functor(d, dims, seed)
        text = json.dumps(f.to_jsonable(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (dims, seed)


def _row_operations_matrix(n, rng):
    """random_invertible's matrix built from its row operations alone, as
    it was before it returned the inverse too."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            rows[j] = [x + k * y for x, y in zip(rows[j], rows[i])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return QMat.from_rows(rows, n)


def test_random_invertible_returns_its_exact_inverse():
    """The matrix and the rng stream are those of the row operations
    alone, and the inverse built by column operations is QMat.inverse's."""
    for n in range(7):
        for seed in range(300):
            rng, ref = random.Random(seed), random.Random(seed)
            m, m_inv = random_invertible(n, rng)
            assert m == _row_operations_matrix(n, ref)
            assert rng.getstate() == ref.getstate()
            assert m_inv == m.inverse(), (n, seed)


def test_nat_transform_iso_detection(km_delta4):
    f = random_pointed_functor(km_delta4.d, (1, 1, 1, 1), seed=1)
    ident = NatTransform(f, f, [QMat.identity(1)] * 4)
    assert ident.validate().ok
    assert ident.is_iso()
    singular = NatTransform(f, f, [QMat.zeros(1, 1)] * 4)
    assert not singular.is_iso()


def test_nat_transform_shapes_and_non_square_components(pt):
    cat = pt.cat
    one = QMat.identity(1)
    f = AdditiveFunctor(cat, [1, 1], {x: one for x in cat.morphisms()})
    wrong = NatTransform(f, f, [QMat.zeros(2, 1), one])
    assert wrong.validate().to_jsonable() == {
        "structural": [{"message": "component shape mismatch", "object": 0,
                        "shape": [2, 1]}],
        "law": [],
        "ok": False,
    }
    # a 1 x 2 component of full row rank: only its shape makes it no iso
    assert not NatTransform(f, f, [QMat.from_rows([[1, 0]]), one]).is_iso()


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


def _law_walk(functor, is_zero):
    """The functor laws' report from every composable pair: the reference
    that validate's generator reduction must reproduce."""
    rep = ValidationReport()
    base, mats = functor.base, functor.mats
    for a in base.objects():
        if not mats[base.identity(a)].is_identity():
            rep.add_law("identity not sent to identity", object=a)
    for g in functor.morphisms():
        for f in base.into[base.dom[g]]:
            if is_zero(f):
                continue
            h = base.comp[g][f]
            prod = mats[g].mul(mats[f])
            if is_zero(h):
                if not prod.is_zero():
                    rep.add_law("zero composite not sent to zero", g=g, f=f)
            elif mats[h] != prod:
                rep.add_law("composition not preserved", g=g, f=f)
    return rep


def _entry_mutant(mats, keys, rng):
    """mats with one entry of the matrix at one of keys changed."""
    key = rng.choice([k for k in keys if mats[k].nrows and mats[k].ncols])
    m = mats[key]
    rows = [[Fraction(x, m.den) for x in row] for row in m.rows]
    rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] += rng.choice(
        (-1, 1, Fraction(1, 2)))
    return {**mats, key: QMat.from_rows(rows, m.ncols)}


def test_reduced_functor_laws_match_the_walk_on_entry_mutants(single_entry_mutants):
    """Pointed functors and hat's additive ones, each with one seeded entry
    changed, and unchanged: validate gives the report of the walk over
    every composable pair, along generators when the base passes check()
    and in full when it does not (comp mutants of fi_sharp 2 that still
    factor, on which only the zero functor is one); every outcome of the
    gate and of the laws occurs."""
    def factors(s):
        try:
            return check_assumptions(s).passed and not s.cat.check().ok
        except ValueError:
            return False

    rng = random.Random(3)
    fi2 = build_fi_sharp(2)
    cases = [(build_fi_sharp(3), (1, 1, 2, 1)), (build_delta_bt(4), (1, 2, 2, 1)),
             (build_cube(2), (1, 1, 2)), (build_par(build_finset_input(3)), (1, 1, 1, 1)),
             (build_par(build_flinj_input(2)), (1, 1, 1))]
    cases += [(s, dims) for s in single_entry_mutants(fi2, 2, rng, factors)
              for dims in ((1, 1, 1), (0, 0, 0))]
    seen = set()
    for s, dims in cases:
        km = build_kernel_module(s, validate=False)
        d = km.d
        for seed in range(2):
            f = random_pointed_functor(d, dims, seed=seed)
            t = hat(km, f)
            t = AdditiveFunctor(s.cat, t.dims, dict(t.mats))
            for n in range(6 if any(dims) else 1):
                g = PointedFunctor(d, f.dims, f.mats if n == 0 else _entry_mutant(
                    f.mats, list(d.nonzero_morphisms()), rng))
                u = AdditiveFunctor(s.cat, t.dims, t.mats if n == 0 else _entry_mutant(
                    t.mats, list(s.cat.morphisms()), rng))
                for x, is_zero, base in ((g, d.is_zero, d.cat),
                                         (u, lambda f: False, s.cat)):
                    want = _law_walk(x, is_zero).to_jsonable()
                    assert x.validate().to_jsonable() == want
                    seen.add((base.check().ok, want["ok"]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("name, size, reduced, full", [
    ("delta_bt", 6, 2_514, 73_547),
    ("fi_sharp", 4, 2_044, 113_381),
])
def test_additive_laws_of_a_functor_take_the_generators_products(
        name, size, reduced, full, monkeypatch):
    """On a functor, validate multiplies once per generator g and morphism
    into dom g, and the walk once per composable pair."""
    km = build_kernel_module(BUILDERS[name][0](size))
    f = random_pointed_functor(km.d, (1,) * km.structure.cat.n_objects, seed=0)
    t = hat(km, f)
    t = AdditiveFunctor(t.base, t.dims, dict(t.mats))
    calls = []
    real_mul = QMat.mul

    def counting_mul(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(QMat, "mul", counting_mul)
    assert t.validate().ok
    assert len(calls) == reduced
    calls.clear()
    assert _law_walk(t, lambda f: False).ok
    assert len(calls) == full
