from math import comb

import pytest

from dkequiv.builders import (
    ParInput,
    ParInputError,
    build_cube,
    build_delta_bt,
    build_fi_input,
    build_fi_sharp,
    build_finset_input,
    build_flinj_input,
    build_par,
    cube_maps,
    pullback,
)
from dkequiv.fincat import FinCat
from dkequiv.structure import check_assumptions


def test_delta_smallest():
    s = build_delta_bt(1)
    assert s.cat.n_objects == 1 and s.cat.n_morphisms == 1


def test_fi_smallest():
    s = build_fi_sharp(0)
    assert s.cat.n_objects == 1 and s.cat.n_morphisms == 1


def test_cube_smallest():
    s = build_cube(0)
    # <0> = {bottom, top}: the only endpoint-preserving endomap is the identity
    assert s.cat.n_objects == 1 and s.cat.n_morphisms == 1


def test_fi_hom_counts(fi4):
    cat = fi4.cat
    for m in range(5):
        for n in range(5):
            want = sum(comb(m, k) * comb(n, k) * _fact(k) for k in range(min(m, n) + 1))
            assert len(cat.hom(m, n)) == want


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_cube_hom_counts(cube3):
    cat = cube3.cat
    for k in range(4):
        for h in range(4):
            want = sum(
                comb(k, s) * comb(h, s) * 2 ** (k - s)
                for s in range(min(k, h) + 1)
            )
            assert len(cat.hom(k, h)) == want
            assert len(cube_maps(k, h)) == want


def test_star_retracts_everywhere(delta4, fi3, cube2, pt):
    for s in (delta4, fi3, cube2, pt):
        cat = s.cat
        for m in sorted(s.m_class):
            assert cat.comp[s.star[m]][m] == cat.identity(cat.dom[m])


def test_pt_hom_counts(pt):
    cat = pt.cat
    assert len(cat.hom(1, 1)) == 2  # identity and the split idempotent
    assert len(cat.hom(0, 1)) == 1
    assert len(cat.hom(1, 0)) == 1
    e = [f for f in cat.hom(1, 1) if not cat.is_identity(f)][0]
    assert cat.comp[e][e] == e  # idempotent


def test_delta_k_class_reflects_bottom(delta4):
    # embedding-after-retraction composites are the maps sending only 0 to 0
    cat = delta4.cat
    expected = set()
    for f in cat.morphisms():
        lab = cat.mor_labels[f]
        t = tuple(int(x) for x in lab.split(","))
        if all(t[i] != 0 for i in range(1, len(t))):
            expected.add(f)
    assert set(delta4.k_class) == expected


def test_cube_k_class_reflects_bottom(cube2):
    cat = cube2.cat
    expected = set()
    for f in cat.morphisms():
        t = tuple(int(x) for x in cat.mor_labels[f].split(","))
        if all(t[i] != 0 for i in range(1, len(t) - 1)):
            expected.add(f)
    assert set(cube2.k_class) == expected


def test_fi_k_class_is_everything(fi3):
    # every partial injection is an embedding after a retraction
    assert set(fi3.k_class) == set(fi3.cat.morphisms())


# -- the partial-map construction ------------------------------------------------


@pytest.fixture(scope="module")
def par_finset2():
    return build_par(build_finset_input(2))


def test_par_finset_hom_counts(par_finset2):
    # partial maps m -> n count as sum_k C(m,k) n^k
    cat = par_finset2.cat
    for m in range(3):
        for n in range(3):
            want = sum(comb(m, k) * n ** k for k in range(m + 1))
            assert len(cat.hom(m, n)) == want


def test_par_finset_passes_assumptions(par_finset2):
    assert par_finset2.cat.check().ok
    rep = check_assumptions(par_finset2)
    assert rep.passed, rep.to_jsonable()
    # the irreducible class is the surjection class, embedded as spans
    der = par_finset2.derived
    assert len(der.r_class) == sum(
        _surj_count(m, n) for m in range(3) for n in range(3)
    )


def _surj_count(m, n):
    return sum((-1) ** i * comb(n, i) * (n - i) ** m for i in range(n + 1))


def test_par_of_fi_reproduces_fi_sharp(fi3):
    par = build_par(build_fi_input(3))
    assert par.cat.check().ok
    assert check_assumptions(par).passed
    cat_a, cat_b = par.cat, fi3.cat
    assert cat_a.n_objects == cat_b.n_objects
    for x in range(4):
        for y in range(4):
            assert len(cat_a.hom(x, y)) == len(cat_b.hom(x, y))
    # explicit isomorphism: a span (m, f) corresponds to the partial
    # injection f o m^{-1}; check it maps composition tables to each other
    base = build_fi_input(3).cat

    def decode(cat, f):
        lab = cat.mor_labels[f]
        return tuple(int(x) for x in lab.split(",")) if lab != "()" else ()

    iso = {}
    for f in cat_a.morphisms():
        lab = cat_a.mor_labels[f]  # "[mlabel|flabel]"
        mlab, flab = lab[1:-1].split("|")
        mt = tuple(int(x) for x in mlab.split(",")) if mlab != "()" else ()
        ft = tuple(int(x) for x in flab.split(",")) if flab != "()" else ()
        dom = cat_a.dom[f]
        partial = [0] * dom
        for pos, target in enumerate(mt):
            partial[target - 1] = ft[pos]
        want = ",".join(map(str, partial)) if partial else "()"
        match = [
            g
            for g in cat_b.hom(cat_a.dom[f], cat_a.cod[f])
            if cat_b.mor_labels[g] == want
        ]
        assert len(match) == 1
        iso[f] = match[0]
    assert len(set(iso.values())) == cat_b.n_morphisms
    for g in cat_a.morphisms():
        for f in cat_a.morphisms():
            if cat_a.composable(g, f):
                assert iso[cat_a.comp[g][f]] == cat_b.comp[iso[g]][iso[f]]
    # the chosen embeddings correspond
    assert {iso[m] for m in par.m_class} == set(fi3.m_class)


def test_par_flinj_fragment():
    inp = build_flinj_input(2, q=2)
    # injective linear maps: hom counts from subspace enumeration
    assert len(inp.cat.hom(1, 2)) == 3
    assert len(inp.cat.hom(2, 2)) == 6  # the invertibles
    par = build_par(inp)
    assert par.cat.check().ok
    assert check_assumptions(par).passed
    # partial injective linear maps 2 -> 2: identity-domain 6, line-domain
    # 3 lines * 3 embeddings, zero-domain 1
    assert len(par.cat.hom(2, 2)) == 6 + 9 + 1
    der = par.derived
    # irreducibles are the linear bijections, as spans
    assert len([r for r in der.r_class if par.cat.dom[r] == 2 == par.cat.cod[r]]) == 6


def test_par_rejects_missing_pullbacks():
    # three objects; m: X -> Z is an embedding, f: Y -> Z has no pullback
    # against it because there are no spans over (X, Y) at all
    cat = FinCat(
        3,
        [0, 1, 2, 0, 1],
        [0, 1, 2, 2, 2],
        [0, 1, 2],
        [
            [0, None, None, None, None],
            [None, 1, None, None, None],
            [None, None, 2, 3, 4],
            [3, None, None, None, None],
            [None, 4, None, None, None],
        ],
        ["X", "Y", "Z"],
        ["idX", "idY", "idZ", "m", "f"],
    )
    assert cat.check().ok
    inp = ParInput(cat, frozenset({0, 1, 2, 4}), frozenset({0, 1, 2, 3}))
    with pytest.raises(ParInputError) as exc:
        build_par(inp)
    assert any("pullback" in p["problem"] for p in exc.value.problems)


def test_pullback_in_finset():
    inp = build_finset_input(2)
    cat = inp.cat
    # pull back an injection along a map and land on an embedding again
    m = next(f for f in sorted(inp.m_class) if cat.dom[f] == 1 and cat.cod[f] == 2)
    f = next(f for f in cat.morphisms() if cat.dom[f] == 2 and cat.cod[f] == 2)
    pb = pullback(cat, f, m)
    assert pb is not None
    (w, p, q) = pb
    assert cat.comp[f][p] == cat.comp[m][q]
    assert p in inp.m_class


def test_pt_matches_expected_structure(pt):
    rep = check_assumptions(pt)
    assert rep.passed
    assert sorted(pt.r_class) == sorted(
        [pt.cat.identity(0), pt.cat.identity(1)]
    )
