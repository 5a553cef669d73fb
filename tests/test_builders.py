import hashlib
import itertools
import json
import subprocess
import sys
from math import comb
from pathlib import Path

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
    build_pt,
    cube_maps,
    pullback,
    validate_par_input,
)
from dkequiv import builders, structure
from dkequiv.fincat import FinCat, table_category
from dkequiv.structure import check_assumptions

from conftest import restricted_to_k


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


@pytest.mark.parametrize("optimize", [[], ["-O"]])
@pytest.mark.parametrize("call, message", [
    ("build_delta_bt(0)", "n_max: need an integer >= 1, got 0"),
    ("build_fi_sharp(-1)", "n_max: need an integer >= 0, got -1"),
    ("build_cube(-2)", "k_max: need an integer >= 0, got -2"),
], ids=["delta_bt", "fi_sharp", "cube"])
def test_builders_reject_sizes_below_the_least(optimize, call, message):
    # a ValueError naming the size argument, with or without asserts
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from dkequiv.builders import build_cube, build_delta_bt, build_fi_sharp\n"
        "try:\n"
        f"    print({call})\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, *optimize, "-c", script, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == message + "\n"


@pytest.mark.parametrize("build, size, message", [
    (build_delta_bt, 0, "n_max: need an integer >= 1, got 0"),
    (build_fi_sharp, -1, "n_max: need an integer >= 0, got -1"),
    (build_cube, -1, "k_max: need an integer >= 0, got -1"),
], ids=["delta_bt", "fi_sharp", "cube"])
def test_builders_raise_below_the_least_size_in_process(build, size, message):
    with pytest.raises(ValueError) as e:
        build(size)
    assert str(e.value) == message


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


# -- counting pullbacks against the search they replace --------------------------


def _pullback_by_search(cat, f, g):
    """The first cone (w, p, q) of the cospan (f, g), by w, then p, then q,
    for which every cone has exactly one mediating map; None when there is
    none."""
    cones = [(w, p, q) for w in cat.objects()
             for p in cat.hom(w, cat.dom[f]) for q in cat.hom(w, cat.dom[g])
             if cat.comp[f][p] == cat.comp[g][q]]
    for (w, p, q) in cones:
        if all(len([h for h in cat.hom(w2, w)
                    if cat.comp[p][h] == a and cat.comp[q][h] == b]) == 1
               for (w2, a, b) in cones):
            return (w, p, q)
    return None


def _validate_by_search(inp):
    """validate_par_input's (problems, pullbacks) on a base that is a
    category with its class ids in range, found by scanning every pair
    (m, e) for each morphism, every pair of maps for monicity, and every
    cone for each pullback."""
    cat, es, ms = inp.cat, sorted(inp.e_class), sorted(inp.m_class)
    problems = [{"problem": "isomorphism missing from a class", "id": i}
                for i in sorted(cat.isos())
                if i not in inp.e_class or i not in inp.m_class]
    for name, cls_ in (("e_class", es), ("m_class", ms)):
        problems += [{"problem": f"{name} not closed under composition",
                      "pair": [g, f]}
                     for g in cls_ for f in cls_
                     if cat.composable(g, f) and cat.comp[g][f] not in cls_]
    for f in cat.morphisms():
        pairs = [(m, e) for m in ms for e in es
                 if cat.composable(m, e) and cat.comp[m][e] == f]
        if not pairs:
            problems.append({"problem": "no (e, m) factorization", "morphism": f})
            continue
        (m0, e0) = pairs[0]
        other = next(((m1, e1) for (m1, e1) in pairs[1:] if not any(
            cat.comp[m1][i] == m0 and cat.comp[i][e0] == e1
            for i in cat.isos() if cat.cod[i] == cat.dom[m1]
            and cat.dom[i] == cat.dom[m0])), None)
        if other is not None:
            problems.append({"problem": "non-isomorphic (e, m) factorizations",
                             "morphism": f, "pairs": [[m0, e0], list(other)]})
    for m in ms:
        for w in cat.objects():
            hom = cat.hom(w, cat.dom[m])
            pair = next(([x, y] for y in hom for x in hom
                         if x < y and cat.comp[m][x] == cat.comp[m][y]), None)
            if pair is not None:
                problems.append({"problem": "m_class morphism not monic",
                                 "m": m, "pair": pair})
    pullbacks = {}
    for m in ms:
        for f in cat.morphisms():
            if cat.cod[f] != cat.cod[m]:
                continue
            pb = _pullback_by_search(cat, f, m)
            if pb is None:
                problems.append({"problem": "missing pullback of an m_class morphism",
                                 "m": m, "along": f})
                continue
            if pb[1] not in inp.m_class:
                problems.append({"problem": "pullback projection not in m_class",
                                 "m": m, "along": f, "projection": pb[1]})
            pullbacks[(f, m)] = pb
    return problems, pullbacks


def _full_subcategories(inp):
    """The full subcategory of inp's base on each nonempty set of objects,
    with both classes restricted to it."""
    cat = inp.cat
    for size in range(1, cat.n_objects + 1):
        for objs in itertools.combinations(cat.objects(), size):
            kept = [f for f in cat.morphisms()
                    if cat.dom[f] in objs and cat.cod[f] in objs]
            new = {f: i for i, f in enumerate(kept)}
            obj = {a: i for i, a in enumerate(objs)}
            sub = FinCat(
                len(objs), [obj[cat.dom[f]] for f in kept],
                [obj[cat.cod[f]] for f in kept],
                [new[cat.identity(a)] for a in objs],
                [[new[cat.comp[g][f]] if cat.composable(g, f) else None
                  for f in kept] for g in kept],
                [cat.obj_labels[a] for a in objs], [cat.mor_labels[f] for f in kept],
            )
            yield ParInput(sub, frozenset(new[f] for f in inp.e_class if f in new),
                           frozenset(new[f] for f in inp.m_class if f in new))


def _finset_2_reclassed(one_injection):
    """Maps of sets up to 2, every map in e_class.  m_class holds every map
    (maps that are not monic, factorizations that are not unique), or the
    isomorphisms and one injection (a pullback leaving m_class)."""
    inp = build_finset_input(2)
    cat = inp.cat
    everything = frozenset(cat.morphisms())
    return ParInput(cat, everything, cat.isos() | {min(inp.m_class - cat.isos())}
                    if one_injection else everything)


PAR_BASES = {
    "finset_3": lambda: build_finset_input(3),
    "fi_3": lambda: build_fi_input(3),
    "flinj_2": lambda: build_flinj_input(2),
    "finset_2_all_maps": lambda: _finset_2_reclassed(False),
    "finset_2_one_injection": lambda: _finset_2_reclassed(True),
}


@pytest.mark.parametrize("name", list(PAR_BASES))
def test_counted_pullbacks_match_the_search(name):
    # every cospan of every full subcategory, many of them without a pullback
    missing = found = 0
    for inp in _full_subcategories(PAR_BASES[name]()):
        cat = inp.cat
        for f in cat.morphisms():
            for g in cat.morphisms():
                if cat.cod[f] == cat.cod[g]:
                    pb = pullback(cat, f, g)
                    assert pb == _pullback_by_search(cat, f, g), (f, g)
                    missing += pb is None
                    found += pb is not None
    assert missing > 0 and found > 0


@pytest.mark.parametrize("name", list(PAR_BASES))
def test_validate_par_input_matches_the_search(name):
    kinds = set()
    for inp in _full_subcategories(PAR_BASES[name]()):
        got = validate_par_input(inp)
        assert got == _validate_by_search(inp)
        kinds |= {p["problem"] for p in got[0]}
    assert kinds


def test_validate_par_input_reports_an_m_class_that_is_not_closed():
    """finset 2 with the map 0 -> 2 dropped from m_class: its composites
    with the two injections 1 -> 2 leave the class, and the problem list,
    pinned here, names those pairs first, by g, then f, and then what the
    dropped map breaks."""
    inp = build_finset_input(2)
    cat = inp.cat
    (dropped,) = cat.hom(0, 2)
    problems, _ = validate_par_input(
        ParInput(cat, inp.e_class, inp.m_class - {dropped}))
    assert problems == [
        {"problem": "m_class not closed under composition", "pair": [4, 1]},
        {"problem": "m_class not closed under composition", "pair": [5, 1]},
        {"problem": "no (e, m) factorization", "morphism": 2},
        {"problem": "pullback projection not in m_class",
         "m": 1, "along": 6, "projection": 2},
        {"problem": "pullback projection not in m_class",
         "m": 4, "along": 10, "projection": 2},
        {"problem": "pullback projection not in m_class",
         "m": 5, "along": 7, "projection": 2},
    ]
    assert dropped == 2 and [cat.comp[g][f] for g, f in ((4, 1), (5, 1))] == [2, 2]


def test_pt_matches_expected_structure(pt):
    rep = check_assumptions(pt)
    assert rep.passed
    assert sorted(pt.r_class) == sorted(
        [pt.cat.identity(0), pt.cat.identity(1)]
    )


# -- every built category, byte for byte ---------------------------------------

# sha256 of json.dumps(to_jsonable(), sort_keys=True) for each output.  Ids,
# labels, classes and retractions reach every structure file and certificate,
# so how a table is assembled must leave these bytes unchanged.
BUILT_DIGESTS = {
    "delta_bt_1": (
        lambda: build_delta_bt(1),
        "44010dd3e82e178a43ac19b5dc9d53d420e30379982f86046c1572c7ce80a645",
    ),
    "delta_bt_2": (
        lambda: build_delta_bt(2),
        "8a3a28e499784572020f9035799e5a9a34eb53d363879f693680c00ffc1c73e4",
    ),
    "delta_bt_3": (
        lambda: build_delta_bt(3),
        "d0e9e139502c4ac18df151942d6db4d9727dd78ac7b5fa6836a6e8b06c5f3b48",
    ),
    "delta_bt_4": (
        lambda: build_delta_bt(4),
        "ea13942706ab186b547448f130d138ac63c1d077b24a0e903d9c03916e3c2925",
    ),
    "delta_bt_5": (
        lambda: build_delta_bt(5),
        "e0c0423c63ce6cef719006889104509a197802b49b78bc2ea61829a1a38c4d73",
    ),
    "delta_bt_6": (
        lambda: build_delta_bt(6),
        "b63f54826bffeebdcfd22ddf19696b1684b5365cecfc06fc2207f7b1794d5dd3",
    ),
    "fi_sharp_0": (
        lambda: build_fi_sharp(0),
        "d8fd3d94c639abb6bc791d0d4ed48d58eee934677af36740c1cdbe4937668291",
    ),
    "fi_sharp_1": (
        lambda: build_fi_sharp(1),
        "486b8d5f66397b1c8ef29ab9e38f07ff63e2869859e1015dcc562f9f54de7ee4",
    ),
    "fi_sharp_2": (
        lambda: build_fi_sharp(2),
        "4d485148bfa85618ecc35fce4fee37867ef2e72b5a4fd1bf30d8c44f61eb81b3",
    ),
    "fi_sharp_3": (
        lambda: build_fi_sharp(3),
        "353f2162d5b0c04d5dcf8a61c940104b489f0b0717fe5cfc1210f6f053cca153",
    ),
    "fi_sharp_4": (
        lambda: build_fi_sharp(4),
        "5a0fb82a76e4d19ad9c4f1df185739371baea2530cc33840508b20728bf107e5",
    ),
    "cube_0": (
        lambda: build_cube(0),
        "24bf16f50817b59d9abfc387953686b34e2601545b902af9ea34ae9766f20762",
    ),
    "cube_1": (
        lambda: build_cube(1),
        "9fb591bd9bbafd743078050a312b9f2af095ae27022e0d9afcd6cae06c8737c6",
    ),
    "cube_2": (
        lambda: build_cube(2),
        "3f8d4b8063b944010531424782515c2eef6f14e996a8914e9ba304a8c988c84f",
    ),
    "cube_3": (
        lambda: build_cube(3),
        "ad5c9308091cb9b2fe034cad01c5ce97c01ec3fdf185f0102b402c27e13ada8a",
    ),
    "pt": (
        build_pt,
        "8a5cadbc08148e9c54a10de86e20be4f8b632b18543427cac82504e9a2c80752",
    ),
    "finset_input_0": (
        lambda: build_finset_input(0),
        "e1be5edb20dea5177d9b00383644384606c3df54d395e1b40042762d3115519f",
    ),
    "finset_input_1": (
        lambda: build_finset_input(1),
        "105113fd91f116fbe922d5c6b9c79402a32c3adfca457fd82228753441389244",
    ),
    "finset_input_2": (
        lambda: build_finset_input(2),
        "b971c118ea1411e14c71d494d49cc9b9abe9b82166b98c56b7aa1826191ec0fb",
    ),
    "finset_input_3": (
        lambda: build_finset_input(3),
        "df17cfbf92144e226d3300423de01d37c9688b9028a80c895753b36e1129206d",
    ),
    "fi_input_0": (
        lambda: build_fi_input(0),
        "e1be5edb20dea5177d9b00383644384606c3df54d395e1b40042762d3115519f",
    ),
    "fi_input_1": (
        lambda: build_fi_input(1),
        "105113fd91f116fbe922d5c6b9c79402a32c3adfca457fd82228753441389244",
    ),
    "fi_input_2": (
        lambda: build_fi_input(2),
        "ba9d0be2bf146415bbc7a22db11aad110250caa1c54801363ed8446b6a2cc088",
    ),
    "fi_input_3": (
        lambda: build_fi_input(3),
        "ddd887476163d6eb14328d989b68bf2278f89e4098d26441c32cccc605a74d0b",
    ),
    "flinj_input_0_q2": (
        lambda: build_flinj_input(0, q=2),
        "e1be5edb20dea5177d9b00383644384606c3df54d395e1b40042762d3115519f",
    ),
    "flinj_input_1_q2": (
        lambda: build_flinj_input(1, q=2),
        "f9d80f58fe0072da6636684da159629c08dac47ffca7e2bfeed43f17258d453c",
    ),
    "flinj_input_2_q2": (
        lambda: build_flinj_input(2, q=2),
        "000012bfb2180663e4195479ef637f7efca67d8f0b8ad05226d4a5476291afa9",
    ),
    "flinj_input_1_q3": (
        lambda: build_flinj_input(1, q=3),
        "fb33f5eac714a349d5733b3af9800547cc7d51e7d6f479c68f8715451dc5a1e2",
    ),
    "flinj_input_2_q3": (
        lambda: build_flinj_input(2, q=3),
        "42a98b1417168c2ceb3455e607afc3d426b59f2ec332c0f7c8395c07f515d83c",
    ),
    "par_finset_0": (
        lambda: build_par(build_finset_input(0)),
        "a186201969a281379f684574e4a47abbc78750a2489062a6216bb2f55c2ae353",
    ),
    "par_finset_1": (
        lambda: build_par(build_finset_input(1)),
        "2c1b4143de70f096f82cd52a9732fd38d881e16905fcad7a64dcccb3a1b725d0",
    ),
    "par_finset_2": (
        lambda: build_par(build_finset_input(2)),
        "084ec71f5af7f9b50419a051b0f0dec4c8e9eac8f4b50cee1c94ba24ab32aa3c",
    ),
    "par_fi_0": (
        lambda: build_par(build_fi_input(0)),
        "a186201969a281379f684574e4a47abbc78750a2489062a6216bb2f55c2ae353",
    ),
    "par_fi_1": (
        lambda: build_par(build_fi_input(1)),
        "2c1b4143de70f096f82cd52a9732fd38d881e16905fcad7a64dcccb3a1b725d0",
    ),
    "par_fi_2": (
        lambda: build_par(build_fi_input(2)),
        "22c99062592168c081b501552f46282811b22fce891b840f5e31b2b3a1207985",
    ),
    "par_fi_3": (
        lambda: build_par(build_fi_input(3)),
        "833d08729a03a7b69120d5a50f6878ce997fcf4e5fccac3b7240d757eefde348",
    ),
    "par_flinj_2": (
        lambda: build_par(build_flinj_input(2)),
        "24a8438704b3803a19e0617d1f6bab7b643bc1686bef9c588fad3a1b833ff46a",
    ),
}

# the zero-completed category and the K-restriction of each structure
# above: name -> (digest of s.d_cat.cat, digest of restricted_to_k(s)[0])
DERIVED_DIGESTS = {
    "delta_bt_1": (
        "26149c3bad06770d056b3a8f7709ecaa3ec487d83a1ae4f733505db3ab568b08",
        "44010dd3e82e178a43ac19b5dc9d53d420e30379982f86046c1572c7ce80a645",
    ),
    "delta_bt_2": (
        "dd7c2ade01780c6f533c8a9670573eeace2c75a2e74eefd32743b2ff8eb324ff",
        "25a4d497df57561e375393d00d9fc5b466c92d76db86213ca55d2869645e0113",
    ),
    "delta_bt_3": (
        "d26c03b4b8c61a869779397c891b209d9bed2b8e3a97f6c10ae00222cffb0154",
        "6f82befb63d5c8d68a668ab43b2dfe0796c4d1087f309396dd9defb04346bfcd",
    ),
    "delta_bt_4": (
        "5879e76976598b607c3e0bfa1d7b888c46c5d9715a6f6c000ce4627356a93726",
        "4288537a5f8c6c997c37520f7b6aa9f4f0fd500a2ba661d9d17fce58c7560201",
    ),
    "delta_bt_5": (
        "31006ef4af12e3ed7820806eedeaeae64bb7e6092a56841d2e1e02abfd1be53d",
        "16ed2e6f83781c5fe8600baa9f32977bc0ac4606e772bc901de028d33e0534d8",
    ),
    "delta_bt_6": (
        "a163a7b0e3e0fc86bba23e5de60abe9c34f91fdc76671cd053edac114649e212",
        "2f44f9d0464ea9046bf44c7e864d15b029f7a354870a73d3fd5e332644c01865",
    ),
    "fi_sharp_0": (
        "5b00d3253046992a05a720f513e18ca7dbaae701fbaf1d995745f403dcd1c85b",
        "d8fd3d94c639abb6bc791d0d4ed48d58eee934677af36740c1cdbe4937668291",
    ),
    "fi_sharp_1": (
        "bea9ef7b80bc3792e4885de2d98d4ab4d35744ff98d41faf46b5dad5f1452c06",
        "486b8d5f66397b1c8ef29ab9e38f07ff63e2869859e1015dcc562f9f54de7ee4",
    ),
    "fi_sharp_2": (
        "297d190a9745e2b8a855020ee39d598c66263a0c8d52988f5166e81e25cc5f16",
        "4d485148bfa85618ecc35fce4fee37867ef2e72b5a4fd1bf30d8c44f61eb81b3",
    ),
    "fi_sharp_3": (
        "1136510becf27070532f690532768f94ac26c1da81be8f535c01cab3188b151b",
        "353f2162d5b0c04d5dcf8a61c940104b489f0b0717fe5cfc1210f6f053cca153",
    ),
    "fi_sharp_4": (
        "68562286e4b9f14a51f4f0eb4a75e4c8f67a312308e31ad9dc0b9dbadee726e6",
        "5a0fb82a76e4d19ad9c4f1df185739371baea2530cc33840508b20728bf107e5",
    ),
    "cube_0": (
        "c9583fd32e210db1ddac56ad8671fafd50c4003cb3fd78fb53fc280ef80eeeb8",
        "24bf16f50817b59d9abfc387953686b34e2601545b902af9ea34ae9766f20762",
    ),
    "cube_1": (
        "95251156578d8d14ec18ed1224019eff4673c0b4b3005e047f9e2efab959c167",
        "3f68a517cfa6ecaf24a76df0add4def68566f65eb581256a5fd598600780fbd4",
    ),
    "cube_2": (
        "51e71203fc7fb060e9d2911062cfdb04add377fc28c410a946f5d5679d6a3237",
        "7ca1c71511e56b899f50c7c4d048723d7ac1c13074fdd5b61c0a4f95a370959f",
    ),
    "cube_3": (
        "9506e76798482bdb185e318690c993218819d160ebf113612da51240ee30af37",
        "e296502b482e0ec42ac68bcd36d4dac37252e7d19c27649013c9fc8fa56e087d",
    ),
    "pt": (
        "e0d3c2d81acb8cffd3c265fcfef2fc7068d73d3e166be16720a058b2106d74e8",
        "8a5cadbc08148e9c54a10de86e20be4f8b632b18543427cac82504e9a2c80752",
    ),
    "par_finset_0": (
        "e2b8b1b126cc1bc472bd6e9c75225f3ea31baaeef0a4a44dabd82bae1ea53f00",
        "a186201969a281379f684574e4a47abbc78750a2489062a6216bb2f55c2ae353",
    ),
    "par_finset_1": (
        "4deed398d15cf7fe7622841401dd05de3ee93f688c72c0b648695fe152afaa7d",
        "2c1b4143de70f096f82cd52a9732fd38d881e16905fcad7a64dcccb3a1b725d0",
    ),
    "par_finset_2": (
        "0a22b6105833e1b1fb491672dc794cbf0446f695923e008aebdb8f5356e3cab2",
        "22c99062592168c081b501552f46282811b22fce891b840f5e31b2b3a1207985",
    ),
    "par_fi_0": (
        "e2b8b1b126cc1bc472bd6e9c75225f3ea31baaeef0a4a44dabd82bae1ea53f00",
        "a186201969a281379f684574e4a47abbc78750a2489062a6216bb2f55c2ae353",
    ),
    "par_fi_1": (
        "4deed398d15cf7fe7622841401dd05de3ee93f688c72c0b648695fe152afaa7d",
        "2c1b4143de70f096f82cd52a9732fd38d881e16905fcad7a64dcccb3a1b725d0",
    ),
    "par_fi_2": (
        "65cbc45a3cd32347ba259ff5acfade7add23e6ffd944be5b432179ad60a9f67b",
        "22c99062592168c081b501552f46282811b22fce891b840f5e31b2b3a1207985",
    ),
    "par_fi_3": (
        "0f942d78d97e59e04fe463c26a8dc89098d73e2cb89a39d3ab86a02a13093ac8",
        "833d08729a03a7b69120d5a50f6878ce997fcf4e5fccac3b7240d757eefde348",
    ),
    "par_flinj_2": (
        "918c01fdd6744cd3f9ae8b7beb56491b7d96d6a1d2f661997a8de9b88e501ca2",
        "24a8438704b3803a19e0617d1f6bab7b643bc1686bef9c588fad3a1b833ff46a",
    ),
}
for _name, (_d, _k) in DERIVED_DIGESTS.items():
    _build = BUILT_DIGESTS[_name][0]
    BUILT_DIGESTS[f"{_name}_d"] = (lambda b=_build: b().d_cat.cat, _d)
    BUILT_DIGESTS[f"{_name}_k"] = (lambda b=_build: restricted_to_k(b())[0], _k)


@pytest.mark.parametrize("name", list(BUILT_DIGESTS))
def test_built_categories_are_byte_identical(name):
    build, digest = BUILT_DIGESTS[name]
    text = json.dumps(build().to_jsonable(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the walked fill against the keyed one ------------------------------------


def spy_tables(monkeypatch, module):
    """Replace module.table_category by a spy that records, for each call,
    its FinCat, its index, its compose_keys, its keyword arguments and how
    many key compositions the fill asked for."""
    calls = []

    def spy(obj_labels, morphisms, compose_keys, identity_key, **kwargs):
        asked = [0]

        def counted(g, f):
            asked[0] += 1
            return compose_keys(g, f)

        cat, index = table_category(
            obj_labels, morphisms, counted, identity_key, **kwargs)
        calls.append({"cat": cat, "index": index, "compose": compose_keys,
                      "kwargs": kwargs, "asked": asked[0]})
        return cat, index

    monkeypatch.setattr(module, "table_category", spy)
    return calls


def keyed_reference(cat, index, compose):
    """The table keyed at every composable pair: the reference that a
    walked table must equal."""
    keys = [None] * cat.n_morphisms
    for (_, _, key), i in index.items():
        keys[i] = key
    return tuple(
        tuple(index[(cat.dom[f], cat.cod[g], compose(keys[g], keys[f]))]
              if cat.cod[f] == cat.dom[g] else None
              for f in cat.morphisms())
        for g in cat.morphisms()
    )


def composable_pairs(cat):
    return sum(len(cat.into[cat.dom[g]]) for g in cat.morphisms())


# every tuple builder at every size up to the benchmark's; fi_sharp 0 and
# delta_bt 1 have an object whose only incoming morphism is its identity
WALKED_SIZES = (
    [(build_delta_bt, k) for k in range(1, 7)]
    + [(build_fi_sharp, k) for k in range(5)]
    + [(build_cube, k) for k in range(4)]
)


@pytest.mark.parametrize(
    "build, size", WALKED_SIZES,
    ids=[f"{b.__name__}-{k}" for b, k in WALKED_SIZES])
def test_walked_table_equals_the_keyed_table(monkeypatch, build, size):
    calls = spy_tables(monkeypatch, builders)
    s = build(size)
    [call] = calls
    assert call["kwargs"] == {"associative": True}
    assert call["cat"] is s.cat
    assert s.cat.comp == keyed_reference(s.cat, call["index"], call["compose"])
    assert call["asked"] <= composable_pairs(s.cat)


def test_fi_sharp_4_composes_keys_for_the_walks_generators_only(monkeypatch):
    # the identities' rows and the 58 generators' rows are keyed, every other
    # row gathered; the keyed fill asks once per composable pair
    calls = spy_tables(monkeypatch, builders)
    cat = build_fi_sharp(4).cat
    assert calls[0]["asked"] == 8441
    assert composable_pairs(cat) == 113381


def test_dcat_pt_and_par_key_every_composable_pair(monkeypatch):
    # their keyed compositions are not known to be associative before the
    # axioms are checked, so they stay on the keyed fill
    s = build_delta_bt(3)
    base = build_fi_input(2)
    d_calls = spy_tables(monkeypatch, structure)
    calls = spy_tables(monkeypatch, builders)
    cats = [s.d_cat.cat, build_pt().cat, build_par(base).cat]
    recorded = d_calls + calls
    assert [c["cat"] for c in recorded] == cats
    for call in recorded:
        assert call["kwargs"] == {}
        assert call["asked"] == composable_pairs(call["cat"])
