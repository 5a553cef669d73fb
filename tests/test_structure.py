import json
import random
from math import comb

import pytest

from dkequiv.builders import (
    build_cube,
    build_delta_bt,
    build_fi_sharp,
    build_finset_input,
    build_flinj_input,
    build_par,
    build_pt,
)
from dkequiv.equivalence import KernelModule
from dkequiv.fincat import FinCat
from dkequiv.structure import (
    CoendPairReport,
    MRStructure,
    StructureError,
    SubPoset,
    _finiteness_witnesses,
    build_d_cat,
    check_assumptions,
    verify_coend_bijections,
)

from conftest import (
    closed_cuts,
    idempotent_ordering,
    maximal_proper,
    negative_controls,
    restricted_to_k,
)


def naive_r_class(s):
    """Direct triple search: irreducible means every m o x o star(n)
    decomposition has invertible embedding parts."""
    cat = s.cat
    isos = cat.isos()
    bad = set()
    for m in sorted(s.m_class):
        for n in sorted(s.m_class):
            sn = s.star[n]
            for x in cat.morphisms():
                if cat.dom[x] != cat.dom[n] or cat.cod[x] != cat.dom[m]:
                    continue
                if m in isos and n in isos:
                    continue
                bad.add(cat.comp[m][cat.comp[x][sn]])
    return frozenset(cat.morphisms()) - bad


@pytest.mark.parametrize(
    "builder", [build_pt, lambda: build_delta_bt(3), lambda: build_fi_sharp(2),
                lambda: build_cube(1)]
)
def test_r_class_matches_naive_search(builder):
    s = builder()
    assert s.r_class == naive_r_class(s)


def _decode(cat, f):
    lab = cat.mor_labels[f]
    return tuple(int(x) for x in lab.split(",")) if lab and lab != "()" else ()


def test_r_class_delta_is_identities_and_collapses(delta5):
    cat = delta5.cat
    expected = set()
    for f in cat.morphisms():
        t = _decode(cat, f)
        d, c = cat.dom[f], cat.cod[f]
        if d == c and t == tuple(range(d + 1)):
            expected.add(f)  # identity
        elif d == c + 1 and t == (0,) + tuple(range(c + 1)):
            expected.add(f)  # the collapse map hitting 0 twice
    assert set(delta5.r_class) == expected


def test_r_class_fi_is_bijections(fi4):
    cat = fi4.cat
    expected = {
        f
        for f in cat.morphisms()
        if cat.dom[f] == cat.cod[f]
        and all(x != 0 for x in _decode(cat, f))
    }
    assert set(fi4.r_class) == expected


def test_r_class_cube_is_top_reflecting_surjections(cube3):
    cat = cube3.cat
    expected = set()
    for f in cat.morphisms():
        t = _decode(cat, f)
        d, c = cat.dom[f], cat.cod[f]
        surjective = set(t) == set(range(c + 2))
        reflects_top = all(
            t[i] != c + 1 for i in range(d + 1)
        )  # only the top goes to the top
        if surjective and reflects_top:
            expected.add(f)
    assert set(cube3.r_class) == expected


def test_factorize_embeddings(delta4, fi3):
    for s in (delta4, fi3):
        cat = s.cat
        for m in sorted(s.m_class):
            fact = s.factorize(m)
            assert fact.m == cat.identity(cat.dom[m])
            assert fact.n == s.canonical_emb(m)
            if s.canonical_emb(m) == m:
                assert fact.r == cat.identity(cat.dom[m])
            # composite reproduces m
            got = cat.comp[cat.comp[fact.n][fact.r]][s.star[fact.m]]
            assert got == m


def test_factorize_delta_spec_cases(delta4):
    cat = delta4.cat
    by_label = {
        (cat.mor_labels[f], cat.dom[f], cat.cod[f]): f for f in cat.morphisms()
    }
    sigma1 = by_label[("0,1,1", 2, 1)]  # surjection hitting 1 twice: a retraction
    fact = delta4.factorize(sigma1)
    assert fact.n == cat.identity(1) and fact.r == cat.identity(1)
    assert cat.mor_labels[fact.m] == "0,2"  # its section skips the middle
    sigma0 = by_label[("0,0,1", 2, 1)]  # the collapse map: irreducible
    fact = delta4.factorize(sigma0)
    assert fact.n == cat.identity(1) and fact.m == cat.identity(2)
    assert fact.r == sigma0


def test_s_part_fi(fi3):
    cat = fi3.cat
    for u in cat.morphisms():
        t = _decode(cat, u)
        s_u = fi3.s_part(u)
        if all(x != 0 for x in t):
            # total injection: the non-embedding part is its bijective
            # corestriction onto the image
            assert fi3.s_in_r(u)
            st = _decode(cat, s_u)
            assert len(st) == len(t) and all(x != 0 for x in st)
            assert sorted(st) == list(range(1, len(t) + 1))
        if any(x == 0 for x in t) and any(x != 0 for x in t) or (
            t == () and cat.dom[u] > 0
        ):
            # strictly partial: the embedding part is non-invertible
            assert not fi3.s_in_r(u)


def test_s_part_composition_identity(delta4, fi3):
    # when both sides are defined, s(u o r) = s(u) o r for irreducible r
    for s in (delta4, fi3):
        cat = s.cat
        for u in cat.morphisms():
            if not s.s_in_r(u):
                continue
            for r in sorted(s.r_class):
                if cat.cod[r] != cat.dom[u]:
                    continue
                ur = cat.comp[u][r]
                if s.s_in_r(ur):
                    assert s.s_part(ur) == cat.comp[s.s_part(u)][r]


def test_r_class_invariant_under_isos(fi3):
    cat = fi3.cat
    isos = cat.isos()
    for r in sorted(fi3.r_class):
        for i in isos:
            if cat.composable(r, i):
                assert cat.comp[r][i] in fi3.r_class
            if cat.composable(i, r):
                assert cat.comp[i][r] in fi3.r_class


def test_sub_poset_fi_boolean(fi3):
    poset = fi3.sub_poset(3)
    assert len(poset) == 8  # subsets of a 3-set
    cat = fi3.cat
    # independent order oracle: image-subset containment
    def image(rep):
        return frozenset(x for x in _decode(cat, rep) if x != 0)

    for a in poset.elements:
        for b in poset.elements:
            assert poset.leq(a, b) == (image(a) <= image(b))
    assert len(maximal_proper(poset)) == 3
    assert poset.check() == []


def test_sub_poset_delta(delta4):
    poset = delta4.sub_poset(3)  # ordinal 4
    assert len(poset) == comb(2, 0) + comb(2, 1) + comb(2, 2)
    assert poset.check() == []
    assert len(delta4.sub_poset(0)) == 1  # ordinal 1: no proper parts


def test_d_cat_delta_chain(delta4):
    d = build_d_cat(delta4)
    cat = delta4.cat
    assert d.cat.check().ok  # associativity including zeros
    collapse = {
        f for f in sorted(delta4.r_class)
        if cat.dom[f] == cat.cod[f] + 1
    }
    for f in collapse:
        for g in collapse:
            if cat.composable(g, f):
                assert d.is_zero(d.cat.comp[d.r_to_d[g]][d.r_to_d[f]])


def test_d_cat_fi_groupoid(fi3):
    d = build_d_cat(fi3)
    assert d.cat.check().ok
    # bijections compose to bijections: never zero among nonzeros
    for g in d.nonzero_morphisms():
        for f in d.nonzero_morphisms():
            if d.cat.composable(g, f):
                assert not d.is_zero(d.cat.comp[g][f])
    # one nonzero block of size k! per size
    for k in range(4):
        assert len(
            [f for f in d.nonzero_morphisms()
             if d.cat.dom[f] == k and d.cat.cod[f] == k]
        ) == [1, 1, 2, 6][k]


def test_d_cat_pt_identities_and_zeros(pt):
    d = build_d_cat(pt)
    assert d.n_nonzero == 2
    assert d.cat.check().ok


def test_d_cat_cube_semisimplicial(cube2):
    # zero completion of the cube shape: one nonzero block per pair of
    # levels, counted like injections the other way around
    d = build_d_cat(cube2)
    assert d.cat.check().ok
    for k in range(3):
        for h in range(3):
            nz = [
                f for f in d.nonzero_morphisms()
                if d.cat.dom[f] == k and d.cat.cod[f] == h
            ]
            assert len(nz) == comb(k, h)


def test_assumptions_pass_on_builders(pt, delta4, fi3, cube2):
    for s in (pt, delta4, fi3, cube2):
        rep = check_assumptions(s)
        assert rep.passed, rep.to_jsonable()


def test_corrupted_star_reported_structurally(delta4):
    cat = delta4.cat
    star = dict(delta4.star)
    # break star(m) o m = id for some non-identity embedding
    m, bad = next(
        (m, g)
        for m in sorted(delta4.m_class)
        if not cat.is_identity(m)
        for g in cat.hom(cat.cod[m], cat.dom[m])
        if cat.comp[g][m] != cat.identity(cat.dom[m])
    )
    star[m] = bad
    broken = MRStructure(cat, delta4.m_class, star)
    rep = check_assumptions(broken)
    assert not rep.passed
    assert rep.structural.structural  # reported before the axiom checks
    assert rep.checks == []


def test_validate_returns_the_table_report_alone():
    # a dangling composite: validate stops at the tables, before it reads
    # the embeddings, which hold a dangling id as well
    cat = FinCat(1, [0], [0], [0], [[5]])
    rep = MRStructure(cat, [0, 7], {0: 0}).validate()
    assert rep.to_jsonable() == cat.check_tables().to_jsonable() == {
        "structural": [{"message": "dangling composite id", "g": 0, "f": 0,
                        "value": 5}],
        "law": [],
        "ok": False,
    }


def test_star_of_an_identity_must_be_the_identity():
    # identity 0 and an endomorphism 1 with 1 o 0 = 0, which breaks an
    # identity law, one that validate leaves to FinCat.check; star(0) = 1
    # then passes star(m) o m = id, and only star(id) = id fails
    cat = FinCat(1, [0, 0], [0, 0], [0], [[0, 1], [0, 1]])
    assert MRStructure(cat, [0], {0: 1}).validate().to_jsonable() == {
        "structural": [{"message": "star(id) != id", "object": 0}],
        "law": [],
        "ok": False,
    }


def test_sub_poset_check_names_each_failed_axiom():
    # hand-built posets on classes 1, 2, 3; the last in the linearization is
    # the whole object
    assert SubPoset(0, [1, 2], {(2, 2), (1, 2)}, [1, 2]).check() == [
        "not reflexive at 1"]
    refl = {(1, 1), (2, 2), (3, 3)}
    assert SubPoset(0, [1, 2, 3], refl | {(1, 2), (2, 3)}, [1, 2, 3]).check() == [
        "not transitive at (1,2,3)", "1 not below the whole object"]
    assert SubPoset(0, [1, 2], {(1, 1), (2, 2)}, [1, 2]).check() == [
        "1 not below the whole object"]
    assert SubPoset(0, [1, 2], refl | {(1, 2)}, [1, 2]).check() == []


def test_a_two_cycle_of_subobject_relations_is_a_finiteness_witness(pt):
    # the idempotent e = mu o mu* taken as an embedding with star(e) = e:
    # star(id) o e and star(e) o id are both e, an embedding, so the classes
    # of id and e are compatible with each other
    e = pt.cat.mor_labels.index("e")
    s = MRStructure(pt.cat, pt.m_class | {e}, {**pt.star, e: e})
    assert list(_finiteness_witnesses(s, None)) == [
        {"object": 1, "problems": ["subobject relations of object 1 contain a cycle"]}
    ]


def test_idempotent_ordering_fi(fi3):
    cat = fi3.cat
    order = idempotent_ordering(fi3, 3)
    assert order is not None and len(order) == 3
    cs = [cat.comp[m][fi3.star[m]] for m in order]
    for j in range(3):
        for i in range(j):
            assert cat.comp[cs[j]][cat.comp[cs[i]][cs[j]]] == cat.comp[cs[j]][cs[i]]


def test_idempotent_ordering_trivial_and_delta(pt, delta4):
    assert idempotent_ordering(pt, 0) == []
    assert idempotent_ordering(pt, 1) is not None  # single maximal proper part
    for a in delta4.cat.objects():
        assert idempotent_ordering(delta4, a) is not None


def test_idempotent_ordering_cap(fi3):
    with pytest.raises(ValueError):
        idempotent_ordering(fi3, 3, cap=2)


def test_coend_bijections_small(pt, delta4):
    # terminal category: both comparisons relate one-element pointed sets
    terminal = build_delta_bt(1)
    rep = verify_coend_bijections(terminal)
    assert rep.ok
    assert [(e.kind, e.source, e.target, e.class_count) for e in rep.entries] == [
        ("right", 0, 0, 1), ("left", 0, 0, 1),
    ]
    for s in (pt, delta4):
        rep = verify_coend_bijections(s)
        assert rep.ok


def test_coend_bijections_fi3_counts(fi3):
    rep = verify_coend_bijections(fi3)
    assert rep.ok
    entry = next(e for e in rep.entries
                 if (e.kind, e.source, e.target) == ("right", 2, 3))
    assert entry.class_count == 6 and entry.target_count == 6
    for e in rep.entries:
        assert e.class_count == e.target_count



# right and left class counts of delta_bt 3, indexed [source][target]; every
# class count equals its target count
DELTA3_COEND_COUNTS = [[1, 0, 0], [1, 1, 1], [0, 1, 2]]


def _coend_report(overrides):
    """The delta_bt 3 coend report with the entries of overrides, keyed by
    (kind, source, target), replaced by (class_count, target_count,
    problems)."""
    entries = []
    for kind in ("right", "left"):
        for a in range(3):
            for b in range(3):
                n = DELTA3_COEND_COUNTS[a][b]
                classes, targets, problems = overrides.get((kind, a, b), (n, n, []))
                entries.append({
                    "kind": kind, "source": a, "target": b,
                    "class_count": classes, "target_count": targets,
                    "problems": problems,
                    "ok": not problems and classes == targets,
                })
    return {"entries": entries, "ok": all(e["ok"] for e in entries)}


@pytest.mark.parametrize("flipped, overrides", [
    # the identity of the one-element ordinal leaves the target
    (0, {
        ("right", 0, 0): (1, 0, [
            {"problem": "class maps outside the target", "value": 0}]),
        ("left", 0, 0): (1, 0, [
            {"problem": "non-basepoint class maps to zero", "witness": (0, 0)}]),
    }),
    # the collapse of the three-element ordinal enters the target
    (4, {
        ("right", 2, 0): (0, 1, [{"problem": "value not hit", "value": 4}]),
        ("left", 2, 0): (0, 1, [
            {"problem": "value not constant on class", "values": [4, "zero"]},
            {"problem": "value not hit", "value": 4}]),
    }),
])
def test_coend_problems_are_pinned(flipped, overrides):
    s = build_delta_bt(3)
    s_in_r = s.s_in_r
    s.s_in_r = lambda u: s_in_r(u) != (u == flipped)
    assert verify_coend_bijections(build_delta_bt(3)).to_jsonable() == _coend_report({})
    assert verify_coend_bijections(s).to_jsonable() == _coend_report(overrides)


def _reference_coends(s):
    """Reference for verify_coend_bijections: the right relation along every
    isomorphism and the left one along every member of K, on pairs kept as
    tuples, and the report read off the classes entry by entry."""
    cat, der = s.cat, s.derived
    zero = ("zero",)

    def classes(items, unions):
        parent = {x: x for x in items}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for x, y in unions:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
        out = {}
        for x in parent:
            out.setdefault(find(x), []).append(x)
        return list(out.values())

    def report(kind, source, target, parts, pointed, problems=()):
        targets = [u for u in cat.hom(source, target) if s.s_in_r(u)]
        hit, problems = set(), list(problems)
        for members in parts:
            vals = {None if x == zero else cat.comp[x[0]][x[1]] for x in members}
            if pointed:
                vals = {v if v in targets else None for v in vals}
            if len(vals) > 1:
                shown = sorted(vals) if not pointed else [
                    "zero" if v is None else v for v in sorted(vals, key=str)]
                problems.append({"problem": "value not constant on class",
                                 "values": shown})
                continue
            v = vals.pop()
            if zero in members:
                if v is not None:
                    problems.append({"problem": "basepoint class has nonzero value",
                                     "value": v})
            elif v is None:
                problems.append({"problem": "non-basepoint class maps to zero",
                                 "witness": min(members)})
            elif v not in targets:
                problems.append({"problem": "class maps outside the target",
                                 "value": v})
            elif v in hit:
                problems.append({"problem": "two classes share a value", "value": v})
            else:
                hit.add(v)
        problems += [{"problem": "value not hit", "value": u}
                     for u in targets if u not in hit]
        count = len(parts) - pointed
        return {"kind": kind, "source": source, "target": target,
                "class_count": count, "target_count": len(targets),
                "problems": problems,
                "ok": not problems and count == len(targets)}

    entries = []
    for a in cat.objects():
        for d in cat.objects():
            pairs = [(m, r) for m in sorted(s.m_class) if cat.cod[m] == d
                     for r in sorted(der.r_class)
                     if cat.cod[r] == cat.dom[m] and cat.dom[r] == a]
            unions, leaving = [], []
            for m in sorted({m for m, _ in pairs}):
                for i in cat.isos_into(cat.dom[m]):
                    steps = [(r2, (cat.comp[m][i], r2), (m, cat.comp[i][r2]))
                             for r2 in sorted(der.r_class)
                             if cat.cod[r2] == cat.dom[i] and cat.dom[r2] == a]
                    out = [r2 for r2, x, y in steps
                           if x not in pairs or y not in pairs]
                    if out:
                        leaving.append({"problem": "relation leaves the pairs",
                                        "witness": (m, i, out[0])})
                    else:
                        unions += [(x, y) for _, x, y in steps]
            entries.append(report("right", a, d, classes(pairs, unions), False,
                                  leaving))
    for c in cat.objects():
        for b in cat.objects():
            ms = [m for m in sorted(s.m_class) if cat.dom[m] == c]
            pairs = [(g, m) for m in ms for g in cat.hom(cat.cod[m], b)]
            unions = [
                ((cat.comp[g][k], m),
                 (g, cat.comp[k][m]) if cat.comp[k][m] in s.m_class else zero)
                for m in ms for k in sorted(der.k_class) if cat.dom[k] == cat.cod[m]
                for g in cat.hom(cat.cod[k], b)
            ]
            entries.append(report("left", c, b, classes(pairs + [zero], unions), True))
    return {"entries": entries, "ok": all(e["ok"] for e in entries)}


def _coend_preconditions(s):
    """The two conditions of the closed forms' gate: whether check() and
    whether validate() passes."""
    return s.cat.check().ok, s.validate().ok


def _swapped_targets(base):
    """A copy of base whose targets trade one member for a non-target of
    the same hom set, the first hom set that has both: as many targets,
    but not the same ones."""
    cat = base.cat
    swapped = next({ins[0], outs[0]}
                   for c in cat.objects() for b in cat.objects()
                   for ins in [[u for u in cat.hom(c, b) if base.s_in_r(u)]]
                   for outs in [[u for u in cat.hom(c, b) if u not in ins]]
                   if ins and outs)
    bad = MRStructure(cat, base.m_class, base.star)
    bad.s_in_r = lambda u: base.s_in_r(u) != (u in swapped)
    return bad


def _non_conjugate_pairs():
    """The finite sets 0, 1 and 2 with every map, the injections out of 1
    and 2 and the identity of 0 as embeddings, each retracted by sending
    every point off its image to the first point.  check() and validate()
    pass.  The two
    embeddings 1 -> 2 agree after the map 0 -> 1, which is irreducible, so
    the right entry (0, 2) has two pairs of one value that no isomorphism
    relates.  factorize fails there, so the targets are borrowed: the
    composites of an embedding after an irreducible morphism."""
    from itertools import product

    from dkequiv.fincat import table_category

    mors = [(a, b, f, f"{a}>{b}:{''.join(map(str, f))}")
            for a in range(3) for b in range(3) for f in product(range(b), repeat=a)]
    cat, index = table_category(["0", "1", "2"], mors,
                                lambda g, f: tuple(g[x] for x in f),
                                lambda a: tuple(range(a)), associative=True)
    star = {index[(a, b, f)]: index[(b, a, tuple(f.index(y) if y in f else 0
                                                 for y in range(b)))]
            for a, b, f, _ in mors if len(set(f)) == a and (a or not b)}
    s = MRStructure(cat, star.keys(), star)
    s.s_in_r = {cat.comp[m][r] for m in s.m_class for r in s.derived.r_class
                if cat.composable(m, r)}.__contains__
    return s


def _outcome(fn, s):
    """fn(s), or the name of the exception it raises."""
    try:
        return fn(s)
    except Exception as e:  # both sides must fail alike
        return ("raises", type(e).__name__)


@pytest.fixture(scope="module")
def coend_cases(single_entry_mutants):
    """The stock structures of size at most 3, Gamma_2, Gamma_3 and VI#_2
    (injective linear maps over F_2, whose isomorphisms do not permute a
    set's elements), seeded mutants of those with at most 40 morphisms
    that pass validate, seeded cuts closed under composition of those of
    them with isomorphisms other than identities, and structures that the
    closed forms' gate, check() and validate(), refuses or admits.  It
    refuses a non-associative table, a retraction replaced by a morphism
    that is not one, an identity whose retraction is an idempotent (also
    with targets borrowed from the intact structure), a 3-cycle dropped
    from the embeddings, and the identity of the last or of the first
    object dropped from them (targets borrowed).  It admits two structures
    whose targets have one member swapped for a non-target of the same hom
    set, and _non_conjugate_pairs."""
    import random

    from dkequiv.builders import BUILDERS

    rng = random.Random(5)
    cases = [build_pt()]
    cases += [BUILDERS[name][0](n) for name in ("delta_bt", "fi_sharp", "cube")
              for n in range(BUILDERS[name][1], 4)]
    cases += [build_par(build_finset_input(n)) for n in (2, 3)]
    cases.append(build_par(build_flinj_input(2, 2)))
    for base in cases[:]:
        if base.cat.n_morphisms <= 40:
            cases += single_entry_mutants(base, 12, rng, lambda x: x.validate().ok)
            if any(not base.cat.is_identity(i) for i in base.cat.isos()):
                cases += closed_cuts(base, 4, rng)
    # a retraction replaced by a morphism that is not one: K is not closed
    cube2 = build_cube(2)
    for _ in range(200):
        m = rng.choice(sorted(cube2.m_class))
        bad = MRStructure(cube2.cat, cube2.m_class, {
            **cube2.star, m: rng.choice(cube2.cat.hom(cube2.cat.cod[m],
                                                      cube2.cat.dom[m]))})
        k_class = bad.derived.k_class
        if (any(bad.cat.comp[k2][k] not in k_class for k in k_class
                for k2 in k_class if bad.cat.composable(k2, k))
                and "entries" in _outcome(_reference_coends, bad)):
            cases.append(bad)
            break
    # the retraction of the identity of the middle object of cube 2 replaced
    # by the idempotent 0,2,2: K is closed but misses that identity
    labels = cube2.cat.mor_labels
    idempotent_star = {**cube2.star, cube2.cat.identity(1): labels.index("0,2,2")}
    cases.append(MRStructure(cube2.cat, cube2.m_class, idempotent_star))
    # a 3-cycle dropped from the embeddings: its inverse in K o M leaves M
    # and the 3-cycle in K brings it back
    fi3 = build_fi_sharp(3)
    cycle = fi3.cat.mor_labels.index("3,1,2")
    kept = fi3.m_class - {cycle}
    cases.append(MRStructure(fi3.cat, kept, {m: fi3.star[m] for m in kept}))
    # targets borrowed from the intact structure, where factorize fails:
    # delta_bt 3 with the identity of its last object dropped from the
    # embeddings (M stays inside K), the cube 2 case above (M leaves K), and
    # delta_bt 3 with the identity of its first object dropped, so that no
    # embedding leaves that object and its left entries have no pair
    delta3 = build_delta_bt(3)

    def without_identity(a):
        kept = delta3.m_class - {delta3.cat.identity(a)}
        return MRStructure(delta3.cat, kept, {m: delta3.star[m] for m in kept})

    borrowed = [(without_identity(2), delta3),
                (MRStructure(cube2.cat, cube2.m_class, idempotent_star), cube2),
                (without_identity(0), delta3)]
    for bad, base in borrowed:
        bad.s_in_r = base.s_in_r
        cases.append(bad)
    cases += [_swapped_targets(base) for base in (delta3, fi3)]
    cases.append(_non_conjugate_pairs())
    seen = {_coend_preconditions(s) for s in cases}
    assert {(True, True), (False, True), (True, False)} <= seen
    return cases


def test_coend_bijections_match_the_reference(coend_cases):
    """verify_coend_bijections reports what the relations along every
    isomorphism and every member of K give, on every case of coend_cases."""
    for s in coend_cases:
        got = _outcome(lambda x: verify_coend_bijections(x).to_jsonable(), s)
        assert got == _outcome(_reference_coends, s)


def test_a_relation_leaving_the_pairs_is_reported():
    """fi_sharp 3 with its 3-cycle c = 3,1,2 dropped from the embeddings
    passes check() and fails validate().  The right relation
    (id o c, r) ~ (id, c o r) at the object 3 has a side that is no pair,
    since c is no embedding, so the right entry (3, 3) fails with the
    witness (id, c, id) first, and the report is the reference's."""
    fi3 = build_fi_sharp(3)
    cat = fi3.cat
    cycle = cat.mor_labels.index("3,1,2")
    kept = fi3.m_class - {cycle}
    s = MRStructure(cat, kept, {m: fi3.star[m] for m in kept})
    assert _coend_preconditions(s) == (True, False)
    got = verify_coend_bijections(s).to_jsonable()
    assert got == _reference_coends(s)
    ident = cat.identity(3)
    (entry,) = [e for e in got["entries"]
                if (e["kind"], e["source"], e["target"]) == ("right", 3, 3)]
    assert not entry["ok"]
    assert entry["problems"][0] == {"problem": "relation leaves the pairs",
                                    "witness": (ident, cycle, ident)}
    assert all(p["problem"] == "relation leaves the pairs"
               for p in entry["problems"])


def test_an_isomorphism_leaving_the_irreducibles_is_reported():
    """fi_sharp 3 with a transposition t of 3 taken out of R (targets
    borrowed): t o id is no irreducible, so the right relation
    (id o t, id) ~ (id, t o id) has a side that is no pair, and the right
    entry (3, 3) fails with the witness (id, t, id), as the reference does."""
    from dataclasses import replace

    base = build_fi_sharp(3)
    cat = base.cat
    t = cat.mor_labels.index("2,1,3")
    s = MRStructure(cat, base.m_class, base.star)
    s.derived = replace(base.derived, r_class=base.derived.r_class - {t})
    s.s_in_r = base.s_in_r
    got = verify_coend_bijections(s).to_jsonable()
    assert got == _reference_coends(s)
    ident = cat.identity(3)
    (entry,) = [e for e in got["entries"]
                if (e["kind"], e["source"], e["target"]) == ("right", 3, 3)]
    assert {"problem": "relation leaves the pairs",
            "witness": (ident, t, ident)} in entry["problems"]


def _spy_union_find(monkeypatch):
    """Wrap structure._classes and _bijection_report so that each entry
    the union-find reports is appended to the returned list as (kind,
    source, target, union steps taken for it): one per relation."""
    from dkequiv import structure

    walked, steps = [], [0]
    classes, report = structure._classes, structure._bijection_report

    def counted(pairs, relations):
        relations = list(relations)
        steps[0] += len(relations)
        return classes(pairs, relations)

    def recorded(kind, source, target, *args, **kwargs):
        walked.append((kind, source, target, steps[0]))
        steps[0] = 0
        return report(kind, source, target, *args, **kwargs)

    monkeypatch.setattr(structure, "_classes", counted)
    monkeypatch.setattr(structure, "_bijection_report", recorded)
    return walked


def _right_orbits_pass(s, a, d, targets):
    """The right closed form at (a, d), test-side: the values of the pairs
    (m, r) of an embedding into d after an irreducible out of a are the
    targets, and the pairs of each value are the orbit
    {(m o i, inv(i) o r)} of the first of them."""
    cat, r_class = s.cat, s.derived.r_class
    by_value = {}
    for m in sorted(s.m_class):
        if cat.cod[m] == d:
            for r in cat.hom(a, cat.dom[m]):
                if r in r_class:
                    by_value.setdefault(cat.comp[m][r], []).append((m, r))
    return sorted(by_value) == targets and all(
        set(pairs) == {(cat.comp[m][i], cat.comp[cat.iso_inverse(i)][r])
                       for i in cat.isos_into(cat.dom[m])}
        for pairs in by_value.values() for m, r in pairs[:1])


def test_closed_forms_match_the_union_find(coend_cases, monkeypatch):
    """On every case of coend_cases the reports are, entry by entry, those
    with the closed forms' gate forced off, where the union-find reports
    every entry.  On the cases the gate admits, each closed form, computed
    test-side, passes an entry exactly when the union-find finds it ok, and
    the union-find reports exactly the entries it does not pass: on the
    right _right_orbits_pass, on the left hom(c, b) - C o X, for
    X = (K o M) - M, equal to the target list.  Both gate outcomes occur,
    and on each side some admitted entry falls back."""
    from dkequiv import structure

    def run(s):
        walked.clear()
        got = _outcome(lambda x: verify_coend_bijections(x).to_jsonable(), s)
        return got, [w[:3] for w in walked]

    walked = _spy_union_find(monkeypatch)
    fast = [run(s) for s in coend_cases]
    monkeypatch.setattr(structure, "_closed_forms_apply", lambda s: False)
    gates, fell_back = set(), set()
    for s, (got, fell) in zip(coend_cases, fast):
        want, every = run(s)
        assert got == want
        if "entries" not in got:
            continue
        entries = got["entries"]
        assert every == [(e["kind"], e["source"], e["target"]) for e in entries]
        gate = all(_coend_preconditions(s))
        gates.add(gate)
        if not gate:
            continue
        cat, der = s.cat, s.derived
        x = {cat.comp[k][m] for m in s.m_class for k in der.k_class
             if cat.composable(k, m)} - s.m_class
        zero = {cat.comp[h][t] for t in x for h in cat.outof[cat.cod[t]]}
        for e in entries:
            kind, a, b = e["kind"], e["source"], e["target"]
            targets = [u for u in cat.hom(a, b) if s.s_in_r(u)]
            if kind == "right":
                passes = _right_orbits_pass(s, a, b, targets)
            else:
                passes = [u for u in cat.hom(a, b) if u not in zero] == targets
            assert passes == e["ok"]
            assert ((kind, a, b) in fell) == (not passes)
            if not passes:
                fell_back.add(kind)
    assert gates == {True, False}
    assert fell_back == {"right", "left"}


@pytest.mark.parametrize("name", ["delta_bt_6", "cube_3", "fi_sharp_4",
                                  "gamma_3", "vi_sharp_2"])
def test_stock_coends_take_no_union_step(name, monkeypatch):
    """Every entry of these stock structures passes in closed form, so the
    union-find reports none and takes no union step on either side."""
    s = COEND_DIGESTS[name][0]()
    walked = _spy_union_find(monkeypatch)
    assert verify_coend_bijections(s).ok
    assert walked == []


@pytest.mark.parametrize("build", [build_delta_bt, build_fi_sharp])
def test_swapped_targets_take_union_steps_on_both_sides(build, monkeypatch):
    """With one target swapped for a non-target, the closed forms refuse
    that hom set's entry on each side, and the union-find takes union steps
    there on both."""
    s = _swapped_targets(build(3))
    walked = _spy_union_find(monkeypatch)
    assert not verify_coend_bijections(s).ok
    for kind in ("right", "left"):
        assert sum(steps for k, _, _, steps in walked if k == kind) > 0


def test_non_conjugate_pairs_fall_back_to_the_union_find(monkeypatch):
    """On _non_conjugate_pairs, which the gate admits, the right entry
    (0, 2) reaches its one target, and no other value, from two pairs that
    no isomorphism relates.  So the right closed form's orbit count refuses
    it, and the union-find reports two classes sharing the value.  Every
    other entry passes in closed form."""
    s = _non_conjugate_pairs()
    cat = s.cat
    assert all(_coend_preconditions(s))
    (v,) = cat.hom(0, 2)
    pairs = [(m, r) for m in sorted(s.m_class) for r in sorted(s.derived.r_class)
             if cat.composable(m, r) and cat.comp[m][r] == v]
    assert [u for u in cat.hom(0, 2) if s.s_in_r(u)] == [v] and len(pairs) == 2
    walked = _spy_union_find(monkeypatch)
    report = verify_coend_bijections(s)
    assert [w[:3] for w in walked] == [("right", 0, 2)]
    assert [e for e in report.entries if not e.ok] == [CoendPairReport(
        "right", 0, 2, 2, 1, [{"problem": "two classes share a value", "value": v}])]


def test_classes_point_every_position_at_its_root():
    """_classes finds every member's root, here at the end of a chain
    a -> c -> d -> f -> g longer than path halving shortens to one step,
    and lists the classes in order of first member, members in pairs order,
    whichever way the relations point: the other class, b ~ e, is related
    from its later member."""
    from dkequiv.structure import _classes

    relations = [("a", "c"), ("c", "d"), ("d", "f"), ("f", "g"), ("e", "b")]
    assert _classes(list("abcdefg"), relations) == [list("acdfg"), list("be")]
    assert _classes(list("abcdefg"), [(y, x) for x, y in relations[::-1]]) == [
        list("acdfg"), list("be")]


# sha256 of json.dumps(verify_coend_bijections(s).to_jsonable(), sort_keys=True)
# at the benchmark's sizes, where the reference is too slow to compare with,
# also with one target swapped so that the union-find reports failing
# entries, and on Gamma_3 and VI#_2: how the classes are computed must leave
# these bytes unchanged.
COEND_DIGESTS = {
    "delta_bt_6": (
        lambda: build_delta_bt(6),
        "2f9af89fd047181fce041ac21e970dd8f49ed929ce022dd4c5bb0cdfc635eb66",
    ),
    "cube_3": (
        lambda: build_cube(3),
        "66e0d6836514cad777cd9ea995e22975994ad397ce5422cfbb5146a86c823429",
    ),
    "fi_sharp_4": (
        lambda: build_fi_sharp(4),
        "83072dff8d5c272d2cb856c4c8a15ae09dc23793830ada7450adb58b4f315b0a",
    ),
    "gamma_3": (
        lambda: build_par(build_finset_input(3)),
        "778c28fd4abc5e074f7dd3ab8de1508283f7c8702b25d564d009b706bcdf3a73",
    ),
    "vi_sharp_2": (
        lambda: build_par(build_flinj_input(2, 2)),
        "a57c979adcbea1b0801f270afdcf2d9d7c579e454e909f2e3be6bcab40068fd6",
    ),
    "delta_bt_6_swapped": (
        lambda: _swapped_targets(build_delta_bt(6)),
        "f79b855c5d7b11d9ddad84b89ee22feaa849671f28f6bf9c1f99333c2ed4a40f",
    ),
    "cube_3_swapped": (
        lambda: _swapped_targets(build_cube(3)),
        "68768f862272618b230ccd0985d547d7eb5d44dfa2eaca9db7537901d63256c0",
    ),
    "fi_sharp_4_swapped": (
        lambda: _swapped_targets(build_fi_sharp(4)),
        "3d568413e822a0ca40806f965fcd14fedb6fcd9190a39a706bc34841ea7b6bfc",
    ),
}


def _coend_digest(s):
    import hashlib

    text = json.dumps(verify_coend_bijections(s).to_jsonable(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(COEND_DIGESTS))
def test_coend_reports_are_byte_identical(name):
    build, digest = COEND_DIGESTS[name]
    assert _coend_digest(build()) == digest


@pytest.mark.parametrize("name", ["delta_bt_6", "cube_3"])
def test_union_find_alone_gives_the_pinned_reports(name, monkeypatch):
    """With the closed forms' gate forced off, the union-find reports every
    entry, and the bytes are those pinned for the gated check.  fi_sharp 4
    is left out: the union-find takes about 6 s on it."""
    from dkequiv import structure

    build, digest = COEND_DIGESTS[name]
    monkeypatch.setattr(structure, "_closed_forms_apply", lambda s: False)
    assert _coend_digest(build()) == digest


def test_closure_witnesses_match_the_walk(coend_cases):
    """_closure_witnesses yields the walk's witnesses over every composable
    pair of K, on every case of coend_cases; K is closed on some and not
    on others."""
    from dkequiv.structure import _closure_witnesses

    seen = set()
    for s in coend_cases:
        cat, k_class = s.cat, s.derived.k_class
        want = [{"k": k, "k2": k2, "labels": [cat.mor_labels[k], cat.mor_labels[k2]]}
                for k in sorted(k_class) for k2 in sorted(k_class)
                if cat.composable(k2, k) and cat.comp[k2][k] not in k_class]
        assert list(_closure_witnesses(s, s.derived)) == want
        seen.add(bool(want))
    assert seen == {True, False}


def _walk_validate(s):
    """Reference for validate() once the retractions are known to split
    their embeddings: the messages and witnesses of m_class closure and of
    star's functoriality, over every pair of embeddings, composable ones
    kept."""
    cat = s.cat
    ms = sorted(s.m_class)
    pairs = [(m, f) for m in ms for f in ms if cat.composable(m, f)]
    closure = [("m_class not closed under composition", m, f) for m, f in pairs
               if cat.comp[m][f] not in s.m_class]
    if closure:
        return closure
    return [("star not contravariantly functorial", m, f) for m, f in pairs
            if s.star[cat.comp[m][f]] != cat.comp[s.star[f]][s.star[m]]]


def test_validate_matches_the_pairwise_walk(fi3, cube2, single_entry_mutants):
    """validate() names the pairs of embeddings that the walk over every
    pair finds, in its order, on seeded cuts of fi_sharp 3 and cube 2 that
    are not closed under composition and on seeded retraction mutants."""
    rng = random.Random(3)
    cases = []
    for base in (fi3, cube2):
        cat = base.cat
        extra = sorted(base.m_class - cat.isos())
        for _ in range(20):
            cut = cat.isos() | set(rng.sample(extra, rng.randrange(len(extra) + 1)))
            cases.append(MRStructure(cat, cut, {m: base.star[m] for m in cut}))
        cases += single_entry_mutants(base, 20, rng, lambda x: x.cat is cat)
    kinds = set()
    for s in cases:
        got = [(e["message"], e["g"], e["f"]) for e in s.validate().structural
               if "g" in e]
        assert got == _walk_validate(s)
        kinds.update(message for message, _, _ in got)
    assert kinds == {"m_class not closed under composition",
                     "star not contravariantly functorial"}


# sha256 of json.dumps(..., sort_keys=True) of s.cat.check().to_jsonable()
# and of check_assumptions(s).to_jsonable(), recorded with the entrywise
# walks of check_tables, validate and the closure axiom, on the benchmark's
# structures and on the ten negative controls of acceptance criterion 9
# drawn with seed 0, as the axioms benchmark draws them
AXIOM_DIGESTS = {
    "delta_bt_6": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                   "badd0aebf6868b687439afd23637684cc3e5f505e09b97a599ac7c52726b22c9"),
    "cube_3": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
               "d9249fa75dc06f0c58d933c0e5847dd519c8d3b693d90719929c617be03510b1"),
    "fi_sharp_4": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                   "9c2907743db1dafacdb244d68f604836071ae5e45c552c4c431e69371579f484"),
    "mutant0": ("4e5c12b9ff625171f00792a39fa0f2c0113002e42e070ae314ee6c1b815aa4bb",
                "b455aba4b0fe184f6f65d45dfed582dec94c8e7940c70479f3b5c3f8bbe64567"),
    "mutant1": ("6306906204315677f2fafe07370e3c95126660a59d49af24c0ce4803daca8029",
                "b85bb4a60cccbf927c0153e2ab2c60f384a4be77a28c484d64b3a42a63180304"),
    "mutant2": ("3eb5d4c6ae34fedaf2e708bfc524e45c0c0803a5e6bdcf606a3e9ff5dd3714ec",
                "b455aba4b0fe184f6f65d45dfed582dec94c8e7940c70479f3b5c3f8bbe64567"),
    "mutant3": ("a79c68ba63c61a86af6f5f221b20ee2f5a884479cd451d2c917627827de460ef",
                "b85bb4a60cccbf927c0153e2ab2c60f384a4be77a28c484d64b3a42a63180304"),
    "mutant4": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                "0206d9b1fddef7e05c3a3fe9cf55666c2b56e1d3c15a0181a3d500e3cd672998"),
    "mutant5": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                "3687d5ce55a6ff4ef85e0022486c651d75e8df069ac0863ddc851b3f4531ae15"),
    "mutant6": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                "8f05d690063a56cfb11505e3f661bbb4e62c4615dd1c7a142bc9b7dc1f32bc7e"),
    "mutant7": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                "48bf5aab2fc82d4484de48c277057aa0d04e44272c7014a629b08541dff633ec"),
    "mutant8": ("db08e961613f30afba7660469e9bb65f97b38fcca37c630be14c63cc1076eda3",
                "7fa071e4c60f866078297ec21570e1b8b032daa8400efc7674ad4a552a271209"),
    "mutant9": ("f643971ce2722e4fcf14a54079260b5e658825056139a16baf3f5403c64977fe",
                "b85bb4a60cccbf927c0153e2ab2c60f384a4be77a28c484d64b3a42a63180304"),
}


@pytest.fixture(scope="module")
def axiom_stage_cases(delta4, fi3, cube3, fi4):
    """The structures of AXIOM_DIGESTS, each read back from its JSON as
    the axioms benchmark reads it."""
    cases = {"delta_bt_6": build_delta_bt(6), "cube_3": cube3, "fi_sharp_4": fi4}
    mutants = negative_controls([delta4, fi3], random.Random(0))
    cases.update((f"mutant{j}", s) for j, (_, s) in enumerate(mutants))
    return {name: MRStructure.from_jsonable(json.loads(json.dumps(s.to_jsonable())))
            for name, s in cases.items()}


@pytest.mark.parametrize("name", list(AXIOM_DIGESTS))
def test_axiom_stage_reports_are_byte_identical(name, axiom_stage_cases):
    import hashlib

    s = axiom_stage_cases[name]
    got = tuple(
        hashlib.sha256(json.dumps(x.to_jsonable(), sort_keys=True).encode()).hexdigest()
        for x in (s.cat.check(), check_assumptions(s)))
    assert got == AXIOM_DIGESTS[name]


def test_restricted_structure_has_iso_irreducibles(fi3, delta4, cube2):
    # restricting to embedding-after-retraction composites collapses the
    # irreducible class to the isomorphisms
    for s in (fi3, delta4, cube2):
        red, mapping = restricted_to_k(s)
        assert red.validate().ok
        assert red.cat.check().ok
        assert red.r_class == red.cat.isos()
        rep = check_assumptions(red)
        assert rep.passed


def test_proposition_sandwich_exhaustive(delta4, fi3):
    # composite of retracted forms equal to embedding-after-irreducible
    # forces both factors irreducible
    for s in (delta4, fi3):
        cat = s.cat
        der = s.derived
        mr = set()
        for m in sorted(s.m_class):
            for r in sorted(der.r_class):
                if cat.cod[r] == cat.dom[m]:
                    mr.add(cat.comp[m][r])
        for u in sorted(der.s_class):
            for t in sorted(der.s_class):
                if cat.cod[u] != cat.dom[t]:
                    continue
                if cat.comp[t][u] in mr:
                    assert u in der.r_class and t in der.r_class


def test_proposition_two_step_exhaustive(delta4, fi3):
    # if the irreducible part of v o u is irreducible then so is u's; when u
    # is also of retracted form, u itself and v's part are irreducible
    for s in (delta4, fi3):
        cat = s.cat
        der = s.derived
        for u in cat.morphisms():
            for v in cat.outof[cat.cod[u]]:
                vu = cat.comp[v][u]
                if s.s_in_r(vu):
                    assert s.s_in_r(u)
                    if u in der.s_class:
                        assert u in der.r_class
                        assert s.s_in_r(v)


def seeded_mutations(s, n, seed):
    """Deterministic stream of genuinely law-breaking mutations."""
    cat = s.cat
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        kind = rng.choice(["comp", "star"])
        if kind == "comp":
            f = rng.randrange(cat.n_morphisms)
            i = cat.identity(cat.cod[f])
            alt = [
                g for g in cat.hom(cat.dom[f], cat.cod[f]) if g != f
            ]
            if not alt:
                continue
            comp = [list(row) for row in cat.comp]
            comp[i][f] = rng.choice(alt)  # break id o f = f
            out.append(("comp", FinCatMutation(cat, comp, s)))
        else:
            ms = [m for m in sorted(s.m_class) if not cat.is_identity(m)]
            if not ms:
                continue
            m = rng.choice(ms)
            bad = [
                g
                for g in cat.hom(cat.cod[m], cat.dom[m])
                if cat.comp[g][m] != cat.identity(cat.dom[m])
            ]
            if not bad:
                continue
            star = dict(s.star)
            star[m] = rng.choice(bad)
            out.append(("star", MRStructure(cat, s.m_class, star)))
    return out


class FinCatMutation:
    def __init__(self, cat, comp, s):
        self.cat = FinCat(
            cat.n_objects, cat.dom, cat.cod, cat.identities, comp,
            cat.obj_labels, cat.mor_labels,
        )
        self.s = s


def test_structure_json_round_trip(delta4, fi2):
    for s in (delta4, fi2):
        text = json.dumps(s.to_jsonable(), sort_keys=True, indent=2)
        again = MRStructure.from_jsonable(json.loads(text))
        assert json.dumps(again.to_jsonable(), sort_keys=True, indent=2) == text
        assert again.m_class == s.m_class and again.star == s.star
        assert again.r_class == s.r_class
    data = delta4.to_jsonable()
    assert all(
        isinstance(k, str) and isinstance(v, str)
        for k, v in data["star"].items()
    )


def test_mutation_detection(delta4, fi2):
    detected = 0
    total = 0
    for s in (delta4, fi2):
        for kind, mut in seeded_mutations(s, 5, seed=42):
            total += 1
            if kind == "comp":
                rep = mut.cat.check()
                assert not rep.ok and (rep.law or rep.structural)
                detected += 1
            else:
                rep = mut.validate()
                assert not rep.ok and rep.structural
                detected += 1
    assert detected == total == 10


# -- axiom-failure witnesses ----------------------------------------------------
#
# fi_sharp 2 with its embeddings cut down to the isomorphisms plus a few total
# injections, star restricted from the builder's.  The reports below were
# recorded before factorization checking moved into MRStructure.factorize and
# pin every witness byte for byte.

AXIOM_DESCRIPTIONS = {
    "factorization": "every morphism factors as embedding o irreducible o "
    "retraction, uniquely up to isomorphism",
    "composition": "a composite of two irreducible morphisms is irreducible "
    "after a retraction",
    "cancellation": "a retraction of a non-invertible embedding never leaves "
    "an irreducible morphism irreducible",
    "closure": "embedding-after-retraction composites form a subcategory",
    "finiteness": "the subobject classes of each object form a finite poset "
    "with the whole object as unique maximum",
    "sandwich": "when a composite of two retracted-form morphisms equals an "
    "embedding after an irreducible, both factors are irreducible",
}


def _cut_fi2(fi2, extra):
    m_class = fi2.cat.isos() | extra
    return MRStructure(fi2.cat, m_class, {m: fi2.star[m] for m in m_class})


def _expected_report(outcomes, class_sizes):
    return {
        "structural": {"law": [], "ok": True, "structural": []},
        "assumptions": [
            {"key": key, "description": AXIOM_DESCRIPTIONS[key],
             "passed": passed, "witness": witness}
            for key, (passed, witness) in outcomes.items()
        ],
        "class_sizes": class_sizes,
        "passed": False,
    }


def test_axiom_witnesses_composition_cancellation_sandwich(fi2):
    report = check_assumptions(_cut_fi2(fi2, {1}))
    assert report.to_jsonable() == _expected_report(
        {
            "factorization": (True, None),
            "composition": (False, {"labels": ["()", "0,1"], "r": 2, "r2": 11}),
            "cancellation": (False, {"labels": ["()", "0,1"], "m": 1, "r": 11}),
            "closure": (True, None),
            "finiteness": (True, {"sizes": {"0": 1, "1": 2, "2": 1}}),
            "sandwich": (False, {"labels": ["0,1", "0"], "s": 11, "t": 3}),
        },
        {"i_class": 4, "k_class": 7, "m_class": 5, "morphisms": 20,
         "r_class": 15, "s_class": 17},
    )


def test_axiom_witnesses_factorization_closure(fi2):
    report = check_assumptions(_cut_fi2(fi2, {7, 8}))
    assert report.to_jsonable() == _expected_report(
        {
            "factorization": (False, {
                "label": "()", "morphism": 2,
                "reason": "non-conjugate triples",
                "triples": [[7, 1, 0], [8, 1, 0]],
            }),
            "composition": (True, None),
            "cancellation": (True, None),
            "closure": (False, {"k": 7, "k2": 11, "labels": ["1", "0,1"]}),
            "finiteness": (True, {"sizes": {"0": 1, "1": 1, "2": 3}}),
            "sandwich": (True, None),
        },
        {"i_class": 4, "k_class": 12, "m_class": 6, "morphisms": 20,
         "r_class": 7, "s_class": 11},
    )


def test_restricted_to_k_names_the_closure_witness(fi2):
    with pytest.raises(StructureError, match=r"not closed; witness \(11, 7\)$"):
        restricted_to_k(_cut_fi2(fi2, {7, 8}))


def test_non_associative_table_fails_factorization_with_a_witness(fi2):
    # comp[6][12] redirected from 13 to 19: the identity laws and validate()
    # hold, associativity does not, and morphism 19's one conjugacy orbit of
    # triples holds none with canonical embeddings
    cat = fi2.cat
    comp = [list(row) for row in cat.comp]
    assert comp[6][12] == 13
    comp[6][12] = 19
    table = FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities, comp,
                   cat.obj_labels, cat.mor_labels)
    s = MRStructure(table, fi2.m_class, fi2.star)
    assert s.validate().ok and not table.check().ok
    checks = {c.key: c for c in check_assumptions(s).checks}
    assert not checks["factorization"].passed
    assert checks["factorization"].witness == {
        "morphism": 19, "label": "2,1",
        "reason": "no triple with canonical embeddings",
    }
    for stage in (verify_coend_bijections, KernelModule):
        with pytest.raises(StructureError,
                           match="^morphism 19: no triple with canonical embeddings$"):
            stage(s)


# -- factorization over canonical representatives ------------------------------


def _factorize_exhaustively(s, f):
    """MRStructure.factorize as it was first written: every triple, then the
    conjugacy orbit of the first, then the canonical triple with the least
    middle."""
    from dkequiv.structure import (
        AmbiguousFactorizationError,
        Factorization,
        NoFactorizationError,
    )

    cat = s.cat
    decomps = {}
    for nn in sorted(s.m_class):
        for r in sorted(s.r_class):
            if cat.cod[r] == cat.dom[nn]:
                decomps.setdefault(cat.comp[nn][r], []).append((nn, r))
    cands = []
    for m in sorted(s.m_class):
        if cat.cod[m] != cat.dom[f]:
            continue
        g = cat.comp[f][m]
        for (nn, r) in decomps.get(g, ()):
            if cat.comp[g][s.star[m]] == f:
                cands.append(Factorization(nn, r, m))
    if not cands:
        raise NoFactorizationError(f)
    first = cands[0]
    orbit = {Factorization(cat.comp[first.n][a],
                           cat.comp[cat.comp[cat.iso_inverse(a)][first.r]][b],
                           cat.comp[first.m][b])
             for a in cat.isos_into(cat.dom[first.n])
             for b in cat.isos_into(cat.dom[first.m])}
    extra = set(cands) - orbit
    if extra:
        other = min(extra, key=lambda t: (t.n, t.r, t.m))
        raise AmbiguousFactorizationError(f, first, other)

    def canonical(m):
        return m == min(cat.comp[m][i] for i in cat.isos_into(cat.dom[m]))

    canon = [t for t in cands if canonical(t.n) and canonical(t.m)]
    if not canon:
        raise NoFactorizationError(f, "no triple with canonical embeddings")
    return min(canon, key=lambda t: t.r)


def _factorization_outcome(factorize, f):
    """The triple, or the exception's type, message and triples."""
    try:
        return factorize(f)
    except Exception as e:  # both sides must fail alike
        return (type(e).__name__, str(e), getattr(e, "triples", None))


def test_factorize_matches_the_exhaustive_search(fi2, single_entry_mutants):
    """factorize gives the exhaustive search's triple or error on every
    morphism of the stock structures, Gamma_2, Gamma_3, VI#_2, their seeded
    comp and retraction mutants that pass validate, fi_sharp 2 with
    associativity broken and fi_sharp 2 with its embeddings cut.  On
    iso-rich structures that pass validate and check it runs the exhaustive
    search only when some morphism fails to factor."""
    from dkequiv.builders import (
        BUILDERS,
        build_finset_input,
        build_flinj_input,
        build_par,
    )

    rng = random.Random(14)
    bases = [build_pt()]
    bases += [BUILDERS[name][0](n) for name in ("delta_bt", "fi_sharp", "cube")
              for n in range(BUILDERS[name][1], 5)]
    bases += [build_par(build_finset_input(n)) for n in (2, 3)]
    bases.append(build_par(build_flinj_input(2)))
    cases = list(bases)
    for base in bases:
        if base.cat.n_morphisms <= 150:
            cases += single_entry_mutants(base, 8, rng, lambda x: x.validate().ok)
    comp = [list(row) for row in fi2.cat.comp]
    comp[6][12] = 19
    table = FinCat(fi2.cat.n_objects, fi2.cat.dom, fi2.cat.cod,
                   fi2.cat.identities, comp, fi2.cat.obj_labels, fi2.cat.mor_labels)
    cases.append(MRStructure(table, fi2.m_class, fi2.star))
    # embeddings cut to the isomorphisms plus some injections: the laws hold
    # and some morphisms have no triple or non-conjugate ones
    cases += [_cut_fi2(fi2, extra) for extra in ({1}, {7, 8})]
    paths, errors = set(), set()
    for s in cases:
        exhaustive = []
        search = s.factor_candidates

        def counted(f, canonical=False, search=search, exhaustive=exhaustive):
            if not canonical:
                exhaustive.append(f)
            return search(f, canonical)

        s.factor_candidates = counted
        for f in s.cat.morphisms():
            got = _factorization_outcome(s.factorize, f)
            assert got == _factorization_outcome(
                lambda x: _factorize_exhaustively(s, x), f), f
            if type(got) is tuple:
                errors.add(got[0])
        paths.add((s._by_representatives, bool(exhaustive)))
        if s._by_representatives and all(
                type(_factorization_outcome(s.factorize, f)) is not tuple
                for f in s.cat.morphisms()):
            assert not exhaustive
    assert {(True, False), (True, True), (False, True)} <= paths
    assert errors == {"NoFactorizationError", "AmbiguousFactorizationError"}


def test_factorize_on_an_iso_free_table_does_not_check_the_laws():
    s = build_delta_bt(6)
    for f in s.cat.morphisms():
        s.factorize(f)
    assert not s._by_representatives
    assert s.cat._report is None


def test_memoized_reports_are_not_shared(fi2):
    """validate(), check() and check_tables() are computed once per table or
    structure, and validate and check add to the report check_tables gives
    them: after each has run, each still reports what it reports on a fresh
    copy of the table, on a table that is associative and on one that is
    not, with a retraction that does not split its embedding."""
    base = fi2.cat
    m = next(x for x in sorted(fi2.m_class) if not base.is_identity(x))
    star = {**fi2.star, m: base.identity(base.cod[m])}

    def table(comp):
        return FinCat(base.n_objects, base.dom, base.cod, base.identities, comp,
                      base.obj_labels, base.mor_labels)

    broken = [list(row) for row in base.comp]
    broken[6][12] = 19
    for comp in (base.comp, broken):
        s = MRStructure(table(comp), fi2.m_class, star)
        calls = (lambda: s.validate(), lambda: s.cat.check(),
                 lambda: s.cat.check_tables())
        got = []
        for call in calls + calls:
            rep = call()
            got.append(json.loads(json.dumps(rep.to_jsonable())))
            if call is not calls[1]:  # check() gives every caller one report
                rep.add_structural("added by the caller")
        want = [MRStructure(table(comp), fi2.m_class, star).validate(),
                table(comp).check(), table(comp).check_tables()]
        assert got == [w.to_jsonable() for w in want + want]
        assert got[0]["structural"] and got[0]["structural"] != got[2]["structural"]
    assert got[1]["law"]
