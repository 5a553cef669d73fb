import hashlib
import json
import random

import pytest

from dkequiv.builders import partial_injections
from dkequiv import fincat
from dkequiv.fincat import FinCat, closure_failures, table_category

from conftest import closed_cuts, negative_controls


def opposite(cat):
    """The opposite category: dom and cod swapped, composites transposed."""
    n = cat.n_morphisms
    comp_op = tuple(tuple(cat.comp[f][g] for f in range(n)) for g in range(n))
    return FinCat(cat.n_objects, cat.cod, cat.dom, cat.identities, comp_op,
                  cat.obj_labels, cat.mor_labels)


def terminal_cat():
    return FinCat(1, [0], [0], [0], [[0]], ["*"], ["id"])


def arrow_cat():
    # two objects, one arrow 0 -> 1
    return FinCat(
        2,
        [0, 1, 0],
        [0, 1, 1],
        [0, 1],
        [[0, None, None], [None, 1, 2], [None, None, None]],
        ["a", "b"],
        ["id_a", "id_b", "f"],
    )


def swap_cat():
    # two arrows f, g: a -> b swapped by an involution t of b; a receives
    # only its identity, and the generators are t and f
    return FinCat(
        2,
        [0, 1, 0, 0, 1],
        [0, 1, 1, 1, 1],
        [0, 1],
        [[0, None, None, None, None], [None, 1, 2, 3, 4], [2, None, None, None, None],
         [3, None, None, None, None], [None, 4, 3, 2, 1]],
        ["a", "b"],
        ["id_a", "id_b", "f", "g", "t"],
    )


def test_terminal_category():
    c = terminal_cat()
    assert c.check().ok
    assert c.isos() == {0}
    assert c.hom(0, 0) == (0,)


def test_arrow_category():
    c = arrow_cat()
    # comp[f][id_a] missing above: structural error expected
    rep = c.check()
    assert not rep.ok and rep.structural


def test_arrow_category_fixed():
    c = FinCat(
        2,
        [0, 1, 0],
        [0, 1, 1],
        [0, 1],
        [[0, None, None], [None, 1, 2], [2, None, None]],
        ["a", "b"],
        ["id_a", "id_b", "f"],
    )
    assert c.check().ok
    assert c.isos() == {0, 1}
    op = opposite(c)
    assert op.check().ok
    assert op.dom[2] == 1 and op.cod[2] == 0
    opop = opposite(op)
    assert opop.comp == c.comp and opop.dom == c.dom


def test_identity_law_violation_named():
    # comp[f][id] deliberately wrong: the report names the offending instance
    c = FinCat(
        1,
        [0, 0],
        [0, 0],
        [0],
        [[0, 1], [0, 1]],
        ["*"],
        ["id", "f"],
    )
    rep = c.check()
    assert not rep.ok
    assert any(v.get("f") == 1 and "id" in v["message"] for v in rep.law)


def hom_count_delta(m, n):
    # monotone endpoint-preserving maps counted by stars and bars
    from math import comb

    if m == 1 or n == 1:
        return 1 if (m == 1) == (n == 1) else (1 if n == 1 else 0)
    return comb(m - 2 + n - 1, m - 2)


def hom_count_delta_normal_form(m, n):
    # count via surjection-then-injection normal forms
    from math import comb

    if m == 1 or n == 1:
        return hom_count_delta(m, n)
    return sum(
        comb(m - 1, j - 1) * comb(n - 2, j - 2) for j in range(2, min(m, n) + 1)
    )


def test_table_category_first_ids_identity_keys_and_composable_pairs():
    # keys carry their endpoints, so compose can tell a pair that is not
    # composable; the identities come after the arrow and are found by key
    calls = []

    def compose(g, f):
        calls.append((g, f))
        if f[1] != g[0]:
            raise AssertionError(f"{g} after {f} is not composable")
        return f if g[2] == "id" else g

    cat, index = table_category(
        ["x", "y"],
        [(0, 1, (0, 1, "a"), "a"), (0, 0, (0, 0, "id"), "id_x"),
         (1, 1, (1, 1, "id"), "id_y"), (0, 1, (0, 1, "a"), "a again")],
        compose,
        lambda o: (o, o, "id"),
    )
    assert cat.mor_labels == ("a", "id_x", "id_y")
    assert index == {(0, 1, (0, 1, "a")): 0, (0, 0, (0, 0, "id")): 1,
                     (1, 1, (1, 1, "id")): 2}
    assert cat.identities == (1, 2)
    # of the 9 pairs: a o id_x, id_x o id_x, id_y o a and id_y o id_y
    assert len(calls) == 4
    assert cat.check().ok


def test_delta_hom_counts_two_formulas(delta4):
    cat = delta4.cat
    for d in range(4):
        for c in range(4):
            got = len(cat.hom(d, c))
            assert got == hom_count_delta(d + 1, c + 1)
            assert got == hom_count_delta_normal_form(d + 1, c + 1)
    assert len(cat.hom(1, 1)) == 1  # only the identity on the 2-chain


def test_delta_builder_composites_match_hand_composition(delta4):
    # recompute every composite directly from the map tuples in the labels
    cat = delta4.cat

    def tup(f):
        lab = cat.mor_labels[f]
        return tuple(int(x) for x in lab.split(",")) if lab != "()" else ()

    for g in cat.morphisms():
        for f in cat.morphisms():
            if cat.cod[f] != cat.dom[g]:
                assert cat.comp[g][f] is None
                continue
            want = tuple(tup(g)[x] for x in tup(f))
            assert tup(cat.comp[g][f]) == want


def test_fi_iso_characterization(fi3):
    cat = fi3.cat
    # independent characterization: total and bijective partial maps
    expected = set()
    for f in cat.morphisms():
        lab = cat.mor_labels[f]
        t = tuple(int(x) for x in lab.split(",")) if lab != "()" else ()
        d, c = cat.dom[f], cat.cod[f]
        if d == c and all(x != 0 for x in t) and len(set(t)) == d:
            expected.add(f)
    assert cat.isos() == expected


def test_fi_hom_count(fi3):
    assert len(fi3.cat.hom(2, 3)) == 13  # 1 + 6 + 6 partial injections
    assert len(partial_injections(2, 3)) == 13


def test_isos_closed_under_composition_and_inverse(fi3):
    cat = fi3.cat
    isos = cat.isos()
    for f in isos:
        assert cat.iso_inverse(f) in isos
        for g in isos:
            if cat.composable(g, f):
                assert cat.comp[g][f] in isos


def _with_inverse(cat, f, g, two_sided):
    """cat with g o f set to the identity, and f o g too when two_sided."""
    comp = [list(row) for row in cat.comp]
    comp[g][f] = cat.identity(cat.dom[f])
    if two_sided:
        comp[f][g] = cat.identity(cat.cod[f])
    return FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities, comp,
                  cat.obj_labels, cat.mor_labels)


def _fi3_with_a_copy_of_3():
    """fi_sharp 3 with a second copy 3' of the object 3: not skeletal."""
    from dkequiv.builders import compose_partial, tuple_category

    sizes = [0, 1, 2, 3, 3]
    cat, _ = tuple_category(["0", "1", "2", "3", "3'"],
                            lambda d, c: partial_injections(sizes[d], sizes[c]),
                            compose_partial,
                            lambda a: tuple(range(1, sizes[a] + 1)))
    return cat


def _double_loop_inverses(cat):
    """The inverse map as the double loop over each reverse hom set finds
    it: for f: a -> b, the first g in hom(b, a), in id order, with
    g o f = id_a and f o g = id_b."""
    ids, inverse = cat.identities, {}
    for f in cat.morphisms():
        a, b = cat.dom[f], cat.cod[f]
        for g in cat.hom(b, a):
            if cat.comp[g][f] == ids[a] and cat.comp[f][g] == ids[b]:
                inverse[f] = g
                break
    return inverse


def test_isos_match_an_inverse_search(delta4, fi3, cube2, pt, single_entry_mutants):
    # the stock tables, seeded single-entry comp mutants, mutants with a new
    # one- or two-sided inverse, and isomorphisms given a second inverse;
    # then fi_sharp 3 with a copy 3' of 3, not skeletal, and mutants of it
    # where a morphism g ahead of the inverse of an isomorphism f between 3
    # and 3', in id order, is made a one-sided inverse, f o g = id (to be
    # skipped), or a two-sided one (to be taken)
    rng = random.Random(1511)
    cats = []  # (stock table, table)
    for s in (delta4, fi3, cube2, pt):
        cat = s.cat
        cats.append((cat, cat))
        cats += [(cat, m.cat) for m in single_entry_mutants(
            s, 8, rng, lambda m, cat=cat: m.cat is not cat)]
        pairs = [(f, g) for f in cat.morphisms() for g in cat.hom(cat.cod[f], cat.dom[f])
                 if not cat.is_identity(f) and not cat.is_identity(g)]
        cats += [(cat, _with_inverse(cat, *rng.choice(pairs), k % 2)) for k in range(6)]
        seconds = [(f, g) for f, g in pairs if f in cat.isos() and g != cat.iso_inverse(f)]
        cats += [(cat, _with_inverse(cat, f, g, True))
                 for f, g in rng.sample(seconds, min(3, len(seconds)))]
    copy = _fi3_with_a_copy_of_3()
    ahead = [(f, g) for f in sorted(copy.isos()) if copy.dom[f] != copy.cod[f]
             for g in copy.hom(copy.cod[f], copy.dom[f]) if g < copy.iso_inverse(f)]
    picks = ahead[::len(ahead) // 6]
    mutants = [_with_inverse(copy, g, f, k % 2) for k, (f, g) in enumerate(picks)]
    cats += [(copy, copy)] + [(copy, m) for m in mutants]
    changed = 0
    for stock, cat in cats:
        ids = cat.identities
        inverses = {f: [g for g in cat.morphisms()
                        if cat.comp[g][f] == ids[cat.dom[f]]
                        and cat.comp[f][g] == ids[cat.cod[f]]]
                    for f in cat.morphisms()}
        isos = {f for f, gs in inverses.items() if gs}
        assert cat.isos() == isos
        assert all(cat.iso_inverse(f) == inverses[f][0] for f in isos)
        assert {f: cat.iso_inverse(f) for f in isos} == _double_loop_inverses(cat)
        for a in cat.objects():
            assert list(cat.isos_into(a)) == sorted(f for f in isos if cat.cod[f] == a)
        changed += isos != stock.isos()
    assert changed >= 10
    assert [m.iso_inverse(f) == g for m, (f, g) in zip(mutants, picks)] == [
        k % 2 == 1 for k in range(len(picks))]


def test_opposite_of_delta_passes_check(delta4):
    op = opposite(delta4.cat)
    assert op.check().ok
    assert opposite(op).comp == delta4.cat.comp


def test_json_round_trip_bit_exact(delta3, fi2):
    def text(cat):
        return json.dumps(cat.to_jsonable(), sort_keys=True, indent=2)

    for s in (delta3, fi2):
        again = FinCat.from_jsonable(json.loads(text(s.cat)))
        assert text(again) == text(s.cat)
        assert again.comp == s.cat.comp
        assert again.mor_labels == s.cat.mor_labels
    t = terminal_cat()
    assert text(FinCat.from_jsonable(json.loads(text(t)))) == text(t)
    # -1 encodes undefined entries
    data = json.loads(text(t))
    assert data["comp"] == [[0]]


def _closure(cat, gens):
    """Every morphism the identities and gens reach under composition."""
    reached = set(cat.identities) | set(gens)
    while True:
        new = {cat.comp[g][f] for g in reached for f in reached
               if cat.composable(g, f)} - reached
        if not new:
            return reached
        reached |= new


def _reference_walk(cat, members):
    """generating_set's two walks as first written, each morphism, when
    reached, composed on both sides with every morphism reached by then:
    the first over the members, isomorphisms first by descending element
    order, then the rest, each in id order; the second over the first's
    generators, costliest first by Light cells, ties to isomorphisms, to
    descending element order, then to id."""
    comp, into, outof = cat.comp, cat.into, cat.outof
    isos = cat.isos()

    def order(g):
        # the number of powers g, g o g, ... up to the identity; 0 when g is
        # no endomorphism or its powers repeat first
        if cat.dom[g] != cat.cod[g]:
            return 0
        powers = [g]
        while powers[-1] != cat.identities[cat.dom[g]]:
            nxt = comp[powers[-1]][g]
            if nxt in powers:
                return 0
            powers.append(nxt)
        return len(powers)

    def walk(order):
        reached, gens = set(), []
        for x in [*cat.identities, *order]:
            if x in reached:
                continue
            if not cat.is_identity(x):
                gens.append(x)
            reached.add(x)
            todo = [x]
            while todo:
                y = todo.pop()
                new = [comp[y][z] for z in into[cat.dom[y]] if z in reached]
                new += [comp[z][y] for z in outof[cat.cod[y]] if z in reached]
                for w in new:
                    if w not in reached:
                        reached.add(w)
                        todo.append(w)
        return gens

    first = walk(sorted(members, key=lambda x: (x not in isos, -order(x), x)))
    return walk(sorted(first, key=lambda g: (
        -len(outof[cat.cod[g]]) * len(into[cat.dom[g]]),
        g not in isos, -order(g), g)))


def _separate_walk(cat, order):
    """generating_set's walk written on its own, as it was before the table
    fill shared it: each member of order not yet reached is taken, and it,
    and each morphism it reaches, is extended by the identities and the
    members taken so far on either side."""
    comp, dom, cod = cat.comp, cat.dom, cat.cod
    taken_into = [[i] for i in cat.identities]
    taken_outof = [[i] for i in cat.identities]
    reached, gens = set(cat.identities), []
    for x in order:
        if x in reached:
            continue
        gens.append(x)
        taken_into[cod[x]].append(x)
        taken_outof[dom[x]].append(x)
        reached.add(x)
        todo = [x]
        while todo:
            y = todo.pop()
            row = comp[y]
            new = [row[g] for g in taken_into[dom[y]]]
            new += [comp[g][y] for g in taken_outof[cod[y]]]
            for w in new:
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
    return gens


def _assert_passes_are_the_separate_walk(cat, members=None):
    """On a fresh copy of cat, generating_set(members) walks twice, and each
    pass takes what _separate_walk takes over the same order."""
    fresh = FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities, cat.comp,
                   cat.obj_labels, cat.mor_labels)
    passes = []
    walk = fincat._extension_walk

    def spy(order, *rest):
        order, taken = list(order), []
        passes.append((order, taken))
        for event in walk(order, *rest):
            if event[1] is None:
                taken.append(event[0])
            yield event

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat, "_extension_walk", spy)
        gens = fresh.generating_set(members)
    assert len(passes) == 2
    for order, taken in passes:
        assert taken == _separate_walk(cat, order)
    assert passes[1][1] == gens


def test_generating_set_matches_the_reference_walk(fi4, cube3):
    """On every stock structure up to the benchmark's sizes, Gamma_3 and
    VI#_2, the walks that compose with generators only give the lists of
    the walks that compose with every reached morphism: of all morphisms
    and of K, and each of the two passes takes what the walk written on its
    own takes.  The benchmark's three lists (16, 10 and 15 generators) are
    pinned by sha256."""
    from dkequiv.builders import (
        BUILDERS, build_delta_bt, build_finset_input, build_flinj_input,
        build_par, build_pt,
    )

    delta6 = build_delta_bt(6)
    structures = [build_pt(), build_par(build_finset_input(3)),
                  build_par(build_flinj_input(2)), delta6, fi4, cube3]
    structures += [BUILDERS["delta_bt"][0](n) for n in range(1, 6)]
    structures += [BUILDERS["fi_sharp"][0](n) for n in range(4)]
    structures += [BUILDERS["cube"][0](n) for n in range(3)]
    for s in structures:
        cat = s.cat
        assert cat.generating_set() == _reference_walk(cat, cat.morphisms())
        k_class = s.derived.k_class
        assert cat.generating_set(k_class) == _reference_walk(cat, k_class)
        _assert_passes_are_the_separate_walk(cat)
        _assert_passes_are_the_separate_walk(cat, k_class)
    got = [(len(gens), hashlib.sha256(json.dumps(gens).encode()).hexdigest())
           for gens in (s.cat.generating_set() for s in (delta6, fi4, cube3))]
    assert got == [
        (16, "3754139677021dd6b2317851a2fc23a864e39ade17e32c5243fbf844f33b2083"),
        (10, "0209e6ea7e6ceb33413404460e64493f71bcbdf2465e33aeb4b0268eea2663dc"),
        (15, "88bf63ee0b1f84e21534f0fc3fc7cde3f2ccdf103bff42ca7109f3e2bf9a3ea6"),
    ]


def test_generating_set_on_zero_completion(km_delta4):
    # on the zero completion of the ordinal category the collapse maps, one
    # per level, are composites of no two non-identities, so every
    # generating set holds them; this one reaches every morphism
    d = km_delta4.d
    cat = d.cat
    gens = cat.generating_set()
    labels = {cat.mor_labels[g] for g in gens}
    assert {"0,0", "0,0,1", "0,0,1,2"} <= labels
    assert _closure(cat, gens) == set(cat.morphisms())


def test_generating_set_reaches_every_morphism(fi4, cube3):
    """On each stock structure and on Gamma_3 the generators and the
    identities reach every morphism, and none is an identity; the sizes are
    pinned for the benchmark's three structures (462, 499 and 191
    morphisms)."""
    from dkequiv.builders import (
        build_delta_bt, build_finset_input, build_par, build_pt,
    )

    for s, most in ((build_delta_bt(6), 16), (fi4, 10), (cube3, 15),
                    (build_pt(), None), (build_par(build_finset_input(3)), None)):
        cat = s.cat
        gens = cat.generating_set()
        assert not set(gens) & set(cat.identities)
        assert _closure(cat, gens) == set(cat.morphisms())
        if most is not None:
            assert len(gens) <= most
        # restricted to a subcategory, it reaches the subcategory
        k_gens = cat.generating_set(s.derived.k_class)
        assert set(k_gens) <= s.derived.k_class
        assert _closure(cat, k_gens) == set(s.derived.k_class)


def test_generating_set_reaches_every_member_of_mutants(delta4, fi3, cube2,
                                                        single_entry_mutants):
    """The walk's argument uses neither associativity nor the axioms, so on
    seeded single-entry comp mutants too the generators and the identities
    reach every member under the mutant's composition: all morphisms, and
    the stock structure's K.  The lists need not be the reference walk's,
    since the reached sets are closures only on lawful tables: 4 of these
    36 lists differ from it."""
    rng = random.Random(1613)
    for s in (delta4, fi3, cube2):
        k_class = s.derived.k_class
        for m in single_entry_mutants(s, 6, rng, lambda m, c=s.cat: m.cat is not c):
            cat = m.cat
            gens = cat.generating_set()
            assert not set(gens) & set(cat.identities)
            assert _closure(cat, gens) == set(cat.morphisms())
            k_gens = cat.generating_set(k_class)
            assert set(k_gens) <= k_class <= _closure(cat, k_gens)


def test_generating_set_of_every_morphism_is_the_cached_one(delta4, monkeypatch):
    """generating_set(members) depends only on the set of members: every
    morphism, in any order or as a one-shot iterator, gives
    generating_set(), whichever call comes first.  Each call returns its
    own list, and a proper member set, such as K, gets its own walk.  Each
    set of members is walked once, in two passes, however often it is
    asked for."""
    cat = delta4.cat
    want = cat.generating_set()
    fresh = FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities, cat.comp,
                   cat.obj_labels, cat.mor_labels)
    walks = []
    walk = fincat._extension_walk
    monkeypatch.setattr(fincat, "_extension_walk",
                        lambda *args: walks.append(1) or walk(*args))
    shuffled = list(cat.morphisms())
    random.Random(3).shuffle(shuffled)
    assert fresh.generating_set(shuffled) == want
    assert fresh.generating_set(reversed(cat.morphisms())) == want
    assert fresh.generating_set(iter(shuffled)) == want
    fresh.generating_set().append(-1)
    fresh.generating_set(shuffled).clear()
    assert fresh.generating_set() == want
    assert fresh.generating_set(cat.morphisms()) == want
    k_class = delta4.derived.k_class
    k_gens = fresh.generating_set(reversed(sorted(k_class)))
    assert k_gens == [12, 13, 22, 23, 4, 18] != want
    assert set(k_gens) <= k_class <= _closure(cat, k_gens)
    k_gens.clear()
    assert fresh.generating_set(k_class) == [12, 13, 22, 23, 4, 18]
    assert fresh.generating_set(k_class) is not fresh.generating_set(k_class)
    assert len(walks) == 4


class _Unfilled:
    """A view of a list of rows whose unfilled (None) entries raise when
    indexed."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, x):
        row = self.rows[x]
        if row is None:
            raise AssertionError(f"row {x} read before its event")
        return row


def test_table_fill_reads_no_row_before_its_event(monkeypatch):
    """The walked fill of table_category hands the walk rows that raise
    where unfilled: the walk reads none of them before it has yielded the
    event that fills it, each morphism but the identities has one event,
    every reached w is outer o inner, and the table is the one built
    without the view."""
    from dkequiv.builders import build_cube, build_delta_bt, build_fi_sharp

    builds = [(build_fi_sharp, 3), (build_cube, 2), (build_delta_bt, 4)]
    want = [build(size).cat.comp for build, size in builds]
    events = []
    walk = fincat._extension_walk

    def spy(order, dom, cod, identities, rows):
        for event in walk(order, dom, cod, identities, _Unfilled(rows)):
            events.append(event)
            yield event

    monkeypatch.setattr(fincat, "_extension_walk", spy)
    for (build, size), comp in zip(builds, want):
        events.clear()
        cat = build(size).cat
        assert cat.comp == comp
        assert sorted(w for w, _, _ in events) == sorted(
            set(cat.morphisms()) - set(cat.identities))
        assert all(outer is None or cat.comp[outer][inner] == w
                   for w, outer, inner in events)


def _generated(cat, gens):
    """The morphisms the identities and gens generate, on an associative
    table: the least set holding them that g o y and y o g stay in, for
    every g of gens."""
    reached = set(cat.identities) | set(gens)
    todo = list(reached)
    while todo:
        y = todo.pop()
        for g in gens:
            for w in (cat.comp[g][y], cat.comp[y][g]):
                if w is not None and w not in reached:
                    reached.add(w)
                    todo.append(w)
    return reached


@pytest.mark.parametrize("name, size", [("delta_bt", 6), ("fi_sharp", 4),
                                        ("fi_sharp", 5)])
def test_generating_set_has_no_redundant_member(name, size):
    """On these structures no generator is a composite of the others and
    the identities: dropping any one leaves a set that generates less.  It
    does not hold on every table; on cube 3, 3 of the 15 are redundant."""
    from dkequiv.builders import BUILDERS

    cat = BUILDERS[name][0](size).cat
    gens = cat.generating_set()
    every = set(cat.morphisms())
    assert _generated(cat, gens) == every
    for g in gens:
        assert _generated(cat, [x for x in gens if x != g]) != every


def test_generating_set_on_non_skeletal_and_non_associative_tables(fi3):
    """The walks' orders are total on every table that passes check_tables.
    On fi_sharp 3 with a second copy of the object 3, the isomorphisms
    between the two copies have element order 0, and the walks give the
    reference's list, which reaches every morphism.  On seeded mutants of
    fi_sharp 3 that redirect a composite of two automorphisms, among them
    one whose 3-cycle c has c o c = c, so that no power of c is the
    identity, the orders are defined, the walks end, the generators reach
    every morphism under the mutant's composition, and check reports what
    the walk over every triple does."""
    cat = _fi3_with_a_copy_of_3()
    assert cat.check().ok
    between = [i for i in cat.isos() if {cat.dom[i], cat.cod[i]} == {3, 4}]
    assert len(between) == 12
    assert {cat._element_order(i) for i in between} == {0}
    assert {cat._element_order(i) for i in cat.hom(3, 3)
            if i in cat.isos()} == {1, 2, 3}
    gens = cat.generating_set()
    assert gens == _reference_walk(cat, cat.morphisms())
    assert _closure(cat, gens) == set(cat.morphisms())
    _assert_passes_are_the_separate_walk(cat)

    base = fi3.cat
    autos = [i for i in base.isos() if base.dom[i] == base.cod[i]
             and not base.is_identity(i)]
    cycle = base.mor_labels.index("3,1,2")
    rng = random.Random(26)
    redirects = [(cycle, cycle, cycle)]
    while len(redirects) < 20:
        g, f = rng.choice(autos), rng.choice(autos)
        if base.dom[g] == base.dom[f]:
            a = base.dom[g]
            alt = [x for x in base.hom(a, a) if x != base.comp[g][f]]
            redirects.append((g, f, rng.choice(alt)))
    zero = 0
    for g, f, x in redirects:
        comp = [list(row) for row in base.comp]
        comp[g][f] = x
        cat = FinCat(base.n_objects, base.dom, base.cod, base.identities, comp,
                     base.obj_labels, base.mor_labels)
        a = cat.dom[g]
        assert all(0 <= cat._element_order(i) <= len(cat.hom(a, a))
                   for i in cat.isos())
        zero += cat._element_order(cycle) == 0 and cycle in cat.isos()
        gens = cat.generating_set()
        assert _closure(cat, gens) == set(cat.morphisms())
        _assert_passes_are_the_separate_walk(cat)
        assert cat.check().to_jsonable() == _exhaustive_check(cat)
        assert not cat.check().ok
    assert zero >= 1


def _walk_tables(cat):
    """Reference for check_tables: every entry of every row, one by one."""
    out = []
    n = cat.n_morphisms
    for g in range(n):
        for f in range(n):
            h = cat.comp[g][f]
            if (h is not None) != (cat.cod[f] == cat.dom[g]):
                out.append(("comp defined iff endpoints match violated", g, f))
            elif h is not None and not 0 <= h < n:
                out.append(("dangling composite id", g, f))
            elif h is not None and (cat.dom[h], cat.cod[h]) != (cat.dom[f], cat.cod[g]):
                out.append(("composite has wrong endpoints", g, f))
    return out


def test_check_tables_matches_the_entrywise_walk(delta3, fi2, cube2):
    """The hom-set gathers of check_tables report exactly what walking
    every entry does, on seeded corruptions of one to three entries: None,
    ids out of range on either side, and ids with any endpoints, at
    composable pairs and elsewhere."""
    import random

    rng = random.Random(7)
    for base in (delta3.cat, fi2.cat, cube2.cat):
        n = base.n_morphisms
        assert base.check_tables().ok and _walk_tables(base) == []
        for _ in range(300):
            comp = [list(row) for row in base.comp]
            for _ in range(rng.randrange(1, 4)):
                g, f = rng.randrange(n), rng.randrange(n)
                comp[g][f] = rng.choice([None, -2, n, 10**30, rng.randrange(n)])
            cat = FinCat(base.n_objects, base.dom, base.cod, base.identities, comp)
            got = [(e["message"], e["g"], e["f"]) for e in cat.check_tables().structural]
            assert got == _walk_tables(cat)


def test_loaded_tables_share_one_int_object_per_id(fi4):
    """A table read from JSON holds at most one int object per morphism
    id, while an id out of range is kept for check_tables to report.
    fi_sharp 4 has ids above 256, which, unlike smaller ones, the JSON
    reader gives a new object at each cell."""
    data = json.loads(json.dumps(fi4.cat.to_jsonable()))
    n = len(data["morphisms"])
    cat = FinCat.from_jsonable(data)
    assert len({id(x) for row in cat.comp for x in row if x is not None}) <= n < 500
    assert cat.comp == fi4.cat.comp
    f = fi4.cat.into[fi4.cat.dom[5]][0]
    data["comp"][5][f] = 10**30
    assert FinCat.from_jsonable(data).check_tables().structural == [
        {"message": "dangling composite id", "g": 5, "f": f, "value": 10**30}]


def test_from_jsonable_names_the_malformed_field(delta3):
    data = delta3.cat.to_jsonable()
    for edit, field in (
        (lambda d: d["comp"][1].__setitem__(0, "3"), "comp[1]"),
        (lambda d: d["comp"][2].pop(), "comp"),
        (lambda d: d["identities"].pop(), "identities"),
        (lambda d: d["morphisms"][0].__setitem__("dom", 0.0), "morphism dom"),
        (lambda d: d["morphisms"][0].__setitem__("cod", 9), "morphisms"),
        (lambda d: d.__setitem__("objects", "abc"), "objects"),
    ):
        bad = json.loads(json.dumps(data))
        edit(bad)
        with pytest.raises(ValueError) as exc:
            FinCat.from_jsonable(bad)
        assert str(exc.value).startswith(field + ":")


def test_check_tables_reports_an_identity_with_wrong_endpoints():
    # identities 0, 1 and f = 2: 0 -> 1, with f given as the identity of 0;
    # the composites themselves are right
    comp = [[0, None, None], [None, 1, 2], [2, None, None]]
    cat = FinCat(2, [0, 1, 0], [0, 1, 1], [2, 1], comp)
    assert cat.check_tables().structural == [
        {"message": "identity has wrong endpoints", "object": 0, "morphism": 2}
    ]


def _exhaustive_check(cat):
    """Reference for FinCat.check: the identity laws, then associativity
    over every composable triple, middle factor in id order."""
    rep = cat.check_tables()
    if rep.structural:
        return rep.to_jsonable()
    comp = cat.comp
    for f in cat.morphisms():
        if comp[cat.identities[cat.cod[f]]][f] != f:
            rep.add_law("id o f != f", f=f, label=cat.mor_labels[f])
        if comp[f][cat.identities[cat.dom[f]]] != f:
            rep.add_law("f o id != f", f=f, label=cat.mor_labels[f])
    for g in cat.morphisms():
        for f in cat.into[cat.dom[g]]:
            for h in cat.outof[cat.cod[g]]:
                if comp[h][comp[g][f]] != comp[comp[h][g]][f]:
                    rep.add_law("associativity violated", h=h, g=g, f=f)
    return rep.to_jsonable()


def _single_entry_mutants(cat, count, rng):
    """count copies of cat, each with one composite redirected to another
    morphism with the same endpoints, so that check_tables still passes.
    Half redirect g o f for two non-identities, which leaves the identity
    laws intact; half redirect id o f or f o id."""
    ids = set(cat.identities)
    pairs = [(g, f) for g in cat.morphisms() if g not in ids
             for f in cat.into[cat.dom[g]] if f not in ids]
    out = []
    while len(out) < count:
        kind = rng.choice(["associativity", "identity"])
        if kind == "associativity":
            g, f = rng.choice(pairs)
        else:
            f = rng.randrange(cat.n_morphisms)
            g, f = rng.choice([(cat.identities[cat.cod[f]], f),
                               (f, cat.identities[cat.dom[f]])])
        h = cat.comp[g][f]
        alt = [x for x in cat.hom(cat.dom[h], cat.cod[h]) if x != h]
        if not alt:
            continue
        comp = [list(row) for row in cat.comp]
        comp[g][f] = rng.choice(alt)
        out.append((kind, FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities,
                                 comp, cat.obj_labels, cat.mor_labels)))
    return out


def test_check_matches_the_exhaustive_walk(delta3, fi2, cube2):
    """FinCat.check reports exactly what the walk over every composable
    triple does, on the stock tables, on swap_cat, where the generator f
    has a domain that receives one morphism, and on 480 seeded single-entry
    mutants of them, each of which still passes check_tables."""
    import random

    swap = swap_cat()
    assert [len(swap.into[swap.dom[g]]) for g in swap.generating_set()] == [4, 1]
    rng = random.Random(11)
    failing = {"associativity": 0, "identity": 0}
    for base in (delta3.cat, fi2.cat, cube2.cat, swap):
        assert base.check().to_jsonable() == _exhaustive_check(base)
        assert base.check().ok
        for kind, cat in _single_entry_mutants(base, 120, rng):
            assert cat.check_tables().ok
            want = _exhaustive_check(cat)
            assert cat.check().to_jsonable() == want
            laws = {v["message"] for v in want["law"]}
            if kind == "associativity":
                assert laws <= {"associativity violated"}
            failing[kind] += bool(laws)
    assert failing["associativity"] >= 100 and failing["identity"] >= 100


def test_closure_failures_match_the_double_loop(pt, delta4, fi3, cube2):
    """closure_failures gives the failing pairs (g, f) of a plain double
    loop over the composable pairs, on M and K of stock structures, of
    seeded cuts closed under composition and of seeded mutants, whose
    tables pass check_tables; some of these sets are closed and some are
    not."""
    rng = random.Random(28)
    cases = [pt, delta4, fi3, cube2]
    cases += closed_cuts(fi3, 4, rng) + closed_cuts(cube2, 4, rng)
    cases += [s for _, s in negative_controls([delta4, fi3, cube2], rng)]
    seen = set()
    for s in cases:
        cat = s.cat
        assert cat.check_tables().ok
        for members in (s.m_class, s.derived.k_class):
            want = [(g, f) for g in sorted(members) for f in sorted(members)
                    if cat.composable(g, f) and cat.comp[g][f] not in members]
            assert closure_failures(cat, members) == want
            seen.add(bool(want))
    assert seen == {True, False}
