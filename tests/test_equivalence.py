import hashlib
import itertools
import json
import random
from fractions import Fraction

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
from dkequiv.equivalence import (
    KernelModule,
    TransportError,
    TriangularityError,
    build_kernel_module,
    certify_equivalence,
    counit_with,
    hat,
    theta_matrix,
    tilde,
    tilde_subspaces,
    unit,
)
from dkequiv.exactlin import QMat, Subspace, block
from dkequiv.fincat import FinCat, group_by, outside_composites
from dkequiv.functors import (
    AdditiveFunctor,
    InfeasibleRelations,
    NatTransform,
    PointedFunctor,
    random_pointed_functor,
)
from dkequiv.structure import MRStructure, check_assumptions

from conftest import closed_cuts


def act(km, d_r, f, u):
    """The kernel module's two-sided action f o u o r; None is the basepoint."""
    r = km.d.d_to_r[d_r]
    if u is None or r is None:
        return None
    s = km.structure
    w = s.cat.comp[f][s.cat.comp[u][r]]
    return w if s.s_in_r(w) else None


def element_count(km, a, b):
    """Non-basepoint elements of the kernel module at (a, b)."""
    return len(km.elements[(a, b)])


def full_bimodule_law_oracle(km):
    """The two-sided law f1 o (f o u o r) o r1 = (f1 o f) o u o (r o r1),
    checked over every 5-tuple directly."""
    s = km.structure
    cat, dcat = s.cat, km.d.cat
    comp, to_c = cat.comp, km.d.d_to_r
    kept = [w if s.s_in_r(w) else None for w in cat.morphisms()]
    elements = {(a, b): [u for u in cat.hom(a, b) if s.s_in_r(u)]
                for a in cat.objects() for b in cat.objects()}
    for r in dcat.morphisms():
        a1, a = dcat.dom[r], dcat.cod[r]
        r1s = [(r1, to_c[r1], to_c[dcat.comp[r][r1]]) for r1 in dcat.morphisms()
               if dcat.cod[r1] == a1]
        for f in cat.morphisms():
            acted = [(u, act(km, r, f, u)) for u in elements[(a, cat.dom[f])]]
            for f1 in cat.outof[cat.cod[f]]:
                row1, row1f = comp[f1], comp[comp[f1][f]]
                for r1, c1, c_rr1 in r1s:
                    for u, x in acted:
                        # act(km, r1, f1, x) and act(km, r o r1, f1 o f, u)
                        # written out: 19.8M instances on cube 3
                        lhs = None if x is None or c1 is None else kept[row1[comp[x][c1]]]
                        rhs = None if c_rr1 is None else kept[row1f[comp[u][c_rr1]]]
                        assert lhs == rhs, (r, r1, f, f1, u)


def _stock_small():
    """pt and every other stock structure of size at most 3."""
    return [build_pt()] + [BUILDERS[name][0](n)
                           for name in ("delta_bt", "fi_sharp", "cube")
                           for n in range(BUILDERS[name][1], 4)]


def test_bimodule_full_law_small():
    for s in _stock_small():
        full_bimodule_law_oracle(build_kernel_module(s, validate=True))


def test_kernel_module_counts(km_fi3, km_delta4, km_pt):
    assert element_count(km_fi3, 2, 3) == 6  # total injections 2 -> 3
    # ordinal 3 -> ordinal 2: only the collapse map has irreducible part
    assert element_count(km_delta4, 2, 1) == 1
    cat = km_delta4.structure.cat
    (u,) = km_delta4.elements[(2, 1)]
    assert cat.mor_labels[u] == "0,0,1"
    # one-object hom of the walking split epi: identity only
    assert element_count(km_pt, 0, 0) == 1


def test_kernel_module_elements_match_naive_decomposition(km_delta4, km_fi3):
    # independent recomputation: u is an element iff it decomposes as an
    # embedding after an irreducible morphism
    for km in (km_delta4, km_fi3):
        s = km.structure
        cat = s.cat
        for u in cat.morphisms():
            naive = any(
                cat.comp[n][r] == u
                for n in sorted(s.m_class)
                if cat.cod[n] == cat.cod[u]
                for r in sorted(s.r_class)
                if cat.dom[r] == cat.dom[u] and cat.cod[r] == cat.dom[n]
            )
            assert naive == s.s_in_r(u)



# fi_sharp 2 with its embeddings cut to the isomorphisms plus the total
# injection 1: the kernel module of this structure breaks the left and the
# interchange laws.  Every problem tuple is pinned, in the order reported.
CUT1_BIMODULE_PROBLEMS = (
    [("left", 7, r1, u) for r1 in (11, 12) for u in (9, 10, 11, 13, 14, 15)]
    + [("left", 8, r1, u) for r1 in (11, 12) for u in (9, 10, 12, 13, 16, 18)]
    + [("left", 11, r1, u) for r1 in (2, 13, 14, 16) for u in (5, 7, 8)]
    + [("left", 12, r1, u) for r1 in (2, 13, 15, 18) for u in (5, 7, 8)]
    + [("interchange", r, f, u)
       for r in (11, 12)
       for f, u in [(3, 5), (4, 5), (6, 5)]
       + [(f, 7) for f in (9, 10, 11, 13, 14, 15)]
       + [(f, 8) for f in (9, 10, 12, 13, 16, 18)]]
)


def test_bimodule_law_failures_are_pinned(fi2):
    m_class = fi2.cat.isos() | {1}
    cut = MRStructure(fi2.cat, m_class, {m: fi2.star[m] for m in m_class})
    problems = KernelModule(cut).validate()
    assert len(problems) == 78
    assert problems == CUT1_BIMODULE_PROBLEMS


def _exhaustive_bimodule_problems(km):
    """KernelModule.validate's walk over every instance of the identity,
    left, right and interchange laws: the reference its reduced check must
    reproduce, list for list."""
    s = km.structure
    cat = s.cat
    comp = cat.comp
    s_in_r = s.parts.s_in_r
    kept = [w if ok else None for w, ok in enumerate(s_in_r)]
    rset = s.r_class
    problems = []
    elems = list(itertools.chain.from_iterable(km.elements.values()))
    elems_by_dom = group_by(elems, cat.dom)
    elems_by_cod = group_by(elems, cat.cod)
    for (a, b), us in sorted(km.elements.items()):
        ia, ib = cat.identity(a), cat.identity(b)
        for u in us:
            if kept[comp[ib][comp[u][ia]]] != u:
                problems.append(("identity", u))
    r_sorted = sorted(rset)
    r_by_cod = group_by(r_sorted, cat.cod)
    for r in r_sorted:
        a1, a = cat.dom[r], cat.cod[r]
        for r1 in r_by_cod.get(a1, ()):
            rr1 = comp[r][r1]
            for u in elems_by_dom.get(a, ()):
                ur = comp[u][r]
                step = kept[comp[ur][r1]] if s_in_r[ur] else None
                whole = kept[comp[u][rr1]] if rr1 in rset else None
                if step != whole:
                    problems.append(("left", r, r1, u))
    for b, us in sorted(elems_by_cod.items()):
        for f in cat.outof[b]:
            for f1 in cat.outof[cat.cod[f]]:
                for u in us:
                    t = comp[f][u]
                    step = kept[comp[f1][t]] if s_in_r[t] else None
                    if step != kept[comp[comp[f1][f]][u]]:
                        problems.append(("right", f, f1, u))
    for r in r_sorted:
        for u in elems_by_dom.get(cat.cod[r], ()):
            ur = comp[u][r]
            for f in cat.outof[cat.cod[u]]:
                fu = comp[f][u]
                both = kept[comp[f][ur]]
                via_left = both if s_in_r[ur] else None
                via_right = kept[comp[fu][r]] if s_in_r[fu] else None
                if not (via_left == via_right == both):
                    problems.append(("interchange", r, f, u))
    return problems


def _passes_assumptions(s):
    try:
        return check_assumptions(s).passed
    except ValueError:  # factorize on some tables that are not associative
        return False


def _unit_group_monoid():
    """One object with morphisms id, a and e, where {e, a} is a group of
    order two with unit e; embeddings {id, a} with star(a) = a.  The table
    is associative, but star(a) o a = e is not an identity: id o a = a is an
    element and a o a = e is not, while a o e = a is one again, so the
    covariant law fails."""
    cat = FinCat(1, [0, 0, 0], [0, 0, 0], [0],
                 [[0, 1, 2], [1, 2, 1], [2, 1, 2]], ["*"], ["id", "a", "e"])
    return MRStructure(cat, {0, 1}, {0: 0, 1: 1})


@pytest.fixture(scope="module")
def bimodule_cases(fi2, single_entry_mutants):
    """The stock structures of size at most 3, Gamma_2 and Gamma_3, the
    pinned cut of fi_sharp 2, seeded comp and retraction mutants of the
    bases with at most 40 morphisms that pass check_assumptions (the comp
    mutants' tables are not associative), _unit_group_monoid, whose table
    is associative and whose covariant law fails, and seeded cuts of every
    base closed under composition, whose tables are associative and some
    of which break the interchange law while the covariant law holds."""
    rng = random.Random(11)
    bases = _stock_small() + [build_par(build_finset_input(n)) for n in (2, 3)]
    cut = fi2.cat.isos() | {1}
    cases = bases + [MRStructure(fi2.cat, cut, {m: fi2.star[m] for m in cut}),
                     _unit_group_monoid()]
    for base in bases:
        if base.cat.n_morphisms <= 40:
            cases += single_entry_mutants(base, 8, rng, _passes_assumptions)
    rng = random.Random(23)
    for base in bases:
        cases += closed_cuts(base, 6, rng)
    return cases


def _outside(km):
    """E, the elements of km, and X = (C o E) - E."""
    cat = km.structure.cat
    inside = {u for us in km.elements.values() for u in us}
    return inside, outside_composites(cat, cat.outof, inside)


def test_bimodule_validate_matches_the_exhaustive_walk(bimodule_cases):
    """validate() gives the problem list of the walk over every instance, on
    associative tables whose covariant law holds or fails and on tables
    that are not associative; it skips the covariant walk exactly on the
    associative tables where that walk finds nothing.  Where it may skip
    the interchange walk too (the table associative, _right_law_holds
    True and R inside E), _interchange_holds is True exactly when that
    walk finds nothing; both outcomes occur."""
    seen, interchange_seen = set(), set()
    for s in bimodule_cases:
        km = KernelModule(s)
        want = _exhaustive_bimodule_problems(km)
        assert km.validate() == want
        key = (s.cat.check().ok, any(p[0] == "right" for p in want))
        inside, outside = _outside(km)
        right_holds = km._right_law_holds(inside, outside)
        assert right_holds == (key == (True, False))
        seen.add(key)
        if right_holds and s.r_class <= inside:
            broken = any(p[0] == "interchange" for p in want)
            assert km._interchange_holds(inside, outside) == (not broken)
            interchange_seen.add(broken)
    assert {(True, False), (True, True)} <= seen
    assert any(not associative for associative, _ in seen)
    assert interchange_seen == {True, False}


def test_bimodule_validate_takes_the_reduced_path(fi4, cube3):
    """On the benchmark's structures, Gamma_3 and VI#_2 neither the
    covariant nor the interchange law is walked: both reduced tests pass,
    and validate() finds nothing."""
    for s in (build_delta_bt(6), fi4, cube3, build_par(build_finset_input(3)),
              build_par(build_flinj_input(2))):
        km = KernelModule(s)
        inside, outside = _outside(km)
        assert km._right_law_holds(inside, outside)
        assert km._interchange_holds(inside, outside)
        assert km.validate() == []


def test_interchange_holds_needs_every_irreducible_inside(fi3):
    """_interchange_holds is False when E lacks an irreducible, although no
    t in X has t o r in the smaller E: its proof needs R inside E."""
    km = KernelModule(fi3)
    inside, outside = _outside(km)
    assert fi3.r_class <= inside and km._interchange_holds(inside, outside)
    assert not km._interchange_holds(inside - {min(fi3.r_class)}, outside)


def zero_functor(d):
    return PointedFunctor(
        d, [0] * d.cat.n_objects,
        {f: QMat.zeros(0, 0) for f in d.nonzero_morphisms()},
    )


def _counit(km, t):
    """hat(tilde(t)) => t, not yet validated."""
    sub = tilde_subspaces(km, t)
    return NatTransform(hat(km, tilde(km, t, sub)), t, counit_with(km, t, sub))


def test_hat_zero(km_delta4):
    f = zero_functor(km_delta4.d)
    t = hat(km_delta4, f)
    assert all(x == 0 for x in t.dims)
    assert t.validate().ok
    # zero transforms are trivially natural isomorphisms
    eta = unit(km_delta4, f)
    assert eta.validate().ok and eta.is_iso()
    eps = _counit(km_delta4, t)
    assert eps.validate().ok and eps.is_iso()


def test_hat_binomial_dims(km_fi4):
    f = random_pointed_functor(km_fi4.d, (1, 1, 0, 0, 0), seed=0)
    t = hat(km_fi4, f)
    assert t.dims == (1, 2, 3, 4, 5)
    f = random_pointed_functor(km_fi4.d, (1, 0, 2, 0, 1), seed=1)
    t = hat(km_fi4, f)
    from math import comb

    want = tuple(
        sum(comb(n, k) * d for k, d in enumerate((1, 0, 2, 0, 1)))
        for n in range(5)
    )
    assert t.dims == want


def test_hat_delta_dims_from_poset_sizes(km_delta4):
    s = km_delta4.structure
    f = random_pointed_functor(km_delta4.d, (1, 1, 1, 1), seed=2)
    t = hat(km_delta4, f)
    for a in s.cat.objects():
        assert t.dims[a] == len(s.sub_poset(a))
    assert t.validate().ok


def _hat_by_blocks(km, f):
    """hat as it was first written: every matrix assembled by block() from a
    grid of the functor's matrices, the placement rebuilt on each call."""
    s = km.structure
    cat = s.cat
    lins = [s.sub_poset(a).linearization for a in cat.objects()]
    index = [{rep: k for k, rep in enumerate(lin)} for lin in lins]
    widths = [[f.dims[cat.dom[rep]] for rep in lin] for lin in lins]
    mats = {}
    for g in cat.morphisms():
        a, b = cat.dom[g], cat.cod[g]
        grid = {}
        for j, m in enumerate(lins[a]):
            u = cat.comp[g][m]
            if s.s_in_r(u):
                grid[(index[b][s.m_part(u)], j)] = f.mats[km.d.r_to_d[s.s_part(u)]]
        mats[g] = block(widths[b], widths[a], grid)
    return AdditiveFunctor(cat, [sum(w) for w in widths], mats)


def _rescaled(f):
    """f conjugated at each object a by the upper-triangular matrix with
    entries (i + a + 2) / (j + 2) at i <= j: a functor isomorphic to f whose
    matrices hold non-integer rationals with different denominators."""
    cat = f.d.cat
    change = [QMat.from_rows([[Fraction(i + a + 2, j + 2) if i <= j else 0
                               for j in range(n)] for i in range(n)], n)
              for a, n in enumerate(f.dims)]
    back = [p.inverse() for p in change]
    return PointedFunctor(f.d, f.dims, {
        dm: change[cat.cod[dm]].mul(m).mul(back[cat.dom[dm]])
        for dm, m in f.mats.items()})


# per structure: its builder, then dims with a zero entry, then dims whose
# functor at seed 3 is not a direct sum of trivial atoms, so that _rescaled
# gives it non-integer entries
HAT_CASES = {
    "fi_sharp_3": (lambda: build_fi_sharp(3), (2, 1, 1, 0), (1, 0, 2, 1)),
    "fi_sharp_4": (lambda: build_fi_sharp(4), (3, 3, 0, 2, 3), (2, 1, 3, 3, 2)),
    "delta_bt_5": (lambda: build_delta_bt(5), (1, 0, 1, 2, 1), (2, 3, 2, 1, 1)),
    "delta_bt_6": (lambda: build_delta_bt(6), (1, 0, 1, 0, 1, 2),
                   (3, 3, 2, 3, 4, 3)),
    "cube_3": (lambda: build_cube(3), (1, 0, 2, 1), (2, 1, 1, 1)),
    "gamma_3": (lambda: build_par(build_finset_input(3)), (1, 0, 2, 1),
                (1, 2, 3, 2)),
    "vi_sharp_2": (lambda: build_par(build_flinj_input(2)), (1, 0, 2), (0, 1, 6)),
}


@pytest.mark.parametrize("tag", sorted(HAT_CASES))
def test_hat_matches_the_block_assembly(tag):
    """hat(f) and hat(tilde(hat f)) hold, matrix by matrix, the denominator
    and sparse rows that block() gives, for seeded functors with a zero
    dimension and for rescaled ones with non-integer entries."""
    build, zero_dims, dims = HAT_CASES[tag]
    km = build_kernel_module(build(), validate=False)
    fs = [random_pointed_functor(km.d, zero_dims, seed=0),
          random_pointed_functor(km.d, dims, seed=3)]
    fs += [_rescaled(f) for f in fs]
    dens = set()
    for f in fs:
        t = hat(km, f)
        for source in (f, tilde(km, t)):
            got, want = hat(km, source), _hat_by_blocks(km, source)
            assert got.dims == want.dims
            assert got.mats.keys() == want.mats.keys()
            for g, m in want.mats.items():
                assert (got.mats[g].shape, got.mats[g].den, got.mats[g].sparse) == (
                    m.shape, m.den, m.sparse), g
            dens |= {m.den for m in source.mats.values()}
    assert len(dens) > 1


def constant_functor(cat):
    return AdditiveFunctor(
        cat, [1] * cat.n_objects, {f: QMat.identity(1) for f in cat.morphisms()}
    )


def test_tilde_constant_functor(km_delta4):
    s = km_delta4.structure
    t = constant_functor(s.cat)
    f = tilde(km_delta4, t)
    assert f.validate().ok
    for a in s.cat.objects():
        proper = s.sub_poset(a).proper()
        assert f.dims[a] == (0 if proper else 1)


def test_tilde_no_proper_subobjects_gives_restriction():
    s = build_delta_bt(1)
    km = build_kernel_module(s)
    t = constant_functor(s.cat)
    f = tilde(km, t)
    assert f.dims == (1,)
    assert f.mats[km.d.r_to_d[s.cat.identity(0)]].is_identity()


def test_moore_complex_oracle(km_delta5, intersect):
    # the right transport at each ordinal is the intersection of the kernels
    # of the retractions of the face maps, computed here independently from
    # the labels; its collapse-map action squares to zero
    km = km_delta5
    s = km.structure
    cat = s.cat
    f = random_pointed_functor(km.d, (2, 3, 2, 1, 1), seed=4)
    t = hat(km, f)
    ft = tilde(km, t)
    assert ft.dims == f.dims
    for a in cat.objects():
        kernels = []
        for m in cat.morphisms():
            lab = cat.mor_labels[m]
            tgt = tuple(int(x) for x in lab.split(","))
            if (
                cat.cod[m] == a
                and cat.dom[m] != a
                and len(set(tgt)) == len(tgt)
            ):
                kernels.append(t.mats[s.star[m]].kernel())
        expected = Subspace.full(t.dims[a])
        for k in kernels:
            expected = intersect(expected, k)
        assert expected.dim == ft.dims[a]
    # boundary squared is zero (it is a zero composite in the completion)
    for dr in km.d.nonzero_morphisms():
        r = km.d.d_to_r[dr]
        if cat.dom[r] == cat.cod[r] + 1:
            dr2 = [
                e for e in km.d.nonzero_morphisms()
                if km.d.d_to_r[e] is not None
                and cat.dom[km.d.d_to_r[e]] == cat.cod[r]
                and cat.cod[km.d.d_to_r[e]] == cat.cod[r] - 1
            ]
            for e in dr2:
                assert ft.mats[e].mul(ft.mats[dr]).is_zero()


def test_unit_counit_invertible_small(km_delta4, km_fi3, km_cube3, km_pt):
    for km, dims in [
        (km_delta4, (1, 2, 2, 1)),
        (km_fi3, (1, 1, 2, 1)),
        (km_cube3, (1, 1, 1, 1)),
        (km_pt, (2, 1)),
    ]:
        f = random_pointed_functor(km.d, dims, seed=6)
        eta = unit(km, f)
        assert eta.validate().ok
        assert eta.is_iso()
        t = hat(km, f)
        eps = _counit(km, t)
        assert eps.validate().ok
        assert eps.is_iso()


def test_pt_split_epi_bookkeeping(km_pt):
    # a functor on the walking split epi is a split epimorphism of spaces;
    # the right transport records (kernel, base)
    s = km_pt.structure
    cat = s.cat
    by_label = {cat.mor_labels[f]: f for f in cat.morphisms()}
    # X = Q^3 -> A = Q^1 projection, with section and induced idempotent
    p = QMat.from_rows([[1, 0, 0]])
    sec = QMat.from_rows([[1], [0], [0]])
    t = AdditiveFunctor(
        cat,
        [1, 3],
        {
            by_label["id0"]: QMat.identity(1),
            by_label["id1"]: QMat.identity(3),
            by_label["mu"]: sec,
            by_label["mu*"]: p,
            by_label["e"]: sec.mul(p),
        },
    )
    assert t.validate().ok
    ft = tilde(km_pt, t)
    assert ft.dims == (1, 2)  # (base, kernel of the projection)
    f0 = random_pointed_functor(km_pt.d, (1, 2), seed=0)
    th = hat(km_pt, f0)
    assert th.dims == (1, 3)  # big object value is the direct sum


def test_theta_frozen_fi_2set(km_fi3):
    t = constant_functor(km_fi3.structure.cat)
    th = theta_matrix(km_fi3, t, 2)
    assert th.shape == (4, 4)
    assert th.den == 1
    # unitriangular with 0/1 entries counting embedding-compatible pairs
    rows = th.rows
    for i in range(4):
        assert Fraction(rows[i][i], th.den) == 1
        for j in range(i):
            assert Fraction(rows[i][j], th.den) == 0
    inv = th.inverse()
    assert th.mul(inv).is_identity()
    assert inv.den == 1


def test_theta_single_class_object(km_delta4):
    t = constant_functor(km_delta4.structure.cat)
    th = theta_matrix(km_delta4, t, 0)  # ordinal 1: one subobject class
    assert th == QMat.identity(1)


def test_theta_unitriangular_everywhere(km_delta5, km_fi3, km_cube3, km_pt):
    for km, dims in [
        (km_delta5, (1, 1, 2, 1, 1)),
        (km_fi3, (1, 2, 1, 1)),
        (km_cube3, (1, 1, 1, 2)),
        (km_pt, (1, 2)),
    ]:
        f = random_pointed_functor(km.d, dims, seed=8)
        t = hat(km, f)
        for a in km.structure.cat.objects():
            th = theta_matrix(km, t, a)
            assert th.mul(th.inverse()).is_identity()


def test_theta_rejects_non_identity_diagonal(km_fi3):
    # a corrupted identity of the object 1 in a hat output: the first class
    # of object 3 with domain 1, in theta's block order, is the witness
    km = km_fi3
    cat = km.structure.cat
    t = hat(km, random_pointed_functor(km.d, (1, 2, 1, 1), seed=8))
    mats = dict(t.mats)
    mats[cat.identity(1)] = _bump(mats[cat.identity(1)])
    bad = AdditiveFunctor(cat, t.dims, mats)
    order = list(reversed(km.structure.sub_poset(3).linearization))
    n = next(n for n in order if cat.dom[n] == 1)
    assert n != order[0]
    with pytest.raises(TriangularityError) as e:
        theta_matrix(km, bad, 3)
    assert e.value.witness == {"object": 3, "n": n, "m": n}


def test_theta_rejects_nonzero_block_below_diagonal(km_fi3, monkeypatch):
    # on a valid structure no embedding composite lies below the diagonal,
    # so the poset's linearization is reversed: the empty subset comes
    # first, and the block of the next class at it is a nonzero identity
    km = km_fi3
    cat = km.structure.cat
    t = hat(km, random_pointed_functor(km.d, (1, 2, 1, 1), seed=8))
    poset = km.structure.sub_poset(3)
    lin = poset.linearization
    monkeypatch.setattr(poset, "linearization", lin[::-1])
    assert cat.dom[lin[0]] == 0
    with pytest.raises(TriangularityError) as e:
        theta_matrix(km, t, 3)
    assert e.value.witness == {"object": 3, "n": lin[1], "m": lin[0]}


def test_certify_small(km_delta4, km_fi3):
    for km in (km_delta4, km_fi3):
        fs = [
            random_pointed_functor(km.d, (1, 1, 2, 1), seed=s) for s in range(4)
        ]
        cert = certify_equivalence(km, fs, [f"f{s}" for s in range(4)])
        assert cert.ok
        for e in cert.entries:
            assert e.dims == e.tilde_hat_dims


def test_certify_fails_every_input_that_is_not_a_functor(km_delta4, km_fi3, cube2):
    # seeded functors, each copied with one matrix entry raised by one
    copies = rejected = 0
    for km, dims in ((km_delta4, (1, 2, 2, 1)), (km_fi3, (1, 1, 2, 1)),
                     (build_kernel_module(cube2), (1, 1, 2))):
        data = random_pointed_functor(km.d, dims, seed=5).to_jsonable()
        for key, rows in sorted(data["mats"].items()):
            for i, j in itertools.product(range(len(rows)), range(len(rows[0]))):
                copy = json.loads(json.dumps(data))
                copy["mats"][key][i][j] = str(Fraction(rows[i][j]) + 1)
                g = PointedFunctor.from_jsonable(km.d, copy)
                copies += 1
                laws = g.validate()
                if laws.ok:
                    continue
                rejected += 1
                entry = certify_equivalence(km, [g], ["g"]).entries[0]
                assert not entry.ok
                assert entry.witness == {"error": "input functor invalid",
                                         "detail": laws.to_jsonable()}
    assert (copies, rejected) == (47, 40)


def test_tilde_reports_a_map_that_does_not_restrict(km_delta4):
    """hat(f) with one entry of the degeneracy 0,0,1,2 changed so that its
    matrix no longer maps the kernel intersection at its domain into the
    one at its codomain, which the change leaves as they were: tilde raises
    TransportError naming that morphism."""
    from dkequiv.exactlin import RestrictionError, restrict

    km = km_delta4
    cat = km.structure.cat
    t = hat(km, random_pointed_functor(km.d, (1, 2, 2, 1), seed=3))
    r = cat.mor_labels.index("0,0,1,2")
    m, sub = t.mats[r], tilde_subspaces(km, t)

    def restricts(x):
        try:
            restrict(x, sub[cat.dom[r]], sub[cat.cod[r]])
        except RestrictionError:
            return False
        return True

    # m plus a single 1 at (i, j), at the first cell where that breaks it
    bumped = (m + QMat(*m.shape, [((j, 1),) if k == i else () for k in range(m.nrows)])
              for i in range(m.nrows) for j in range(m.ncols))
    bad = next(x for x in bumped if not restricts(x))
    broken = AdditiveFunctor(cat, t.dims, {**t.mats, r: bad})
    assert tilde_subspaces(km, broken) == sub
    with pytest.raises(TransportError) as e:
        tilde(km, broken)
    assert str(e.value).startswith("restriction failed along 0,0,1,2: ")
    assert e.value.witness == {"morphism": r, "label": "0,0,1,2"}


def test_certify_vacuous(km_delta4):
    cert = certify_equivalence(km_delta4, [], [])
    assert cert.ok and cert.entries == []


def _bump(m):
    rows = m.rows
    return QMat.from_rows(
        [
            [Fraction(rows[i][j], m.den) + (1 if i == j == 0 else 0)
             for j in range(m.ncols)]
            for i in range(m.nrows)
        ],
        m.ncols,
    )


def test_validation_detects_pointed_corruption(km_delta4):
    # corrupting an identity matrix is always caught by functor validation
    km = km_delta4
    f = random_pointed_functor(km.d, (1, 2, 2, 1), seed=3)
    key = km.d.cat.identity(1)
    mats = dict(f.mats)
    mats[key] = _bump(mats[key])
    broken = PointedFunctor(km.d, f.dims, mats)
    rep = broken.validate()
    assert not rep.ok
    assert any("identity" in v["message"] for v in rep.law)


def test_counit_detects_additive_corruption(km_delta4):
    # the certificate side is a bug detector: a corrupted ordinary functor
    # loses naturality of the counit, reported with a witness morphism
    km = km_delta4
    t = hat(km, random_pointed_functor(km.d, (1, 2, 2, 1), seed=3))
    key = next(
        g for g in sorted(t.mats)
        if t.mats[g].nrows and t.mats[g].ncols
        and not km.structure.cat.is_identity(g)
    )
    mats = dict(t.mats)
    mats[key] = _bump(mats[key])
    bad = AdditiveFunctor(km.structure.cat, t.dims, mats)
    assert not bad.validate().ok
    rep = _counit(km, bad).validate()
    assert not rep.ok
    assert rep.law[0]["message"] == "naturality square does not commute"


def test_certificate_json_deterministic(km_delta4):
    fs = [random_pointed_functor(km_delta4.d, (1, 1, 1, 1), seed=s) for s in range(2)]
    names = ["f0", "f1"]
    a = certify_equivalence(km_delta4, fs, names).to_jsonable()
    b = certify_equivalence(
        km_delta4,
        [random_pointed_functor(km_delta4.d, (1, 1, 1, 1), seed=s) for s in range(2)],
        names,
    ).to_jsonable()
    assert (json.dumps(a, sort_keys=True, indent=2)
            == json.dumps(b, sort_keys=True, indent=2))


def test_certificate_fails_when_hat_of_tilde_hat_is_corrupted(km_delta4, monkeypatch):
    # hat's second call in a certificate is hat(tilde(hat f)), the source of
    # the counit; one changed entry on a non-identity embedding leaves every
    # kernel intersection as it was and breaks the counit's naturality
    from dkequiv import equivalence

    km = km_delta4
    s = km.structure
    f = random_pointed_functor(km.d, (1, 2, 2, 1), seed=3)
    real_hat = equivalence.hat
    calls, keys = [], []

    def corrupting_hat(km_, g):
        out = real_hat(km_, g)
        calls.append(g)
        if len(calls) != 2:
            return out
        key = next(
            m for m in sorted(s.m_class)
            if not s.cat.is_identity(m) and out.mats[m].nrows and out.mats[m].ncols
        )
        keys.append(key)
        mats = dict(out.mats)
        mats[key] = _bump(mats[key])
        return AdditiveFunctor(out.base, out.dims, mats)

    monkeypatch.setattr(equivalence, "hat", corrupting_hat)
    entry = equivalence.certify_functor(km, f, "corrupted")
    assert len(calls) >= 2 and keys
    assert not entry.counit_natural
    assert not entry.ok
    assert not entry.to_jsonable()["ok"]
    assert entry.unit_natural and entry.counit_invertible
    assert entry.witness == {"counit": [{
        "message": "naturality square does not commute",
        "morphism": keys[0],
        "label": s.cat.mor_labels[keys[0]],
    }]}


def _validated(km, f, monkeypatch, **patches):
    """certify_functor's entry for f, with the named functions of
    equivalence replaced, and the (transformation, along) of each
    NatTransform.validate call it made: the unit's, then the counit's."""
    from dkequiv import equivalence

    for name, fn in patches.items():
        monkeypatch.setattr(equivalence, name, fn)
    seen = []
    real_validate = NatTransform.validate

    def spying_validate(self, along=None):
        seen.append((self, along))
        return real_validate(self, along)

    monkeypatch.setattr(NatTransform, "validate", spying_validate)
    entry = equivalence.certify_functor(km, f, "f")
    monkeypatch.undo()
    return seen, entry


def _counit_along(km, f, monkeypatch, **patches):
    """certify_functor's entry for f, with the named functions of
    equivalence replaced, and the counit it validated with the along
    argument it gave."""
    seen, entry = _validated(km, f, monkeypatch, **patches)
    eps, along = seen[-1]
    return eps, along, entry


def test_certificate_fails_when_hat_is_corrupted_at_a_non_generator(fi3, monkeypatch):
    """hat(tilde(hat f)) with morphism 5 of fi_sharp 3, which is no
    generator, bumped: every generator's counit square commutes, so only
    the full walk finds the failure.  A functor that hat did not assemble
    from the placement gets that walk."""
    from dkequiv import equivalence

    km = build_kernel_module(fi3)
    cat = fi3.cat
    assert 5 not in cat.generating_set()
    f = random_pointed_functor(km.d, (2, 2, 2, 2), seed=3)
    real_hat = equivalence.hat
    calls = []

    def corrupting_hat(km_, g):
        out = real_hat(km_, g)
        calls.append(g)
        if len(calls) != 2:
            return out
        mats = dict(out.mats)
        mats[5] = _bump(mats[5])
        return AdditiveFunctor(out.base, out.dims, mats)

    eps, along, entry = _counit_along(km, f, monkeypatch, hat=corrupting_hat)
    assert len(calls) == 2 and along is None
    assert eps.validate(cat.generating_set()).ok
    assert not entry.counit_natural and not entry.ok
    assert entry.unit_natural and entry.counit_invertible
    assert entry.witness == {"counit": [{
        "message": "naturality square does not commute",
        "morphism": 5, "label": "0"}]}


def test_counit_is_walked_in_full_unless_every_condition_holds(fi3, monkeypatch):
    """The counit is checked along C's generators only when hat assembled t
    and hft from this placement, out of f and ft on km.d, the placement is
    functorial and ft passes its laws; each condition failing alone gives
    the full walk, and every entry is the same."""
    from dkequiv import equivalence

    km = build_kernel_module(fi3)
    gens = fi3.cat.generating_set()
    f = random_pointed_functor(km.d, (2, 2, 2, 2), seed=3)
    _, along, want = _counit_along(km, f, monkeypatch)
    assert along == gens and want.ok
    real_hat, real_tilde = equivalence.hat, equivalence.tilde

    def copied_hat(km_, g):  # same matrices, not HatMats
        out = real_hat(km_, g)
        return AdditiveFunctor(out.base, out.dims, dict(out.mats))

    calls = []

    def second_copied(km_, g):
        calls.append(g)
        return copied_hat(km_, g) if len(calls) == 2 else real_hat(km_, g)

    # f on the completion of a copy of the structure, not on km.d
    other = MRStructure.from_jsonable(fi3.to_jsonable()).d_cat
    assert other is not km.d
    f_other = PointedFunctor(other, f.dims, f.mats)
    unchecked = KernelModule(fi3)
    unchecked.__dict__["placement_is_functorial"] = False
    for km_, g, patches in ((km, f, {"hat": copied_hat}),
                            (km, f, {"hat": second_copied}),
                            (km, f_other, {}),
                            (unchecked, f, {})):
        _, along, entry = _counit_along(km_, g, monkeypatch, **patches)
        assert along is None
        assert entry == want

    # ft failing its laws: its identity at object 1 bumped, which hat
    # carries to hft; the full walk then reports the counit's failures
    def bad_tilde(km_, t, sub=None):
        ft = real_tilde(km_, t, sub)
        i = km_.d.cat.identity(1)
        return PointedFunctor(km_.d, ft.dims, {**ft.mats, i: _bump(ft.mats[i])})

    _, along, entry = _counit_along(km, f, monkeypatch, tilde=bad_tilde)
    assert along is None and not entry.counit_natural


def _placement_reference(km):
    """placement_is_functorial's four conditions, computed from every
    composable pair with each pattern read as a dict: C's and D's tables
    pass check(); each cell's D-morphism runs between its blocks' objects;
    each identity has the identity pattern; and P_{g2 o g1} is P_g2 after
    P_g1, with D-composites that are zeros dropped."""
    cat, d = km.structure.cat, km.d
    lins, cells = km.placement
    pat = [{j: (i, e) for i, row in cells[g] for j, e in row}
           for g in cat.morphisms()]

    def obj(a, k):
        return cat.dom[lins[a][k]]

    ends = all(d.cat.dom[e] == obj(cat.dom[g], j) and d.cat.cod[e] == obj(cat.cod[g], i)
               for g in cat.morphisms() for j, (i, e) in pat[g].items())
    ids = all(pat[cat.identity(a)] == {j: (j, d.cat.identity(obj(a, j)))
                                       for j in range(len(lins[a]))}
              for a in cat.objects())

    def after(g2, g1):
        out = {}
        for j, (i, e1) in pat[g1].items():
            if i in pat[g2]:
                k, e2 = pat[g2][i]
                e = d.cat.comp[e2][e1]
                if not d.is_zero(e):
                    out[j] = (k, e)
        return out

    composes = ends and all(pat[cat.comp[g2][g1]] == after(g2, g1)
                            for g2 in cat.morphisms()
                            for g1 in cat.into[cat.dom[g2]])
    return cat.check().ok and d.cat.check().ok, ends, ids, composes


def _placement_structures():
    """delta_bt 1-6, fi_sharp 0-4, cube 0-3, pt, Gamma_3 and VI#_2."""
    return ([build_delta_bt(n) for n in range(1, 7)]
            + [build_fi_sharp(n) for n in range(5)]
            + [build_cube(n) for n in range(4)]
            + [build_pt(), build_par(build_finset_input(3)),
               build_par(build_flinj_input(2))])


def _placement_mutant(km, rng):
    """A KernelModule of km's structure whose placement differs from km's
    at one cell: its block row moved to another block row of the codomain,
    or its D-morphism replaced by another nonzero one, with the same
    endpoints when there is one; None when the drawn cell has no other."""
    cat, d = km.structure.cat, km.d
    lins, cells = km.placement
    g = rng.choice([g for g in cat.morphisms() if cells[g]])
    flat = [(i, j, e) for i, row in cells[g] for j, e in row]
    k = rng.randrange(len(flat))
    i, j, e = flat[k]
    if rng.random() < 0.5:
        rows = [x for x in range(len(lins[cat.cod[g]])) if x != i]
        if not rows:
            return None
        flat[k] = (rng.choice(rows), j, e)
    else:
        others = [x for x in d.nonzero_morphisms() if x != e]
        same = [x for x in others if (d.cat.dom[x], d.cat.cod[x])
                == (d.cat.dom[e], d.cat.cod[e])]
        if not others:
            return None
        flat[k] = (i, j, rng.choice(same or others))
    rows = {}
    for i, j, e in sorted(flat):
        rows.setdefault(i, []).append((j, e))
    mutant = KernelModule(km.structure)
    mutant.__dict__["placement"] = (
        lins, [sorted(rows.items()) if x == g else c for x, c in enumerate(cells)])
    return mutant


@pytest.fixture(scope="module")
def placement_cases(single_entry_mutants):
    """(structure, whether it is stock) for the structures of
    _placement_structures, the closed cuts of the small ones (2 each), and
    the comp mutants of those with at most 40 morphisms that pass
    check_assumptions, whose tables are not associative."""
    rng = random.Random(5)
    bases = _placement_structures()
    small = [s for s in bases if s.cat.n_morphisms <= 200]
    cases = [(s, True) for s in bases]
    for s in small:
        cases += [(c, False) for c in closed_cuts(s, 2, rng)]
    for s in small:
        if s.cat.n_morphisms <= 40:
            cases += [(m, False) for m in
                      single_entry_mutants(s, 3, rng, _passes_assumptions)]
    return cases


def test_placement_is_functorial_matches_the_all_pairs_reference(placement_cases):
    """placement_is_functorial is True exactly when the four conditions
    hold over every composable pair; on the stock structures, Gamma_3, VI#_2
    and their closed cuts it is True, and the tables fail check() on some
    mutants."""
    seen = set()
    for k, (s, stock) in enumerate(placement_cases):
        km = KernelModule(s)
        ref = _placement_reference(km)
        assert km.placement_is_functorial == all(ref), k
        seen.add(ref[0])
        assert all(ref) or not stock, k
    assert seen == {True, False}


def _swapped_blocks(km, rng):
    """A KernelModule of km's structure whose placement swaps two blocks of
    one object that have the same object, as block rows and as block
    columns: it stays functorial, and hat(x) is conjugated by a
    permutation, which the counit's components do not follow."""
    cat = km.structure.cat
    lins, cells = km.placement
    pairs = [(a, j, k) for a, lin in enumerate(lins)
             for j, k in itertools.combinations(range(len(lin)), 2)
             if cat.dom[lin[j]] == cat.dom[lin[k]]]
    a, j, k = rng.choice(pairs)

    def swap(x):
        return {j: k, k: j}.get(x, x)

    new = []
    for g in cat.morphisms():
        at_dom, at_cod = cat.dom[g] == a, cat.cod[g] == a
        rows = {}
        for i, row in cells[g]:
            for c, e in row:
                rows.setdefault(swap(i) if at_cod else i, []).append(
                    (swap(c) if at_dom else c, e))
        new.append(sorted((i, sorted(row)) for i, row in rows.items()))
    mutant = KernelModule(km.structure)
    mutant.__dict__["placement"] = (lins, new)
    return mutant


def test_placement_mutants_fail_the_check_or_keep_the_certificate():
    """Seeded single-cell mutants of the placement: each turns the check
    False, or else certifies exactly as the exhaustive walk does.  Each of
    the endpoint, identity and composition conditions fails on some
    mutant.  Mutants that swap two blocks of one object keep the check
    True, and certify as the walk does."""
    rng = random.Random(17)
    failed = set()
    kept = 0
    for build, dims in ((lambda: build_fi_sharp(3), (1, 2, 1, 1)),
                        (lambda: build_delta_bt(4), (1, 2, 2, 1)),
                        (lambda: build_cube(2), (1, 1, 2)),
                        (lambda: build_par(build_flinj_input(2)), (1, 1, 1))):
        km = build_kernel_module(build())
        fs = [random_pointed_functor(km.d, dims, seed=s) for s in range(2)]
        for n in range(44):
            mutant = (_placement_mutant if n < 40 else _swapped_blocks)(km, rng)
            if mutant is None:
                continue
            ref = _placement_reference(mutant)
            assert mutant.placement_is_functorial == all(ref)
            failed |= {k for k, ok in enumerate(ref) if not ok}
            if not all(ref):
                continue
            kept += 1
            walked = KernelModule(km.structure)
            walked.__dict__.update(placement=mutant.placement,
                                   placement_is_functorial=False)
            names = ["f0", "f1"]
            assert (certify_equivalence(mutant, fs, names).to_jsonable()
                    == certify_equivalence(walked, fs, names).to_jsonable())
    assert failed == {1, 2, 3}
    assert kept >= 16


def test_reduced_counit_report_matches_the_walk_on_component_mutants():
    """The counit of seeded functors, with one entry of one component
    changed: along C's generators, validate gives the walk's report, since
    its source and target are functors whatever the components; both
    outcomes occur."""
    rng = random.Random(29)
    outcomes = set()
    for build, dims in ((lambda: build_fi_sharp(3), (2, 1, 1, 1)),
                        (lambda: build_delta_bt(5), (1, 2, 1, 2, 1)),
                        (lambda: build_cube(3), (1, 1, 2, 1)),
                        (lambda: build_par(build_finset_input(3)), (1, 1, 1, 1))):
        km = build_kernel_module(build())
        gens = km.structure.cat.generating_set()
        assert km.placement_is_functorial
        for seed in range(3):
            t = hat(km, random_pointed_functor(km.d, dims, seed=seed))
            sub = tilde_subspaces(km, t)
            comps = counit_with(km, t, sub)
            hft = hat(km, tilde(km, t, sub))
            for _ in range(4):
                a = rng.choice([a for a, c in enumerate(comps) if c.nrows and c.ncols])
                c = comps[a]
                i, j = rng.randrange(c.nrows), rng.randrange(c.ncols)
                rows = [[Fraction(x, c.den) for x in row] for row in c.rows]
                rows[i][j] += rng.choice((-1, 1, Fraction(1, 2)))
                mutant = list(comps)
                mutant[a] = QMat.from_rows(rows, c.ncols)
                eps = NatTransform(hft, t, mutant)
                full = eps.validate()
                assert eps.validate(gens).to_jsonable() == full.to_jsonable()
                outcomes.add(full.ok)
            assert NatTransform(hft, t, comps).validate(gens).ok
    assert outcomes == {True, False}


def test_hat_builds_only_the_matrices_read(km_fi4, monkeypatch):
    """hat assembles a matrix on its first read and keeps it; certifying
    the benchmark's first fi_sharp 4 functor reads 86 of hat(f)'s 499
    matrices and 32 of hat(tilde(hat f))'s, and checks the counit on the 10
    generators' squares.  Copying the table reads every matrix, and ids
    that are not morphisms are not keys."""
    from dkequiv import equivalence

    km = km_fi4
    f = random_pointed_functor(km.d, (3, 3, 0, 2, 3), seed=random.Random(0).randrange(2 ** 30))
    t = hat(km, f)
    assert t.mats._built == {}
    m = t.mats[7]
    assert t.mats._built == {7: m} and t.mats[7] is m
    for bad in (-1, 499, "7"):
        assert bad not in t.mats
    assert len(dict(t.mats)) == len(t.mats) == 499
    built = []
    real_hat = equivalence.hat

    def spying_hat(km_, g):
        out = real_hat(km_, g)
        built.append(out.mats._built)
        return out

    monkeypatch.setattr(equivalence, "hat", spying_hat)
    assert equivalence.certify_functor(km, f, "f").ok
    assert [len(b) for b in built] == [86, 32]
    assert len(km.structure.cat.generating_set()) == 10


# sha256 of json.dumps(certify_equivalence(...).to_jsonable(), sort_keys=True),
# recorded while the counit and the functor laws were walked at every
# morphism and every composable pair
CERTIFICATE_DIGESTS = {
    "fi_sharp_4": "9aa35cf5f37d060669ec2efdd0b910a571d0c0e04c53525f2015ed3f1542f4ee",
    "delta_bt_6": "4e5661fb9f0072fd514152a0286421dacc313aad0f5f21d20a7c322221a22c4e",
    "cube_3": "b232ff3104066902accb6d8d40116490096b51be78adf7ecd575723897489f4a",
    "gamma_3": "b232ff3104066902accb6d8d40116490096b51be78adf7ecd575723897489f4a",
    "vi_sharp_2": "b1c043b8f5794cb91bbc558401988c25339089844661c63850a7b60f6bc7896d",
    "failing": "5fe6ab344e7aee7a67ac52a74b7dd271efaf0b69602dfeca9675ccbcec33f17b",
    "counit_bumped_hft": "360b945391b2b87e480e9c5f5080de0b255a62a8fb0db47674efb12b9c4672d9",
    "triangle_bumped_t": "2e0e5219e40f9e2883750878305a9f16ca1a867f3e9959c3858fb9564a71dddb",
    "shapes_bumped_t": "d7109372716df8a1cefee7041e80121fc2dff4928e8b609ee7cc1502889df4e2",
}

GOOD_TAGS = {"fi_sharp_4", "delta_bt_6", "cube_3", "gamma_3", "vi_sharp_2"}

# failing cases with one entry of one hat output bumped by 1: (structure,
# dims, hat call (1 is t = hat f, 2 is hft = hat(tilde t)), morphism, row,
# column).  The first fails counit_natural only; the second counit_natural
# and triangle_hat; the third unit_invertible, counit_natural and
# counit_invertible, the components being of other shapes.
BUMPED_CASES = {
    "counit_bumped_hft": (lambda: build_fi_sharp(3), (1, 2, 1, 1), 2, 3, 0, 0),
    "triangle_bumped_t": (lambda: build_delta_bt(4), (1, 2, 2, 1), 1, 3, 0, 0),
    "shapes_bumped_t": (lambda: build_delta_bt(4), (1, 2, 2, 1), 1, 23, 2, 4),
}


def _changing_hat(call, g, change):
    """equivalence.hat, with change applied to morphism g's matrix in its
    call-th output."""
    from dkequiv import equivalence

    real_hat, calls = equivalence.hat, []

    def changed_hat(km, x):
        out = real_hat(km, x)
        calls.append(x)
        if len(calls) != call:
            return out
        return AdditiveFunctor(out.base, out.dims, {**out.mats, g: change(out.mats[g])})

    return changed_hat


def _bumping_hat(call, g, i, j):
    """equivalence.hat, with entry (i, j) of morphism g's matrix raised by 1
    in its call-th output."""
    def bump(m):
        return m + QMat(m.nrows, m.ncols, [((j, 1),) if r == i else ()
                                           for r in range(m.nrows)])

    return _changing_hat(call, g, bump)


def _zero(m):
    return QMat.zeros(m.nrows, m.ncols)


def _cli_functors(km, count, seed=0, dims_max=3):
    """The first count functors `dkequiv certify` draws at seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dims = tuple(rng.randrange(dims_max + 1)
                     for _ in range(km.structure.cat.n_objects))
        try:
            out.append(random_pointed_functor(km.d, dims, seed=rng.randrange(2 ** 30)))
        except InfeasibleRelations:
            continue
    return out


def _certificate_case(tag):
    """(kernel module, functors, names) of the pinned certificate tag."""
    if tag == "fi_sharp_4":
        km = build_kernel_module(build_fi_sharp(4))
        rng = random.Random(0)
        dims = ((3, 3, 0, 2, 3), (2, 3, 2, 1, 1), (1, 0, 2, 1, 2), (0, 2, 3, 0, 2),
                (2, 1, 3, 3, 2))
        return km, [random_pointed_functor(km.d, x, seed=rng.randrange(2 ** 30))
                    for x in dims], [f"seed0_{i}" for i in range(5)]
    if tag in BUMPED_CASES:
        build, dims = BUMPED_CASES[tag][:2]
        km = build_kernel_module(build())
        return km, [random_pointed_functor(km.d, dims, seed=3)], ["bumped"]
    if tag == "failing":
        # fi_sharp 3's irreducible 9, no generator of D, with one entry
        # bumped: the law report of the walk is the witness
        km = build_kernel_module(build_fi_sharp(3))
        f = random_pointed_functor(km.d, (2, 2, 2, 2), seed=3)
        assert 9 not in km.d.cat.generating_set(km.d.nonzero_morphisms())
        return km, [PointedFunctor(km.d, f.dims, {**f.mats, 9: _bump(f.mats[9])})], ["bad"]
    build = {"delta_bt_6": lambda: build_delta_bt(6), "cube_3": lambda: build_cube(3),
             "gamma_3": lambda: build_par(build_finset_input(3)),
             "vi_sharp_2": lambda: build_par(build_flinj_input(2))}[tag]
    km = build_kernel_module(build())
    return km, _cli_functors(km, 2), ["f0", "f1"]


@pytest.mark.parametrize("tag", sorted(CERTIFICATE_DIGESTS))
def test_certificate_bytes_are_pinned(tag, monkeypatch):
    from dkequiv import equivalence

    if tag in BUMPED_CASES:
        monkeypatch.setattr(equivalence, "hat", _bumping_hat(*BUMPED_CASES[tag][2:]))
    cert = certify_equivalence(*_certificate_case(tag))
    assert cert.ok == (tag in GOOD_TAGS)
    text = json.dumps(cert.to_jsonable(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_DIGESTS[tag]


def _invertibility_cases():
    """(km, f, patches) for each entry of the pinned certificates, and for
    delta_bt 4 and fi_sharp 3 with t = hat f made zero at one morphism."""
    for tag in sorted(CERTIFICATE_DIGESTS):
        km, fs, _ = _certificate_case(tag)
        patch = BUMPED_CASES.get(tag)
        for f in fs:
            yield km, f, {"hat": _bumping_hat(*patch[2:])} if patch else {}
    for build, n, dims in ((build_delta_bt, 4, (1, 2, 2, 1)), (build_fi_sharp, 3, (1, 2, 1, 1))):
        km = build_kernel_module(build(n))
        f = random_pointed_functor(km.d, dims, seed=3)
        for g in km.structure.cat.morphisms():
            yield km, f, {"hat": _changing_hat(1, g, _zero)}


def test_invertibility_from_shapes_and_triangles_matches_is_iso(monkeypatch):
    """certify_functor decides unit_invertible by the components' shapes,
    and counit_invertible by the triangle at each object, with a rank only
    where that triangle fails; both agree with NatTransform.is_iso on every
    entry that builds the two, and every branch is taken."""
    seen_outcomes = set()
    for km, f, patches in _invertibility_cases():
        seen, entry = _validated(km, f, monkeypatch, **patches)
        if not seen:  # f fails its laws, or tilde(t) does not restrict
            assert "error" in entry.witness
            assert not (entry.unit_invertible or entry.counit_invertible)
            continue
        (eta, _), (eps, _) = seen
        assert entry.unit_invertible == eta.is_iso()
        assert entry.counit_invertible == eps.is_iso()
        seen_outcomes.add((entry.unit_invertible, entry.triangle_hat,
                           entry.counit_invertible))
    assert {(False, True, False), (True, True, True), (True, False, True),
            (True, False, False)} <= seen_outcomes


@pytest.mark.parametrize("build, n, dims, failing", [
    (build_delta_bt, 4, (1, 2, 2, 1), 3), (build_fi_sharp, 3, (1, 2, 1, 1), 6)])
def test_a_counit_that_does_not_restrict_fails_triangle_tilde(build, n, dims, failing,
                                                              monkeypatch):
    """hat(tilde(hat f)) made zero at one non-identity retraction: at 3 of
    delta_bt 4's 4 retractions and 6 of fi_sharp 3's 20 a counit component
    then does not carry the kernel intersections of hft into those of t.
    The entry fails triangle_tilde, with the witness of the counit's
    failing square; with every naturality report forced to pass, the
    witness names the first object at which the counit does not restrict."""
    from dkequiv import equivalence
    from dkequiv.exactlin import RestrictionError
    from dkequiv.fincat import ValidationReport

    km = build_kernel_module(build(n))
    s = km.structure
    f = random_pointed_functor(km.d, dims, seed=3)
    real_restrict, raised = equivalence.restrict, []

    def spying_restrict(m, dom, cod):
        try:
            return real_restrict(m, dom, cod)
        except RestrictionError:
            raised.append(m)
            raise

    retractions = sorted({s.star[m] for m in s.m_class if not s.cat.is_identity(m)})
    named = []
    for r in retractions:
        for forced in (False, True):
            raised.clear()
            monkeypatch.setattr(equivalence, "restrict", spying_restrict)
            monkeypatch.setattr(equivalence, "hat", _changing_hat(2, r, _zero))
            if forced:
                monkeypatch.setattr(NatTransform, "validate",
                                    lambda self, along=None: ValidationReport())
            entry = equivalence.certify_functor(km, f, "zeroed")
            monkeypatch.undo()
            assert entry.triangle_tilde == (not raised)
            if not forced:
                assert not entry.ok and not entry.counit_natural
                assert list(entry.witness) == ["counit"]
            elif raised:
                named.append(entry.witness)
            else:
                assert entry.ok and entry.witness is None
    assert len(named) == failing
    assert all(w == {"triangle_tilde": {"message": "counit does not restrict",
                                        "object": w["triangle_tilde"]["object"]}}
               for w in named)
