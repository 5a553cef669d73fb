"""The transport engine between the two functor categories.

The kernel module tabulates, for each pair of objects, the pointed set of
morphisms whose non-embedding part is irreducible, with its two-sided
action.  From it the two transports are built combinatorially:

  hat   takes a pointed functor on the zero-completion to an ordinary
        functor, with value at B the direct sum over the subobject classes
        of B and block action read off from the three-part factorization;

  tilde takes an ordinary functor to a pointed one, with value at A the
        intersection of the kernels of the retractions of the proper
        subobjects of A, and action by restriction.

unit/counit/certify check constructively, per tested functor, that the two
transports are mutually inverse up to natural isomorphism; theta_matrix
builds the triangular coproduct-to-product comparison used to prove it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from functools import cached_property
from math import lcm

from .exactlin import (
    QMat,
    RestrictionError,
    Subspace,
    block,
    direct_sum,
    restrict,
)
from .fincat import group_by, outside_composites, outside_is_stable
from .functors import AdditiveFunctor, NatTransform, PointedFunctor
from .structure import MRStructure, build_d_cat


class TransportError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TriangularityError(TransportError):
    pass


class KernelModule:
    """Pointed-set bimodule of morphisms with irreducible non-embedding part;
    its laws are checked by validate(), not on construction."""

    def __init__(self, structure: MRStructure):
        self.structure = structure
        self.d = build_d_cat(structure)
        cat = structure.cat
        structure.parts  # precompute factorizations
        self.elements = {(a, b): [u for u in cat.hom(a, b) if structure.s_in_r(u)]
                         for a in cat.objects() for b in cat.objects()}

    def validate(self):
        """Bimodule-law check; reports every violated instance.

        The general law factors through the identity laws, the two
        one-variable composition laws, and the interchange law; together
        these force the two-sided law for arbitrary composites.  The
        identity and contravariant laws are walked over every instance.
        The covariant law is walked only when _right_law_holds cannot vouch
        for it, and the interchange law only when, besides,
        _interchange_holds cannot; both read the one set
        X = (C o E) - E.  So the problem list is always the walk's.
        """
        s = self.structure
        cat = s.cat
        comp = cat.comp
        s_in_r = s.parts.s_in_r
        # the action's value at a composite w: w itself, or the basepoint
        kept = [w if ok else None for w, ok in enumerate(s_in_r)]
        rset = s.r_class
        problems = []

        elems = list(itertools.chain.from_iterable(self.elements.values()))
        inside = set(elems)
        outside = outside_composites(cat, cat.outof, inside)
        elems_by_dom = group_by(elems, cat.dom)
        elems_by_cod = group_by(elems, cat.cod)

        # identity actions
        for (a, b), us in sorted(self.elements.items()):
            ia, ib = cat.identity(a), cat.identity(b)
            for u in us:
                if kept[comp[ib][comp[u][ia]]] != u:
                    problems.append(("identity", u))

        r_sorted = sorted(rset)
        r_by_cod = group_by(r_sorted, cat.cod)

        # contravariant variable composed
        for r in r_sorted:
            a1, a = cat.dom[r], cat.cod[r]
            us = elems_by_dom.get(a, ())
            for r1 in r_by_cod.get(a1, ()):
                rr1 = comp[r][r1]
                rr1_in = rr1 in rset
                for u in us:
                    ur = comp[u][r]
                    step = kept[comp[ur][r1]] if s_in_r[ur] else None
                    whole = kept[comp[u][rr1]] if rr1_in else None
                    if step != whole:
                        problems.append(("left", r, r1, u))

        # covariant variable composed, walked unless _right_law_holds
        right_holds = self._right_law_holds(inside, outside)
        if not right_holds:
            for b, us in sorted(elems_by_cod.items()):
                for f in cat.outof[b]:
                    cf = comp[f]
                    tus = [(u, cf[u]) for u in us]
                    for f1 in cat.outof[cat.cod[f]]:
                        cf1 = comp[f1]
                        cff1 = comp[cf1[f]]
                        for (u, t) in tus:
                            step = kept[cf1[t]] if s_in_r[t] else None
                            if step != kept[cff1[u]]:
                                problems.append(("right", f, f1, u))

        # interchange of the two actions, walked unless _interchange_holds
        if right_holds and self._interchange_holds(inside, outside):
            return problems
        for r in r_sorted:
            a = cat.cod[r]
            for u in elems_by_dom.get(a, ()):
                ur = comp[u][r]
                ur_ok = s_in_r[ur]
                for f in cat.outof[cat.cod[u]]:
                    fu = comp[f][u]
                    both = kept[comp[f][ur]]
                    via_left = both if ur_ok else None
                    via_right = kept[comp[fu][r]] if s_in_r[fu] else None
                    if not (via_left == via_right == both):
                        problems.append(("interchange", r, f, u))
        return problems

    def _right_law_holds(self, inside, outside):
        """Whether cat.check() passes and every morphism maps X = outside =
        (C o E) - E into X, E being inside, the u with s_in_r[u], as
        outside_is_stable decides along generating_set().  Then the
        covariant law holds at every (f, f1, u): with the table associative,
        it holds when t = f o u is in E, and otherwise asks that
        f1 o t = (f1 o f) o u lie outside E.  When this is False, validate
        walks every instance, so its report is the walk's.
        """
        cat = self.structure.cat
        return cat.check().ok and outside_is_stable(
            cat, cat.generating_set(), outside, inside)

    def _interchange_holds(self, inside, outside):
        """Whether R lies in E = inside and no t in X = outside =
        (C o E) - E has t o r in E for an r in R into dom t.  When
        _right_law_holds is True, this holds exactly when the interchange
        law holds at every (r, f, u); otherwise validate walks every
        instance, so its report is the walk's.

        With the table associative, let w = f o u o r.  When w is not in E
        the walk's three values are all the basepoint, so the law holds; when
        w is in E it asks that u o r and f o u be in E.  If u o r is not in
        E, it is in X, as r is in E, and f maps X into X by _right_law_holds,
        so w is not in E.  If f o u is not in E, it is a t in X with
        t o r = w, which this test finds in E.  Conversely, a t = f o u in X
        (u in E) with t o r in E is a failing instance (r, f, u).
        """
        cat = self.structure.cat
        comp, rset = cat.comp, self.structure.r_class
        if not rset <= inside:
            return False
        r_by_cod = group_by(rset, cat.cod)
        return not any(comp[t][r] in inside
                       for t in outside for r in r_by_cod.get(cat.dom[t], ()))

    @cached_property
    def placement(self):
        """hat's block layout, which no functor changes: the subobject
        linearization of each object, and for each morphism g: a -> b the
        blocks of hat(f)(g) that may be nonzero, as (block row, [(block
        column, D-morphism), ...]) by ascending row and column.  Block
        column j is the j-th class m of a; when g o m has an irreducible
        non-embedding part it holds f of that part, at the block row of its
        embedding part.  Built on hat's first call."""
        s = self.structure
        cat = s.cat
        r_to_d = self.d.r_to_d
        lins = [s.sub_poset(a).linearization for a in cat.objects()]
        index = [{rep: k for k, rep in enumerate(lin)} for lin in lins]
        cells = []
        for g in cat.morphisms():
            rows = {}
            for j, m in enumerate(lins[cat.dom[g]]):
                u = cat.comp[g][m]
                if s.s_in_r(u):
                    rows.setdefault(index[cat.cod[g]][s.m_part(u)], []).append(
                        (j, r_to_d[s.s_part(u)]))
            cells.append(sorted(rows.items()))
        return lins, cells

    @cached_property
    def placement_is_functorial(self):
        """Whether placement composes like a functor, so that hat(x) is a
        functor for every pointed functor x on self.d that passes its laws.
        False unless cat.check() and d.cat.check() pass.

        Write P_g for the pattern of g: a -> b, sending block column j of a
        to (block row i of b, D-morphism e) for each cell of placement, and
        nothing else.  First, each e must run from the object of block j to
        that of block i; then hat(x)(g) is the block matrix with x(e) at
        (i, j) for each j -> (i, e), and zero blocks elsewhere.  Its product
        hat(x)(g2) hat(x)(g1) has block (k, j) = x(e2) x(e1) when
        P_g1(j) = (i, e1) and P_g2(i) = (k, e2), and zero otherwise, and
        x(e2) x(e1) = x(e2 o e1), which is zero when e2 o e1 is a formal
        zero.  So hat(x) sends g2 o g1 to that product, for every x, when
        P_{g2 o g1} = P_g2 . P_g1, the pattern j -> (k, e2 o e1) that drops
        j when e2 o e1 is a zero; and it sends id_a to the identity when
        P_{id_a} sends each j to (j, the identity of D at block j's object).

        The identities are tested, and the composed pattern only for g2 in
        cat.generating_set() and every g1 into dom g2.  '.' is associative:
        (P_a . P_b) . P_c and P_a . (P_b . P_c) both send j to
        (l, e3 o e2 o e1) when the three steps are defined and that
        composite is not a zero, and drop j otherwise, since D's table is
        associative and its zeros absorb (DCat's keys).  Call a good when
        P_{a o c} = P_a . P_c for every c into dom a.  Identities are good
        by the unit laws of C and D.  If a and b are good,
        P_{(a o b) o c} = P_{a o (b o c)} = P_a . (P_b . P_c) =
        (P_a . P_b) . P_c = P_{a o b} . P_c, so a o b is good; so, by the
        lemma in FinCat.generating_set, every morphism is good when every
        generator is.  The patterns are tuples over block columns, built
        for this test only, that share one tuple per (i, e): with a tuple
        per cell, this test was the certify benchmark's peak of memory.
        """
        cat, dcat = self.structure.cat, self.d.cat
        if not (cat.check().ok and dcat.check().ok):
            return False
        lins, cells = self.placement
        blocks = [[cat.dom[rep] for rep in lin] for lin in lins]
        pats, pairs = [], {}
        for g, g_cells in enumerate(cells):
            frm, to = blocks[cat.dom[g]], blocks[cat.cod[g]]
            pat = [None] * len(frm)
            for i, row in g_cells:
                for j, e in row:
                    if dcat.dom[e] != frm[j] or dcat.cod[e] != to[i]:
                        return False
                    pat[j] = pairs.setdefault((i, e), (i, e))
            pats.append(tuple(pat))
        if any(pats[cat.identity(a)] != tuple(enumerate(map(dcat.identity, objs)))
               for a, objs in enumerate(blocks)):
            return False
        nonzero = self.d.n_nonzero
        for g2 in cat.generating_set():
            # per block row i of dom g2: (block row k, D's row of e2) or None
            step = [c and (c[0], dcat.comp[c[1]]) for c in pats[g2]]
            row = cat.comp[g2]
            for g1 in cat.into[cat.dom[g2]]:
                composed = tuple([
                    None if c is None or (st := step[c[0]]) is None
                    or (e := st[1][c[1]]) >= nonzero else (st[0], e)
                    for c in pats[g1]])
                if composed != pats[row[g1]]:
                    return False
        return True


def build_kernel_module(s: MRStructure, validate=True) -> KernelModule:
    """The kernel module of s; with validate, an AssertionError names the
    first bimodule-law failures."""
    km = KernelModule(s)
    if validate:
        problems = km.validate()
        if problems:
            # explicit, so that python -O keeps the check; AssertionError
            # is the type callers (perfbench's axioms workload) catch
            raise AssertionError(f"bimodule law failures: {problems[:3]}")
    return km


# -- the two transports ------------------------------------------------------


def hat(km: KernelModule, f: PointedFunctor) -> AdditiveFunctor:
    """Left transport: direct sums over subobject classes, block action from
    the three-part factorization of (morphism o subobject).

    The matrix of g is assembled from km.placement when it is first read,
    as block() would assemble it, and equals block()'s.  Every matrix of f
    is scaled to den, the lcm of f's denominators, and each (D-morphism,
    column offset) is shifted once.  Row r of block row i joins row r of
    the shifted blocks of that row by ascending block column, over den; a
    zero block adds nothing to it, and the rows of block rows with no block
    are empty.  These are the entries block() stores, by ascending column,
    over den rather than the lcm of the dens of the blocks used, which
    divides it.  QMat() divides both by their gcd with the entries, which
    leaves the one canonical form of the matrix, so the two are equal.
    """
    s = km.structure
    cat = s.cat
    d = km.d
    assert f.d is km.d or f.d.cat.n_objects == cat.n_objects

    lins, cells = km.placement
    offsets = [[0, *itertools.accumulate(f.dims[cat.dom[rep]] for rep in lin)]
               for lin in lins]
    f_mats = dict(f.mats)
    den = lcm(*(m.den for m in f_mats.values()))
    shifted = {}

    def rows_of(dm, c0):
        out = shifted.get((dm, c0))
        if out is None:
            m = f_mats[dm]
            assert m.shape == (f.dims[d.cat.cod[dm]], f.dims[d.cat.dom[dm]])
            k = den // m.den
            out = shifted[(dm, c0)] = m.sparse if c0 == 0 and k == 1 else [
                tuple([(c0 + c, x * k) for c, x in row]) for row in m.sparse]
        return out

    def matrix(g):
        rows0, cols0 = offsets[cat.cod[g]], offsets[cat.dom[g]]
        rows = [()] * rows0[-1]
        for i, row_cells in cells[g]:
            parts = [rows_of(dm, cols0[j]) for j, dm in row_cells]
            rows[rows0[i]:rows0[i + 1]] = (
                parts[0] if len(parts) == 1 else [sum(r, ()) for r in zip(*parts)])
        return QMat(rows0[-1], cols0[-1], rows, den)

    out = AdditiveFunctor(cat, [o[-1] for o in offsets], {})
    out.mats = HatMats(km, f, matrix)
    return out


class HatMats(Mapping):
    """The matrices of hat(km, f) by morphism id, each assembled on its
    first read and kept; km and f are kept too, so that certify_functor can
    tell a functor that hat assembled from km.placement.  Read-only."""

    def __init__(self, km, f, matrix):
        self.km, self.f = km, f
        self._matrix, self._built = matrix, {}

    def __getitem__(self, g):
        m = self._built.get(g)
        if m is None:
            if g not in self.km.structure.cat.morphisms():
                raise KeyError(g)
            m = self._built[g] = self._matrix(g)
        return m

    def __iter__(self):
        return iter(self.km.structure.cat.morphisms())

    def __len__(self):
        return self.km.structure.cat.n_morphisms


def tilde_subspaces(km: KernelModule, t: AdditiveFunctor):
    """Per object, the intersection of the kernels of the retractions of its
    proper subobject classes, taken as one kernel of the stacked matrices."""
    s = km.structure
    cat = s.cat
    out = []
    for a in cat.objects():
        poset = s.sub_poset(a)
        mats = [t.mats[s.star[rep]] for rep in poset.proper()]
        if not mats:
            out.append(Subspace.full(t.dims[a]))
        else:
            stacked = block([m.nrows for m in mats], [t.dims[a]],
                            {(i, 0): m for i, m in enumerate(mats)})
            out.append(stacked.kernel())
    return out


def tilde(km: KernelModule, t: AdditiveFunctor, subspaces=None) -> PointedFunctor:
    """Right transport: kernel intersections, with action by restriction.

    A restriction failure means the input is not actually functorial for
    the structure and is raised with a witness, never patched over.
    """
    s = km.structure
    cat = s.cat
    d = km.d
    if subspaces is None:
        subspaces = tilde_subspaces(km, t)
    dims = [v.dim for v in subspaces]
    mats = {}
    for dr in d.nonzero_morphisms():
        r = d.d_to_r[dr]
        a, b = cat.dom[r], cat.cod[r]
        try:
            mats[dr] = restrict(t.mats[r], subspaces[a], subspaces[b])
        except RestrictionError as e:
            raise TransportError(
                f"restriction failed along {cat.mor_labels[r]}: {e}",
                witness={"morphism": r, "label": cat.mor_labels[r]},
            ) from e
    return PointedFunctor(d, dims, mats)


def unit(km: KernelModule, f: PointedFunctor) -> NatTransform:
    """f => tilde(hat(f)), not yet validated."""
    t = hat(km, f)
    subspaces = tilde_subspaces(km, t)
    return NatTransform(f, tilde(km, t, subspaces), unit_with(km, f, subspaces))


def unit_with(km: KernelModule, f: PointedFunctor, subspaces):
    """The unit's components: the inclusion into the whole-object summand of
    hat(f), in the bases of subspaces, the kernel intersections of hat(f)."""
    s = km.structure
    cat = s.cat
    comps = []
    for a in cat.objects():
        # the whole object's summand is the last: top() ends the linearization
        poset = s.sub_poset(a)
        w = f.dims[cat.dom[poset.top()]]
        rest = sum(f.dims[cat.dom[rep]] for rep in poset.proper())
        inj = block([rest, w], [w], {(1, 0): QMat.identity(w)})
        try:
            comps.append(subspaces[a].coordinates(inj))
        except RestrictionError:
            raise TransportError(
                "whole-object inclusion does not land in the kernel "
                f"intersection at object {a}",
                witness={"object": a},
            ) from None
    return comps


def counit_with(km: KernelModule, t: AdditiveFunctor, subspaces):
    """The counit's components: on the summand of a subobject class, the
    subobject after the inclusion of subspaces, the kernel intersections of t."""
    s = km.structure
    cat = s.cat
    comps = []
    for b in cat.objects():
        cols = [t.mats[rep].mul(subspaces[cat.dom[rep]].basis)
                for rep in s.sub_poset(b).linearization]
        comps.append(block([t.dims[b]], [c.ncols for c in cols],
                           {(0, j): c for j, c in enumerate(cols)}))
    return comps


# -- triangular comparison ----------------------------------------------------


def theta_matrix(km: KernelModule, t: AdditiveFunctor, a) -> QMat:
    """Coproduct-to-product comparison at the object a for a functor with
    values on the embeddings: block (row V, column U) is t of
    star(n_V) o m_U when that composite is an embedding, else zero.

    Blocks are indexed by the subobject linearization, whole object first,
    which makes the matrix block upper-triangular with identity diagonal;
    a violation raises TriangularityError.  The diagonal composite
    star(n) o n is an identity, so every diagonal block is checked.
    """
    s = km.structure
    cat = s.cat
    order = list(reversed(s.sub_poset(a).linearization))
    blocks = {}
    for i, n in enumerate(order):
        for j, m in enumerate(order):
            comp = cat.comp[s.star[n]][m]
            if comp not in s.m_class:
                continue
            blk = t.mats[comp]
            if i == j and not blk.is_identity():
                raise TriangularityError(
                    f"diagonal block at class {n} of object {a} is not the identity",
                    witness={"object": a, "n": n, "m": m},
                )
            if i > j and not blk.is_zero():
                raise TriangularityError(
                    f"block below the diagonal at ({n}, {m}) of object {a} "
                    "is nonzero",
                    witness={"object": a, "n": n, "m": m},
                )
            blocks[(i, j)] = blk
    widths = [t.dims[cat.dom[rep]] for rep in order]
    return block(widths, widths, blocks)


# -- certification ---------------------------------------------------------------


@dataclass
class CertificateEntry:
    name: str
    dims: list
    hat_dims: list
    tilde_hat_dims: list
    unit_natural: bool
    unit_invertible: bool
    counit_natural: bool
    counit_invertible: bool
    triangle_hat: bool
    triangle_tilde: bool
    witness: object = None

    @property
    def ok(self):
        return (self.unit_natural and self.unit_invertible
                and self.counit_natural and self.counit_invertible
                and self.triangle_hat and self.triangle_tilde
                and self.dims == self.tilde_hat_dims)

    def to_jsonable(self):
        return {**asdict(self),
                "roundtrip_dims_equal": self.dims == self.tilde_hat_dims,
                "ok": self.ok}


@dataclass
class EquivalenceCertificate:
    entries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def first_failure(self):
        for e in self.entries:
            if not e.ok:
                return e
        return None

    def to_jsonable(self):
        return {"entries": [e.to_jsonable() for e in self.entries], "ok": self.ok}


def certify_functor(km: KernelModule, f: PointedFunctor, name) -> CertificateEntry:
    """Both roundtrips and both triangle identities for one pointed functor
    f, computing each transport once: t = hat(f), its kernel intersections
    sub_t, ft = tilde(t), hft = hat(ft) and hft's kernel intersections
    sub_hft.  f must first pass its functor laws; if it does not, the entry
    fails with the law report as its witness.  The unit eta: f => ft and the
    counit eps: hft => t must be natural isomorphisms.  The triangles are
    products of components that must be identities: eps_b after the direct
    sum of eta over b's subobject classes, and eps_a restricted to
    sub_hft_a -> sub_t_a after the unit at ft; an eps_a that does not
    restrict fails the second.

    Invertibility needs no rank but where the first triangle fails.  The
    unit: sub_t_a's basis times eta_a is [0; I_w], of rank w, the columns
    of eta_a, so eta_a is invertible exactly when it is square.  The
    counit: a square eps_b with eps_b (+ eta) = I has a right inverse, so
    it is invertible.

    The counit's squares are tested along cat.generating_set() first when
    t and hft were assembled by hat from km.placement out of f and ft,
    pointed functors on km.d, the placement is functorial and ft, like f,
    passes its laws: then t and hft are functors (placement_is_functorial),
    and NatTransform.validate's proof applies.  Otherwise, and on any
    failing square, every square is walked.

    tilde(hft) is not built.  It would only check that hft(r) restricts to
    sub_hft for every irreducible r, and that check decides no entry:
      - counit natural and invertible: hft(g) = eps_b^-1 t(g) eps_a for
        g: a -> b, so K^hft_a = eps_a^-1 K^t_a, and hft(r) restricts exactly
        when t(r) does, which tilde(t) has already checked;
      - otherwise: the entry already fails.
    """
    s = km.structure
    cat = s.cat
    witness = None
    laws = f.validate()
    if not laws.ok:
        return CertificateEntry(
            name, list(f.dims), [], [], False, False, False, False, False,
            False, witness={"error": "input functor invalid",
                            "detail": laws.to_jsonable()},
        )
    t = hat(km, f)
    sub_t = tilde_subspaces(km, t)
    try:
        ft = tilde(km, t, sub_t)
        eta = NatTransform(f, ft, unit_with(km, f, sub_t))
        eta_rep = eta.validate()
        unit_natural = eta_rep.ok
        if not unit_natural:
            witness = {"unit": eta_rep.to_jsonable()["law"][:1]}
        unit_invertible = all(c.nrows == c.ncols for c in eta.components)
        hft = hat(km, ft)
        eps = NatTransform(hft, t, counit_with(km, t, sub_t))
        eps_rep = eps.validate(cat.generating_set() if (
            _assembled(km, f, t) and _assembled(km, ft, hft)
            and km.placement_is_functorial and ft.validate().ok) else None)
        counit_natural = eps_rep.ok
        if not counit_natural and witness is None:
            witness = {"counit": eps_rep.to_jsonable()["law"][:1]}
        # (counit at hat f) o (hat of unit) must be the identity of hat f
        tri_hat_at = [
            eps.components[b].mul(direct_sum(*[
                eta.components[cat.dom[rep]]
                for rep in s.sub_poset(b).linearization
            ])).is_identity()
            for b in cat.objects()
        ]
        tri_hat = all(tri_hat_at)
        counit_invertible = all(
            e.nrows == e.ncols and (ok or e.rank() == e.nrows)
            for e, ok in zip(eps.components, tri_hat_at))
        # (tilde of counit) o (unit at tilde hat f) must be the identity
        sub_hft = tilde_subspaces(km, hft)
        eta_ft = unit_with(km, ft, sub_hft)
        tri_tilde = True
        for a, (e, u) in enumerate(zip(eps.components, eta_ft)):
            try:
                tri_tilde = restrict(e, sub_hft[a], sub_t[a]).mul(u).is_identity()
            except RestrictionError:
                tri_tilde = False
                witness = witness or {"triangle_tilde": {
                    "message": "counit does not restrict", "object": a}}
            if not tri_tilde:
                break
    except TransportError as e:
        return CertificateEntry(
            name, list(f.dims), list(t.dims), [], False, False, False, False,
            False, False, witness={"error": str(e), "detail": e.witness},
        )
    return CertificateEntry(
        name, list(f.dims), list(t.dims), list(ft.dims), unit_natural,
        unit_invertible, counit_natural, counit_invertible, tri_hat, tri_tilde,
        witness,
    )


def _assembled(km, x, y):
    """Whether y is hat(km, x), as hat assembles it from km.placement, and
    x a pointed functor on km.d."""
    return (type(y.mats) is HatMats and y.mats.km is km and y.mats.f is x
            and x.d is km.d)


def certify_equivalence(km: KernelModule, pointed_functors,
                        names) -> EquivalenceCertificate:
    """Certificate over a family of test functors, the entry for the i-th
    named names[i]; an empty family yields a vacuous (passing) certificate."""
    cert = EquivalenceCertificate()
    for i, f in enumerate(pointed_functors):
        cert.entries.append(certify_functor(km, f, names[i]))
    return cert
