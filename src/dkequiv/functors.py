"""Matrix-valued functors on a finite category and on its zero-completion.

An AdditiveFunctor assigns a dimension to every object and an exact rational
matrix to every morphism of a FinCat; a PointedFunctor does the same on a
zero-completed category, sending the formal zeros to zero matrices.  Both
are validated with the report of the exhaustive walk.  Random pointed
functors are generated from a library of structurally-correct atoms and a
seeded change of basis, so the generator can never emit an invalid functor.
"""

from __future__ import annotations

import random

from .exactlin import QMat
from .fincat import FinCat, ValidationReport
from .structure import DCat


class FunctorError(Exception):
    pass


class InfeasibleRelations(FunctorError):
    """The requested dimension vector cannot be realized soundly."""


def _functor_laws(functor, is_zero, gens=None) -> ValidationReport:
    """The functor laws, in report order: every stored matrix present with
    the right shape; then identities sent to identities; then, for every
    stored g and every f into its domain that is not a formal zero, the
    composite g o f sent to the product of their matrices, or to zero when
    is_zero(g o f).

    gens, when not None, is a generating set of the stored morphisms of a
    base whose table passes check(), and the composites are then tested
    first only at the g in gens; any failure there, or of an identity,
    walks every g, so the report is always the walk's.  Extend the functor
    F by F(z) = 0 at each formal zero z, which absorbs under composition;
    then the law at (g, f) reads F(g o f) = F(g) F(f), and holds trivially
    when g or f is a zero.  Call g good when it holds at (g, f) for every f
    into dom g.  As F sends identities to identities, which is tested
    first, each identity is good by the unit law.  If a and b are good and
    a o b is defined, then for every f into dom b, F((a o b) o f) =
    F(a o (b o f)) = F(a) F(b o f) = F(a) F(b) F(f) = F(a o b) F(f), by
    associativity and then by a, b and a being good; so a o b is good.  So,
    by the lemma in FinCat.generating_set, every stored g is good when
    every g in gens is.
    """
    rep = ValidationReport()
    base, mats, dims = functor.base, functor.mats, functor.dims
    for f in functor.morphisms():
        m = mats.get(f)
        if m is None:
            rep.add_structural("missing matrix", morphism=f)
        elif m.shape != (dims[base.cod[f]], dims[base.dom[f]]):
            rep.add_structural(
                "matrix shape mismatch", morphism=f, shape=list(m.shape)
            )
    if not rep.ok:
        return rep
    for a in base.objects():
        if not mats[base.identity(a)].is_identity():
            rep.add_law("identity not sent to identity", object=a)
    if (not rep.law and gens is not None
            and next(_composition_failures(functor, is_zero, gens), None) is None):
        return rep
    for message, g, f in _composition_failures(functor, is_zero,
                                               functor.morphisms()):
        rep.add_law(message, g=g, f=f)
    return rep


def _composition_failures(functor, is_zero, middles):
    """(message, g, f) for each g in middles, in order, and each f into
    dom g that is not a formal zero, in id order, at which g o f is not
    sent to the product of the matrices of g and f."""
    base, mats = functor.base, functor.mats
    for g in middles:
        mg = mats[g]
        for f in base.into[base.dom[g]]:
            if is_zero(f):
                continue
            h = base.comp[g][f]
            prod = mg.mul(mats[f])
            if is_zero(h):
                if not prod.is_zero():
                    yield "zero composite not sent to zero", g, f
            elif mats[h] != prod:
                yield "composition not preserved", g, f


def _dims(dims, base: FinCat) -> tuple:
    """dims as a tuple, if it holds one non-negative integer per object of
    base; a ValueError otherwise."""
    dims = tuple(dims)
    if len(dims) != base.n_objects or not all(
        type(x) is int and x >= 0 for x in dims
    ):
        raise ValueError(
            f"dims: need {base.n_objects} non-negative integers, one per object"
        )
    return dims


def _jsonable_parts(data, kind, base: FinCat):
    """(dims, {morphism id: matrix JSON}) of a functor in the form
    to_jsonable writes, its kind checked; a ValueError names the field that
    is not of that form."""
    if data["kind"] != kind:
        raise ValueError(f"kind: {data['kind']!r}, not {kind!r}")
    dims = _dims(data["dims"], base)
    mats = data["mats"]
    if type(mats) is not dict:
        raise ValueError("mats: not a map from morphism ids to matrices")
    return dims, {int(k): v for k, v in mats.items()}


class AdditiveFunctor:
    def __init__(self, base: FinCat, dims, mats):
        self.base = base
        self.dims = _dims(dims, base)
        self.mats = dict(mats)

    def morphisms(self):
        """The morphisms carrying a stored matrix: all of them."""
        return self.base.morphisms()

    def validate(self) -> ValidationReport:
        """Functor-law check: shapes, identities, all composites; the
        composites along generating_set() when the base passes check()."""
        base = self.base
        return _functor_laws(self, lambda f: False,
                             base.generating_set() if base.check().ok else None)

    def to_jsonable(self, category=None):
        return {
            "kind": "additive",
            "category": category,
            "dims": list(self.dims),
            "mats": {str(f): self.mats[f].to_jsonable() for f in sorted(self.mats)},
        }

    @classmethod
    def from_jsonable(cls, base: FinCat, data):
        dims, raw = _jsonable_parts(data, "additive", base)
        mats = {}
        for f, v in raw.items():
            if not 0 <= f < base.n_morphisms:
                raise ValueError(f"mats: {f} is not a morphism")
            mats[f] = QMat.from_jsonable(v, ncols=dims[base.dom[f]])
        return cls(base, dims, mats)

    def __repr__(self):
        return f"AdditiveFunctor(dims={list(self.dims)})"


class PointedFunctor:
    """Functor on a zero-completed category; zeros are implicit zero matrices."""

    def __init__(self, d: DCat, dims, mats):
        self.d = d
        self.base = d.cat
        self.dims = _dims(dims, d.cat)
        self.mats = dict(mats)  # keyed by nonzero morphism of d.cat

    def morphisms(self):
        """The morphisms carrying a stored matrix: the nonzero ones."""
        return self.d.nonzero_morphisms()

    def validate(self) -> ValidationReport:
        """Functor-law check including zero-composites falling to zero; the
        composites along a generating set of the nonzero morphisms when the
        zero-completion's table passes check()."""
        d = self.d
        return _functor_laws(self, d.is_zero, d.cat.generating_set(
            d.nonzero_morphisms()) if d.cat.check().ok else None)

    def to_jsonable(self, category=None):
        return {
            "kind": "pointed",
            "category": category,
            "dims": list(self.dims),
            "mats": {
                str(self.d.d_to_r[f]): self.mats[f].to_jsonable()
                for f in sorted(self.mats)
            },
        }

    @classmethod
    def from_jsonable(cls, d: DCat, data):
        dims, raw = _jsonable_parts(data, "pointed", d.cat)
        mats = {}
        for r, v in raw.items():
            dm = d.r_to_d.get(r)
            if dm is None:
                raise ValueError(f"mats: {r} is not an irreducible morphism")
            mats[dm] = QMat.from_jsonable(v, ncols=dims[d.cat.dom[dm]])
        return cls(d, dims, mats)

    def __repr__(self):
        return f"PointedFunctor(dims={list(self.dims)})"


class NatTransform:
    """Object-indexed matrices between two functors on the same base."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = list(components)

    def validate(self, along=None) -> ValidationReport:
        """Component shapes, then the naturality square at every morphism
        carrying a matrix.  along, when not None, names morphisms at which
        the squares are tested first: the caller knows that the source F
        and the target G are functors, and that along, with the identities,
        generates every morphism.  Then the squares commute everywhere when
        they do at along.  Call g: a -> b good when eta_b F(g) = G(g) eta_a,
        eta being the components.  Identities are good, as F and G send
        them to identities.  If g and h are good and g o h is defined, then
        eta F(g o h) = eta F(g) F(h) = G(g) eta F(h) = G(g) G(h) eta =
        G(g o h) eta, so g o h is good (on a zero-completion, F and G send
        the zeros to zero, and zeros are good).  So, by the lemma in
        FinCat.generating_set, every morphism is good when every member of
        along is.  Any failing square walks every morphism, so the report
        is always the walk's.
        """
        rep = ValidationReport()
        base = self.source.base
        for a in base.objects():
            comp = self.components[a]
            want = (self.target.dims[a], self.source.dims[a])
            if comp.shape != want:
                rep.add_structural(
                    "component shape mismatch", object=a, shape=list(comp.shape)
                )
        if not rep.ok:
            return rep
        if along is not None and next(self._failing_squares(along), None) is None:
            return rep
        for f in self._failing_squares(self.source.morphisms()):
            rep.add_law("naturality square does not commute", morphism=f,
                        label=base.mor_labels[f])
        return rep

    def _failing_squares(self, morphisms):
        """The morphisms, in order, whose naturality square does not
        commute."""
        base, comps = self.source.base, self.components
        for f in morphisms:
            if (comps[base.cod[f]].mul(self.source.mats[f])
                    != self.target.mats[f].mul(comps[base.dom[f]])):
                yield f

    def is_iso(self) -> bool:
        for comp in self.components:
            if comp.nrows != comp.ncols:
                return False
            if comp.rank() != comp.nrows:
                return False
        return True

    def __repr__(self):
        return f"NatTransform({len(self.components)} components)"


def random_invertible(n, rng) -> tuple[QMat, QMat]:
    """Seeded unimodular matrix built from elementary row operations, and
    its inverse, built from the right: its columns cols take each inverse
    operation, col i -= k col j for rows[j] += k rows[i]."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cols = [row[:] for row in rows]
    for _ in range(2 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            rows[j] = [x + k * y for x, y in zip(rows[j], rows[i])]
            cols[i] = [x - k * y for x, y in zip(cols[i], cols[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
            cols[i], cols[j] = cols[j], cols[i]
        else:
            rows[i] = [-x for x in rows[i]]
            cols[i] = [-x for x in cols[i]]
    return QMat.from_rows(rows, n), QMat.from_rows(zip(*cols), n)


def _unit_atom_valid(d: DCat, c):
    """Whether the one-dimensional atom concentrated at c is a functor:
    no nonzero endomorphism of c may factor through another object or have
    a composite of endomorphisms fall to zero.  A composite with a zero is
    zero, so only the endomorphisms are filtered to the nonzero ones."""
    cat = d.cat
    endos = [u for u in cat.hom(c, c) if not d.is_zero(u)]
    if any(d.is_zero(cat.comp[v][u]) for u in endos for v in endos):
        return False
    return all(d.is_zero(cat.comp[v][u]) for u in cat.outof[c] if cat.cod[u] != c
               for v in cat.hom(cat.cod[u], c))


def random_pointed_functor(d: DCat, dims, seed) -> PointedFunctor:
    """Seed-deterministic pointed functor with the prescribed dimensions.

    Built as a direct sum of atoms (postcomposition modules and, where
    sound, one-dimensional units), conjugated by seeded invertible matrices
    at every object; the atoms satisfy every relation of the category by
    construction, so the output always validates.  Raises
    InfeasibleRelations when the dimension vector cannot be assembled from
    the available atoms, and a ValueError naming dims unless it holds one
    non-negative integer per object.
    """
    cat = d.cat
    dims = _dims(dims, cat)
    rng = random.Random(seed)

    # the basis of P_c at each object a: the nonzero morphisms c -> a
    proj = {c: [[u for u in cat.hom(c, a) if not d.is_zero(u)] for a in cat.objects()]
            for c in cat.objects()}
    unit_ok = {c: _unit_atom_valid(d, c) for c in cat.objects()}

    remaining = list(dims)
    atoms = []

    def fitting_projectives():
        out = []
        for c in cat.objects():
            vec = list(map(len, proj[c]))
            if any(vec) and all(v <= r for v, r in zip(vec, remaining)):
                out.append(c)
        return out

    def take_projective(c):
        atoms.append(("P", c))
        for a in cat.objects():
            remaining[a] -= len(proj[c][a])

    cands = fitting_projectives()
    while cands and rng.random() < 0.7:
        take_projective(rng.choice(cands))
        cands = fitting_projectives()
    # deterministic completion: coordinates whose unit atom is unsound must
    # be covered by projectives, the rest topped up with unit atoms
    while True:
        hard = [
            c for c in cat.objects() if remaining[c] > 0 and not unit_ok[c]
        ]
        if not hard:
            break
        pick = next(
            (c for c in fitting_projectives() if proj[c][hard[0]]),
            None,
        )
        if pick is None:
            raise InfeasibleRelations(
                f"cannot realize remaining dimension {remaining[hard[0]]} at "
                f"object {hard[0]} from the available atoms"
            )
        take_projective(pick)
    for c in cat.objects():
        while remaining[c] > 0:
            atoms.append(("T", c))
            remaining[c] -= 1
    rng.shuffle(atoms)

    # the direct sum's basis at each object, keyed (position in atoms,
    # element): a nonzero morphism out of c for P_c, and c itself, at c
    # only, for T_c
    basis = [[(pos, u) for pos, (kind, c) in enumerate(atoms)
              for u in (proj[c][a] if kind == "P" else [c] if a == c else [])]
             for a in cat.objects()]
    assert tuple(map(len, basis)) == dims
    index = [{x: i for i, x in enumerate(xs)} for xs in basis]

    # q[a] = (q_a, its inverse): the change of basis at a
    q = [random_invertible(dims[a], rng) for a in cat.objects()]
    mats = {}
    for r in d.nonzero_morphisms():
        a, b = cat.dom[r], cat.cod[r]
        rows = [[] for _ in range(dims[b])]
        for col, (pos, u) in enumerate(basis[a]):
            # P_c acts by postcomposition and T_c by the identity; a zero
            # composite, or T_c's element when b is not c, is no key at b
            i = index[b].get((pos, cat.comp[r][u] if atoms[pos][0] == "P" else u))
            if i is not None:
                rows[i].append((col, 1))
        raw = QMat(dims[b], dims[a], map(tuple, rows))
        mats[r] = q[b][0].mul(raw).mul(q[a][1])
    return PointedFunctor(d, dims, mats)
