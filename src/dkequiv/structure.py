"""Categories equipped with a class of split embeddings and their derived data.

An MRStructure is a finite category together with a subcategory of
"embeddings" (m_class), each embedding m carrying a chosen retraction
star(m) with star(m) o m = id, contravariantly functorial in m.  From this
the module derives:

  r_class  morphisms admitting no factorization through a non-invertible
           embedding on the left, nor through the retraction of one on the
           right (the "irreducible" maps);
  s_class  composites r o star(m) with r in r_class, m in m_class;
  k_class  composites m o star(n) of an embedding after a retraction;
  i_class  the isomorphisms;

plus subobject posets, the unique-up-to-iso three-part factorization
n o r o star(m) of every morphism, the zero-completed category on r_class,
and machine checks of all the structural axioms the transport theory needs.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import NamedTuple

from .fincat import (
    FinCat,
    ValidationReport,
    closure_failures,
    group_by,
    int_list,
    outside_composites,
    table_category,
)


class StructureError(Exception):
    pass


class NoFactorizationError(StructureError):
    def __init__(self, f, reason="none"):
        super().__init__(f"morphism {f} admits no factorization"
                         if reason == "none" else f"morphism {f}: {reason}")
        self.morphism = f
        self.reason = reason


class AmbiguousFactorizationError(StructureError):
    def __init__(self, f, triple_a, triple_b):
        super().__init__(
            f"morphism {f} has non-conjugate factorizations {triple_a} and {triple_b}"
        )
        self.morphism = f
        self.triples = (triple_a, triple_b)


class Factorization(NamedTuple):
    """Triple with f = n o r o star(m); n, m in m_class, r in r_class."""

    n: int
    r: int
    m: int


class DerivedClasses(NamedTuple):
    r_class: frozenset
    s_class: frozenset
    k_class: frozenset
    i_class: frozenset


class Parts(NamedTuple):
    """Tables indexed by morphism id: u = m[u] o s[u] with m[u] an
    embedding, and s_in_r[u] whether s[u] is irreducible."""

    m: tuple
    s: tuple
    s_in_r: tuple


class SubPoset:
    """Iso-classes of embeddings into one object, with their factorization order.

    elements are canonical representatives (least morphism id in each class),
    in increasing id order.  leq is the order "factors through"; the
    linearization lists classes so that every order relation, and every
    retraction-compatibility relation used by the triangular comparison
    matrix, points forward.
    """

    def __init__(self, obj, elements, leq_pairs, lin):
        self.object = obj
        self.elements = elements
        self._leq = leq_pairs  # set of (rep_a, rep_b) with [a] <= [b]
        self.linearization = lin

    def __len__(self):
        return len(self.elements)

    def leq(self, rep_a, rep_b):
        return (rep_a, rep_b) in self._leq

    def top(self):
        """The class of the identity: the whole object."""
        return self.linearization[-1]

    def proper(self):
        return [m for m in self.elements if m != self.top()]

    def check(self):
        """Reflexivity, transitivity and the whole object as maximum; returns
        the list of problems.  Antisymmetry and the linearization need no
        check: sub_poset raises on any cycle of leq and the compatibility
        relation before it builds a poset, and builds the linearization as
        a topological order of that relation, so every a <= b with a != b
        puts a before b."""
        els, leq = self.elements, self.leq
        problems = [f"not reflexive at {a}" for a in els if not leq(a, a)]
        problems += [f"not transitive at ({a},{b},{c})" for a in els for b in els
                     for c in els if leq(a, b) and leq(b, c) and not leq(a, c)]
        return problems + [f"{a} not below the whole object"
                           for a in els if not leq(a, self.top())]


class MRStructure:
    """A finite category with chosen split embeddings and retractions."""

    def __init__(self, cat: FinCat, m_class, star):
        self.cat = cat
        self.m_class = frozenset(m_class)
        self.star = dict(star)
        self._canonical_emb = {}
        self._facts = {}
        self._validation = None
        self._cand_tables = {}
        self._sub_posets = {}

    # -- structural validation ---------------------------------------------

    def validate(self) -> ValidationReport:
        """Structural checks of the embeddings and their retractions, after
        those of the category's tables, which everything else presumes.
        They are computed once per structure, and each call returns its own
        copy of the report."""
        if self._validation is None:
            self._validation = self._validate()
        return self._validation.copy()

    def _validate(self):
        cat = self.cat
        rep = cat.check_tables()
        if rep.structural:
            return rep
        n = cat.n_morphisms
        for m in self.m_class:
            if not (0 <= m < n):
                rep.add_structural("dangling embedding id", m=m)
                return rep
        for a in cat.objects():
            if cat.identity(a) not in self.m_class:
                rep.add_structural("identity not in m_class", object=a)
        for i in sorted(cat.isos()):
            if i not in self.m_class:
                rep.add_structural("isomorphism not in m_class", morphism=i)
        for g, f in closure_failures(cat, self.m_class):
            rep.add_structural("m_class not closed under composition", g=g, f=f)
        if set(self.star) != set(self.m_class):
            rep.add_structural(
                "star must be defined exactly on m_class",
                missing=sorted(set(self.m_class) - set(self.star)),
                extra=sorted(set(self.star) - set(self.m_class)),
            )
            return rep
        ms = sorted(self.m_class)
        for m in ms:
            sm = self.star[m]
            if not (0 <= sm < n):
                rep.add_structural("dangling star id", m=m, star=sm)
                continue
            if cat.dom[sm] != cat.cod[m] or cat.cod[sm] != cat.dom[m]:
                rep.add_structural("star does not swap endpoints", m=m, star=sm)
                continue
            if cat.comp[sm][m] != cat.identity(cat.dom[m]):
                rep.add_structural("star(m) o m != id", m=m, star=sm)
        if rep.structural:
            return rep
        for a in cat.objects():
            i = cat.identity(a)
            if self.star[i] != i:
                rep.add_structural("star(id) != id", object=a)
        # the pairs (m, f) of embeddings with cod f = dom m, by m, then f
        ms_into = group_by(ms, cat.cod)
        for m in ms:
            row, sm = cat.comp[m], self.star[m]
            for f in ms_into.get(cat.dom[m], ()):
                if self.star[row[f]] != cat.comp[self.star[f]][sm]:
                    rep.add_structural(
                        "star not contravariantly functorial", g=m, f=f
                    )
        return rep

    # -- derived classes -----------------------------------------------------

    @cached_property
    def derived(self) -> DerivedClasses:
        cat = self.cat
        isos = cat.isos()
        noninv = [m for m in sorted(self.m_class) if m not in isos]
        bad = set()
        for m in noninv:
            bad.update(map(cat.comp[m].__getitem__, cat.into[cat.dom[m]]))
            bad.update(cat.comp[z][self.star[m]] for z in cat.outof[cat.dom[m]])
        r_class = frozenset(f for f in cat.morphisms() if f not in bad)
        r_by_dom = group_by(r_class, cat.dom)
        m_by_dom = group_by(self.m_class, cat.dom)
        s_class = frozenset(cat.comp[r][self.star[m]] for m in self.m_class
                            for r in r_by_dom.get(cat.dom[m], ()))
        k_class = frozenset(cat.comp[m][self.star[nn]] for nn in self.m_class
                            for m in m_by_dom[cat.dom[nn]])
        return DerivedClasses(r_class, s_class, k_class, frozenset(isos))

    @property
    def r_class(self):
        return self.derived.r_class

    @property
    def k_class(self):
        return self.derived.k_class

    # -- canonical class representatives -------------------------------------

    def canonical_emb(self, m):
        """Least member of the iso-class of the embedding m (precomposition
        by isomorphisms)."""
        out = self._canonical_emb.get(m)
        if out is None:
            cat = self.cat
            out = min(cat.comp[m][i] for i in cat.isos_into(cat.dom[m]))
            self._canonical_emb[m] = out
        return out

    # -- factorization --------------------------------------------------------

    def _candidate_tables(self, canonical):
        """The embeddings grouped by codomain, and every composite n o r of
        an embedding n after an r in r_class keyed by its value, as (n, r)
        pairs; all in id order, and over all of m_class or, when canonical,
        over its canonical representatives only."""
        tables = self._cand_tables.get(canonical)
        if tables is None:
            cat = self.cat
            ms = [m for m in sorted(self.m_class)
                  if not canonical or self.canonical_emb(m) == m]
            r_by_cod = group_by(sorted(self.r_class), cat.cod)
            decomps = {}
            for nn in ms:
                for r in r_by_cod.get(cat.dom[nn], ()):
                    decomps.setdefault(cat.comp[nn][r], []).append((nn, r))
            tables = self._cand_tables[canonical] = (group_by(ms, cat.cod), decomps)
        return tables

    def factor_candidates(self, f, canonical=False):
        """Every valid triple (n, r, m) with f = n o r o star(m), that is
        with f o m = n o r and (f o m) o star(m) = f, by ascending m, n and
        r; when canonical, only those whose n and m are canonical."""
        cat = self.cat
        ms_into, decomps = self._candidate_tables(canonical)
        cands = []
        for m in ms_into.get(cat.dom[f], ()):
            g = cat.comp[f][m]
            if cat.comp[g][self.star[m]] == f:
                cands += [Factorization(nn, r, m) for nn, r in decomps.get(g, ())]
        return cands

    def conjugacy_orbit(self, fact: Factorization):
        """All triples obtained from fact by re-choosing the embeddings up to
        isomorphism: n' = n o a, m' = m o b, r' = inv(a) o r o b."""
        cat = self.cat
        orbit = set()
        for a in cat.isos_into(cat.dom[fact.n]):
            na = cat.comp[fact.n][a]
            ra = cat.comp[cat.iso_inverse(a)][fact.r]
            for b in cat.isos_into(cat.dom[fact.m]):
                orbit.add(
                    Factorization(na, cat.comp[ra][b], cat.comp[fact.m][b])
                )
        return orbit

    @cached_property
    def _by_representatives(self):
        """Whether factorize may search the canonical triples first: some
        isomorphism is not an identity (else every embedding is canonical
        and both searches are one), and validate() and cat.check() pass."""
        cat = self.cat
        return (any(not cat.is_identity(i) for i in cat.isos())
                and self.validate().ok and cat.check().ok)

    def factorize(self, f) -> Factorization:
        """The canonical triple (n, r, m) with f = n o r o star(m).

        The one check of existence and uniqueness up to isomorphism: raises
        NoFactorizationError when f has no triple, and
        AmbiguousFactorizationError when a triple lies outside the conjugacy
        orbit of the first.  The returned triple has canonical
        representatives as its embedding parts and the least middle among
        those.

        Once validate() has passed on an associative table, the orbit lies
        inside the triples: isos are in m_class, which is closed;
        star(i) = inv(i) for an iso i; and r_class is stable under
        inv(a) o r o b.  Otherwise no triple may have canonical embeddings,
        and NoFactorizationError says so.

        Then each orbit also holds exactly one triple whose n and m are
        canonical.  The class of n o a is that of n, so some a makes n o a
        its least member, canonical_emb(n), and likewise some b for m.  If
        n o a = n o a', then a = star(n) o n o a = a', since star(n) o n is
        an identity; likewise b = b', and r' = inv(a) o r o b follows.  The
        triples of f are a union of orbits, so they form one orbit exactly
        when exactly one of them has canonical n and m, and that one is the
        triple returned.  So when _by_representatives holds, factorize
        searches the canonical embeddings only and returns a lone triple
        found there; on any other count, and otherwise, it searches every
        triple, so its errors and witnesses are that search's.
        """
        out = self._facts.get(f)
        if out is not None:
            return out
        if self._by_representatives:
            cands = self.factor_candidates(f, canonical=True)
            if len(cands) == 1:
                out = self._facts[f] = cands[0]
                return out
        cands = self.factor_candidates(f)
        if not cands:
            raise NoFactorizationError(f)
        extra = set(cands) - self.conjugacy_orbit(cands[0])
        if extra:
            other = min(extra)
            raise AmbiguousFactorizationError(f, cands[0], other)
        canon = [
            t
            for t in cands
            if self.canonical_emb(t.n) == t.n and self.canonical_emb(t.m) == t.m
        ]
        if not canon:
            raise NoFactorizationError(f, "no triple with canonical embeddings")
        out = min(canon, key=lambda t: t.r)
        self._facts[f] = out
        return out

    @cached_property
    def parts(self) -> Parts:
        """The two-part split of every morphism, read off its factorization."""
        cat = self.cat
        facts = [self.factorize(u) for u in cat.morphisms()]
        s_part = tuple(cat.comp[t.r][self.star[t.m]] for t in facts)
        r = self.r_class
        return Parts(tuple(t.n for t in facts), s_part,
                     tuple(s in r for s in s_part))

    def m_part(self, u):
        """The embedding through which u lands: u = m_part(u) o s_part(u)."""
        return self.parts.m[u]

    def s_part(self, u):
        return self.parts.s[u]

    def s_in_r(self, u):
        """Whether the non-embedding part of u is irreducible."""
        return self.parts.s_in_r[u]

    @cached_property
    def d_cat(self) -> "DCat":
        """The zero-completed category on r_class."""
        return DCat(self)

    # -- subobject posets ------------------------------------------------------

    def sub_poset(self, a) -> SubPoset:
        cached = self._sub_posets.get(a)
        if cached is not None:
            return cached
        cat = self.cat
        reps = sorted({self.canonical_emb(m) for m in cat.into[a] if m in self.m_class})
        leq = set()
        compat = set()  # retraction-compatibility: star(n) o m is an embedding
        for m in reps:
            for nn in reps:
                t = cat.comp[self.star[nn]][m]
                if cat.comp[nn][t] == m:
                    leq.add((m, nn))
                if t in self.m_class:
                    compat.add((m, nn))
        # topological sort of the union relation, least representative first
        edges = {m: set() for m in reps}
        indeg = {m: 0 for m in reps}
        for (x, y) in leq | compat:
            if x != y and y not in edges[x]:
                edges[x].add(y)
                indeg[y] += 1
        ready = [m for m in reps if indeg[m] == 0]
        heapq.heapify(ready)
        lin = []
        while ready:
            m = heapq.heappop(ready)
            lin.append(m)
            for y in sorted(edges[m]):
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(ready, y)
        if len(lin) != len(reps):
            raise StructureError(
                f"subobject relations of object {a} contain a cycle"
            )
        poset = SubPoset(a, reps, leq, lin)
        if poset.top() != self.canonical_emb(cat.identity(a)):
            raise StructureError(
                f"whole object is not the maximum of the subobjects of {a}"
            )
        self._sub_posets[a] = poset
        return poset

    # -- serialization ----------------------------------------------------------

    def to_jsonable(self):
        data = self.cat.to_jsonable()
        data["m_class"] = sorted(self.m_class)
        data["star"] = {str(m): str(self.star[m]) for m in sorted(self.m_class)}
        return data

    @classmethod
    def from_jsonable(cls, data) -> "MRStructure":
        """Parse the form to_jsonable writes; a ValueError names the field
        that is not of that form."""
        cat = FinCat.from_jsonable(data)
        star = data["star"]
        if type(star) is not dict or not set(map(type, star.values())) <= {str, int}:
            raise ValueError("star: not a map from embedding ids to ids")
        star = {int(k): int(v) for k, v in star.items()}
        return cls(cat, int_list(data["m_class"], "m_class"), star)

    def __repr__(self):
        return (
            f"MRStructure({self.cat!r}, {len(self.m_class)} embeddings)"
        )


# -- zero-completed category ---------------------------------------------------


class DCat:
    """The category on r_class with one formal zero adjoined per hom-pair.

    Composition of irreducible morphisms is as in the base category when the
    result is again irreducible, and falls to the zero morphism otherwise;
    zeros are absorbing.  Built by table_category, which keys a nonzero
    morphism by its base id and a zero by None.
    """

    def __init__(self, structure: MRStructure):
        base = structure.cat
        rset = structure.r_class
        r = sorted(rset)
        objs = base.objects()
        morphisms = [(base.dom[p], base.cod[p], p, base.mor_labels[p]) for p in r]
        morphisms += [(a, b, None, f"0:{a}->{b}") for a in objs for b in objs]

        def compose_keys(g, f):
            # an irreducible composite, else the zero of the hom-pair
            p = None if g is None or f is None else base.comp[g][f]
            return p if p in rset else None

        self.cat, index = table_category(
            base.obj_labels, morphisms, compose_keys, base.identity)
        self.d_to_r = [p for _, _, p in index]
        self.r_to_d = {p: i for i, p in enumerate(r)}
        self.n_nonzero = len(r)

    def is_zero(self, d_mor):
        return self.d_to_r[d_mor] is None

    def nonzero_morphisms(self):
        return range(self.n_nonzero)

    def __repr__(self):
        return f"DCat({self.n_nonzero} nonzero morphisms + zeros)"


def build_d_cat(s: MRStructure) -> DCat:
    return s.d_cat


# -- assumption checking ---------------------------------------------------------


class AssumptionCheck(NamedTuple):
    key: str
    description: str
    passed: bool
    witness: object = None

    def to_jsonable(self):
        return self._asdict()


class AssumptionReport:
    def __init__(self, structural: ValidationReport, checks, class_sizes=None):
        self.structural = structural
        self.checks = checks
        self.class_sizes = class_sizes or {}

    @property
    def passed(self):
        return self.structural.ok and all(c.passed for c in self.checks)

    def to_jsonable(self):
        return {
            "structural": self.structural.to_jsonable(),
            "assumptions": [c.to_jsonable() for c in self.checks],
            "class_sizes": self.class_sizes,
            "passed": self.passed,
        }

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"AssumptionReport({state}, {len(self.checks)} checks)"


def _factorization_witnesses(s, der):
    cat = s.cat
    for f in cat.morphisms():
        try:
            s.factorize(f)
        except NoFactorizationError as e:
            yield {"morphism": f, "label": cat.mor_labels[f], "reason": e.reason}
        except AmbiguousFactorizationError as e:
            yield {
                "morphism": f,
                "label": cat.mor_labels[f],
                "reason": "non-conjugate triples",
                "triples": [[t.n, t.r, t.m] for t in e.triples],
            }


def _composition_witnesses(s, der):
    cat = s.cat
    r_by_dom = group_by(sorted(der.r_class), cat.dom)
    for r in sorted(der.r_class):
        for r2 in r_by_dom.get(cat.cod[r], ()):
            if cat.comp[r2][r] not in der.s_class:
                yield {"r": r, "r2": r2,
                       "labels": [cat.mor_labels[r], cat.mor_labels[r2]]}


def _cancellation_witnesses(s, der):
    cat = s.cat
    r_by_cod = group_by(sorted(der.r_class), cat.cod)
    for m in sorted(s.m_class - der.i_class):
        sm = s.star[m]
        for r in r_by_cod.get(cat.cod[m], ()):
            if cat.comp[sm][r] in der.r_class:
                yield {"m": m, "r": r,
                       "labels": [cat.mor_labels[m], cat.mor_labels[r]]}


def _closure_witnesses(s, der):
    """The (k, k2) in K with cod k = dom k2 and k2 o k not in K, by k, then
    k2."""
    labels = s.cat.mor_labels
    for k2, k in sorted(closure_failures(s.cat, der.k_class), key=lambda p: p[::-1]):
        yield {"k": k, "k2": k2, "labels": [labels[k], labels[k2]]}


def _finiteness_witnesses(s, der):
    for a in s.cat.objects():
        try:
            problems = s.sub_poset(a).check()
        except StructureError as e:
            problems = [str(e)]
        if problems:
            yield {"object": a, "problems": problems}


def _sandwich_witnesses(s, der):
    cat = s.cat
    r_by_cod = group_by(sorted(der.r_class), cat.cod)
    mr_values = {
        cat.comp[m][r]
        for m in s.m_class
        for r in r_by_cod.get(cat.dom[m], ())
    }
    s_sorted = sorted(der.s_class)
    s_by_dom = group_by(s_sorted, cat.dom)
    for u in s_sorted:
        for t in s_by_dom.get(cat.cod[u], ()):
            if cat.comp[t][u] in mr_values and (
                u not in der.r_class or t not in der.r_class
            ):
                yield {"s": u, "t": t,
                       "labels": [cat.mor_labels[u], cat.mor_labels[t]]}


# (key, description, witnesses): witnesses(s, derived classes) yields the
# instances that violate the axiom, in the order the report names the first
AXIOMS = (
    ("factorization",
     "every morphism factors as embedding o irreducible o retraction, "
     "uniquely up to isomorphism",
     _factorization_witnesses),
    ("composition",
     "a composite of two irreducible morphisms is irreducible after "
     "a retraction",
     _composition_witnesses),
    ("cancellation",
     "a retraction of a non-invertible embedding never leaves an "
     "irreducible morphism irreducible",
     _cancellation_witnesses),
    ("closure",
     "embedding-after-retraction composites form a subcategory",
     _closure_witnesses),
    ("finiteness",
     "the subobject classes of each object form a finite poset with "
     "the whole object as unique maximum",
     _finiteness_witnesses),
    ("sandwich",
     "when a composite of two retracted-form morphisms equals an "
     "embedding after an irreducible, both factors are irreducible",
     _sandwich_witnesses),
)


def check_assumptions(s: MRStructure) -> AssumptionReport:
    """Verify every structural axiom the transport theory relies on.

    Structural invariants are checked first; when they fail the axiom checks
    are not attempted.  Each axiom failure carries a concrete witness, the
    first its search finds; a passing finiteness check reports the sizes of
    the subobject posets instead.
    """
    structural = s.validate()
    if not structural.ok:
        return AssumptionReport(structural, [])
    cat = s.cat
    der = s.derived
    checks = []
    for key, description, witnesses in AXIOMS:
        witness = next(witnesses(s, der), None)
        passed = witness is None
        if passed and key == "finiteness":
            witness = {"sizes": {str(a): len(s.sub_poset(a)) for a in cat.objects()}}
        checks.append(AssumptionCheck(key, description, passed, witness))
    sizes = {
        "morphisms": cat.n_morphisms,
        "m_class": len(s.m_class),
        "r_class": len(der.r_class),
        "s_class": len(der.s_class),
        "k_class": len(der.k_class),
        "i_class": len(der.i_class),
    }
    return AssumptionReport(structural, checks, sizes)


# -- coend bijections --------------------------------------------------------------


class CoendPairReport(NamedTuple):
    kind: str
    source: int
    target: int
    class_count: int
    target_count: int
    problems: list

    @property
    def ok(self):
        return not self.problems and self.class_count == self.target_count

    def to_jsonable(self):
        return {**self._asdict(), "ok": self.ok}


class CoendReport(NamedTuple):
    entries: list

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def to_jsonable(self):
        return {"entries": [e.to_jsonable() for e in self.entries], "ok": self.ok}


def _classes(pairs, relations):
    """The classes of pairs under the equivalence that relations, pairs of
    pairs, generate: in order of each class's first member, with the members
    in pairs order.  A forest on the pairs, shortened by path halving."""
    parent = {p: p for p in pairs}

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in relations:
        parent[root(x)] = root(y)
    out = {}
    for p in pairs:
        out.setdefault(root(p), []).append(p)
    return list(out.values())


def _bijection_report(kind, source, target, classes, comp, targets):
    """The report on the map sending each class of composable pairs (g, f)
    to the value g o f of its members, checked to be a bijection onto targets:
    constant on each class, inside targets, injective and surjective.

    When a class holds None, the map is pointed: that class is the
    basepoint, and the map is checked to be a bijection of pointed sets onto
    targets plus zero instead: a value outside targets is zero, and no class
    but the basepoint's may map to zero.  The basepoint class has None among
    its values, so it is either not constant or maps to zero.
    """
    pointed = any(None in members for members in classes)
    inside = set(targets)
    hit = set()
    problems = []
    for members in classes:
        vals = {None if x is None else comp[x[0]][x[1]] for x in members}
        if pointed:
            vals = {v if v in inside else None for v in vals}
        if len(vals) > 1:
            shown = sorted(vals) if not pointed else [
                "zero" if v is None else v for v in sorted(vals, key=str)
            ]
            problems.append(
                {"problem": "value not constant on class", "values": shown}
            )
            continue
        v = vals.pop()
        if v is None:
            if None not in members:
                problems.append(
                    {"problem": "non-basepoint class maps to zero",
                     "witness": min(members)}
                )
        elif v not in inside:
            problems.append(
                {"problem": "class maps outside the target", "value": v}
            )
        elif v in hit:
            problems.append({"problem": "two classes share a value", "value": v})
        else:
            hit.add(v)
    problems += [{"problem": "value not hit", "value": u}
                 for u in targets if u not in hit]
    count = len(classes) - pointed
    return CoendPairReport(kind, source, target, count, len(targets), problems)


def _closed_forms_apply(s):
    """Whether verify_coend_bijections may decide its entries in closed
    form: cat.check() and validate() pass.  Then the identities lie in M,
    and M in K, as m = m o star(id) for m in M.

    The right comparison at (a, d) identifies the pairs (m, r), m in M into
    d and r irreducible out of a, by (m o i, r) ~ (m, i o r) for the
    isomorphisms i into dom m.  Under the gate the isomorphisms act on the
    pairs by (m, r).i = (m o i, inv(i) o r): m o i is in M, which holds the
    isomorphisms and is closed, and inv(i) o r is irreducible, for if
    inv(i) o r were n o f or z o star(n) with n a non-invertible embedding,
    r would be (i o n) o f or (i o z) o star(n), i o n again one.  A step
    (m o i, r) ~ (m, i o r) is (m, i o r).i, and (m, r) ~ (m, r).i is the
    step at inv(i) o r, so the classes are the orbits.  The action is free,
    since m o i = m o j gives i = star(m) o m o i = j, so the orbit of
    (m, r) has |isos_into(dom m)| members, all of value m o r.  So no value
    varies on a class, and the entry passes, with as many classes as
    targets and no problem, exactly when the values reached are the target
    list and each value v is reached by as many pairs as the orbit of the
    first pair of value v has: that orbit is then all of them.  The proof
    uses no factorization, only the tables and validate().  The left
    comparison's closed form is _left_zero_ideal's.
    """
    return s.cat.check().ok and s.validate().ok


def _left_zero_ideal(s, der):
    """Z = C o X, for X = (K o M) - M, walked along generating_set(), on a
    structure that _closed_forms_apply admits.

    Then the union-find reports no problem at an entry (c, b), and as many
    classes as targets, exactly when hom(c, b) - Z, in hom order, is the
    target list.  A step (g o k, m) ~ (g, k o m), k in K, keeps the value
    g o m, by associativity, and (g, m) ~ (g o m, id_c) is the step at
    k = m.  A shortest chain to zero ends at some (h o k, m') with k o m'
    in X, its earlier steps keeping the value, so only pairs whose value
    lies in Z are zero; and if g o m = h o k o m' with k o m' in X, then
    (g, m) ~ (h o k o m', id_c) ~ (h o k, m') ~ zero.
    So the other classes are those of the u in hom(c, b) - Z, each mapped
    to u, and the basepoint class holds the values in Z.  A u outside Z that
    is no target maps its class to zero, and a target t in Z puts (t, id_c)
    beside zero: _bijection_report flags either.
    """
    cat = s.cat
    comp, cod = cat.comp, cat.cod
    ideal = outside_composites(cat, group_by(der.k_class, cat.dom), s.m_class)
    gens_out = group_by(cat.generating_set(), cat.dom)
    walk = list(ideal)
    for x in walk:
        for g in gens_out.get(cod[x], ()):
            y = comp[g][x]
            if y not in ideal:
                ideal.add(y)
                walk.append(y)
    return ideal


def verify_coend_bijections(s: MRStructure) -> CoendReport:
    """Check the two colimit comparison maps that reduce the transport
    problem to the embedding-after-retraction subcategory.

    For each pair of objects the relevant identification classes are built
    by union-find over their defining relations, along every isomorphism on
    the right and all of K on the left, and _bijection_report checks the
    induced map onto {u : s_part(u) irreducible}: a bijection on the right,
    a bijection of pointed sets on the left, whose fall-to-zero
    identifications make a basepoint class.  Problems carry witnesses.  On
    a structure that _closed_forms_apply admits, an entry is reported
    without union-find when its closed form, proved there and in
    _left_zero_ideal, shows that union-find would find no problem, so a
    failing report is always the walk's.  A right relation with a side
    that is no pair fails its entry, with the witness (m, i, r).
    """
    cat = s.cat
    der = s.derived
    comp = cat.comp
    entries = []
    m_sorted = sorted(s.m_class)
    m_by_cod = group_by(m_sorted, cat.cod)
    m_by_dom = group_by(m_sorted, cat.dom)
    closed = _closed_forms_apply(s)

    def target_set(a, b):
        return [u for u in cat.hom(a, b) if s.s_in_r(u)]

    # right comparison: pairs (embedding m, irreducible r) composing to D,
    # identified along the isomorphism action on the middle object
    for a in cat.objects():
        r_into = [[r for r in cat.hom(a, c) if r in der.r_class] for c in cat.objects()]
        for d in cat.objects():
            targets = target_set(a, d)
            if closed:
                # each value's count of pairs, and the orbit size of its first
                count, orbit = {}, {}
                for m in m_by_cod.get(d, ()):
                    size = len(cat.isos_into(cat.dom[m]))
                    for v in map(comp[m].__getitem__, r_into[cat.dom[m]]):
                        count[v] = count.get(v, 0) + 1
                        orbit.setdefault(v, size)
                if sorted(count) == targets and count == orbit:
                    entries.append(CoendPairReport(
                        "right", a, d, len(targets), len(targets), []))
                    continue
            ms = [m for m in m_by_cod.get(d, ()) if r_into[cat.dom[m]]]
            pairs = [(m, r) for m in ms for r in r_into[cat.dom[m]]]
            known = set(pairs)
            relations, leaving = [], []
            for m in ms:
                for i in cat.isos_into(cat.dom[m]):
                    # (m o i, r) ~ (m, i o r) for r into the source of i
                    rs = r_into[cat.dom[i]]
                    steps = [((comp[m][i], r), (m, comp[i][r])) for r in rs]
                    out = [r for r, (x, y) in zip(rs, steps)
                           if x not in known or y not in known]
                    if out:
                        leaving.append({"problem": "relation leaves the pairs",
                                        "witness": (m, i, out[0])})
                    else:
                        relations += steps
            entry = _bijection_report(
                "right", a, d, _classes(pairs, relations), comp, targets
            )
            entry.problems[:0] = leaving
            entries.append(entry)

    # left comparison: pairs (any g, embedding m) through a middle object,
    # identified along the embedding-after-retraction subcategory including
    # the fall-to-zero identifications
    zero_ideal = _left_zero_ideal(s, der) if closed else None
    k_by_dom = None
    for c in cat.objects():
        ms = m_by_dom.get(c, ())
        for b in cat.objects():
            targets = target_set(c, b)
            if zero_ideal is not None and targets == [
                    u for u in cat.hom(c, b) if u not in zero_ideal]:
                entries.append(CoendPairReport(
                    "left", c, b, len(targets), len(targets), []))
                continue
            if k_by_dom is None:
                k_by_dom = group_by(sorted(der.k_class), cat.dom)
            pairs = [(g, m) for m in ms for g in cat.hom(cat.cod[m], b)]
            pairs.append(None)
            # (g o k, m) ~ (g, k o m), or ~ zero when k o m is no embedding
            relations = [
                ((comp[g][k], m), (g, km) if km in s.m_class else None)
                for m in ms for k in k_by_dom.get(cat.cod[m], ())
                for km in [comp[k][m]] for g in cat.hom(cat.cod[k], b)
            ]
            entries.append(_bijection_report(
                "left", c, b, _classes(pairs, relations), comp, targets))

    return CoendReport(entries)
