"""Finite categories given by explicit composition tables.

Objects and morphisms are 0-based indices into the category's lists; the
composition table comp[g][f] holds g after f, with None exactly where the
endpoints do not match.  Values are immutable after construction.
"""

from __future__ import annotations

from operator import itemgetter


def int_list(value, field):
    """value, if it is a JSON list of integers; a ValueError naming field
    otherwise."""
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError(f"{field}: not a list of integers")
    return value


def gather(ids):
    """itemgetter of the ids, a non-empty sequence: a function from a row to
    the tuple of its entries there, taken twice when ids has one member,
    so that it is a tuple then too."""
    return itemgetter(*ids) if len(ids) > 1 else itemgetter(ids[0], ids[0])


def group_by(members, ends):
    """members, in their given order, grouped by ends[x]: ends is a table
    indexed by morphism id, such as dom, cod or a row of comp."""
    out = {}
    for x in members:
        out.setdefault(ends[x], []).append(x)
    return out


class ValidationReport:
    """Violations found by a structural/law check; empty means valid."""

    def __init__(self):
        self.structural = []
        self.law = []

    def add_structural(self, message, **witness):
        self.structural.append({"message": message, **witness})

    def add_law(self, message, **witness):
        self.law.append({"message": message, **witness})

    @property
    def ok(self):
        return not self.structural and not self.law

    def copy(self):
        """A report with the same violations, which can be added to without
        changing this one."""
        out = ValidationReport()
        out.structural, out.law = list(self.structural), list(self.law)
        return out

    def to_jsonable(self):
        return {"structural": self.structural, "law": self.law, "ok": self.ok}

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return (
            f"ValidationReport({len(self.structural)} structural, "
            f"{len(self.law)} law violations)"
        )


class FinCat:
    """A finite category: objects 0..n-1, morphisms with dom/cod/comp tables,
    and its hom index, built once: hom(a, b), into[a] and outof[a] are the
    morphisms a -> b, into a and out of a, as shared tuples in id order."""

    def __init__(self, n_objects, dom, cod, identities, comp,
                 obj_labels=None, mor_labels=None):
        self.n_objects = n_objects
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.identities = tuple(identities)
        self.comp = tuple(tuple(row) for row in comp)
        self.obj_labels = tuple(obj_labels) if obj_labels else tuple(
            str(i) for i in range(n_objects)
        )
        self.mor_labels = tuple(mor_labels) if mor_labels else tuple(
            f"m{i}" for i in range(len(self.dom))
        )
        n = len(self.dom)
        if len(self.cod) != n or len(self.mor_labels) != n:
            raise ValueError(
                f"morphisms: {n} domains, {len(self.cod)} codomains and "
                f"{len(self.mor_labels)} labels"
            )
        if len(self.identities) != n_objects:
            raise ValueError(f"identities: need one for each of {n_objects} objects")
        if len(self.comp) != n or any(len(row) != n for row in self.comp):
            raise ValueError(f"comp: need an {n} x {n} table")
        if not set(self.dom) | set(self.cod) <= set(range(n_objects)):
            raise ValueError("morphisms: an endpoint is not an object")
        # one pass, so that all three share each id's int object
        hom = {}
        into, outof = [[] for _ in range(n_objects)], [[] for _ in range(n_objects)]
        for f in range(n):
            hom.setdefault((self.dom[f], self.cod[f]), []).append(f)
            into[self.cod[f]].append(f)
            outof[self.dom[f]].append(f)
        self._hom = {ends: tuple(fs) for ends, fs in hom.items()}
        self.into, self.outof = tuple(map(tuple, into)), tuple(map(tuple, outof))
        self._isos = self._report = self._tables = None
        self._gens = {}

    # -- basics ------------------------------------------------------------

    @property
    def n_morphisms(self):
        return len(self.dom)

    def morphisms(self):
        return range(self.n_morphisms)

    def objects(self):
        return range(self.n_objects)

    def hom(self, a, b):
        """All morphisms a -> b in id order: the index's shared tuple."""
        assert 0 <= a < self.n_objects and 0 <= b < self.n_objects
        return self._hom.get((a, b), ())

    def identity(self, a):
        return self.identities[a]

    def is_identity(self, f):
        return self.identities[self.dom[f]] == f

    def composable(self, g, f):
        return self.cod[f] == self.dom[g]

    # -- checks ------------------------------------------------------------

    def check(self) -> ValidationReport:
        """Category-law check; reports every violated instance.

        Associativity is tested first on the triples whose middle factor is
        in generating_set() only (Light's test), which suffices once the
        identity laws hold.  Call a good if h o (a o f) = (h o a) o f for all
        composable h, f.  Identities are good by the identity laws; if a and
        b are good, h o ((a o b) o f) = h o (a o (b o f)) = (h o a) o (b o f)
        = ((h o a) o b) o f = (h o (a o b)) o f, so a o b is good; so, by
        the lemma in generating_set, every morphism is good.  On any failure
        every triple is walked, so the report is the walk's.  The tables are
        tuples, so one report serves every call.
        """
        if self._report is None:
            self._report = self._check()
        return self._report

    def _check(self):
        rep = self.check_tables()
        if rep.structural:
            return rep
        comp = self.comp
        for f in range(self.n_morphisms):
            if comp[self.identities[self.cod[f]]][f] != f:
                rep.add_law("id o f != f", f=f, label=self.mor_labels[f])
            if comp[f][self.identities[self.dom[f]]] != f:
                rep.add_law("f o id != f", f=f, label=self.mor_labels[f])
        if rep.law or not self._associative_at(self.generating_set()):
            for h, g, f in self._assoc_failures():
                rep.add_law("associativity violated", h=h, g=g, f=f)
        return rep

    def _associative_at(self, middles):
        """Whether h o (g o f) = (h o g) o f for every composable (h, g, f)
        with g in middles, on tables that pass check_tables."""
        return not any(map(self._failing_rows, middles))

    def _failing_rows(self, g):
        """The h out of cod(g), in id order, for which h o (g o f) !=
        (h o g) o f at some f, on tables that pass check_tables.

        With into = the morphisms into dom(g) (never empty: it holds the
        identity) and gf = [g o f for f in into], itemgetter(*gf)(comp[h])
        lists h o (g o f) and itemgetter(*into)(comp[h o g]) lists
        (h o g) o f, both over f in into in the same order.  So the two are
        equal exactly when the triple loop finds no failure at (h, g, f)
        for any f.  When into has one member both getters return that one
        value, not a tuple, and the comparison is still of h o (g o f) with
        (h o g) o f.
        """
        comp, into = self.comp, self.into[self.dom[g]]
        take_gf = itemgetter(*map(comp[g].__getitem__, into))
        take = itemgetter(*into)
        return [h for h in self.outof[self.cod[g]]
                if take_gf(comp[h]) != take(comp[comp[h][g]])]

    def _assoc_failures(self):
        """Each composable (h, g, f) for which h o (g o f) != (h o g) o f,
        walked by g, then f, then h in _failing_rows(g), each in id order."""
        comp = self.comp
        for g in self.morphisms():
            hs = self._failing_rows(g)
            if not hs:
                continue
            row_g = comp[g]
            hg = [(h, comp[h][g]) for h in hs]
            for f in self.into[self.dom[g]]:
                gf = row_g[f]
                for h, h_g in hg:
                    if comp[h][gf] != comp[h_g][f]:
                        yield h, g, f

    def check_tables(self) -> ValidationReport:
        """The structural part of check(), which every other computation on
        the tables presumes: identities and composites are morphism ids
        with the right endpoints, and comp is defined exactly on the
        composable pairs.  Reports every violated instance.  It is computed
        once per table, and each call returns its own copy, since _check and
        MRStructure.validate add to the report they get.

        A row g passes when it holds len(into) defined entries, into being
        the morphisms into dom(g), and, for each object x, its entries at
        hom(x, dom g), gathered at once, form a subset of the set
        hom(x, cod g).  The hom sets hom(x, dom g) partition into, so then
        each entry at an f in into is a morphism id with endpoints
        (dom f, cod g): None, an id out of range and an id with other
        endpoints are not members of hom(x, cod g).  So the len(into)
        defined entries are those at into, and the row is right exactly
        when the walk finds nothing in it.  Only a row that fails is
        walked entry by entry, so the report is that of the walk.
        """
        if self._tables is None:
            self._tables = self._check_tables()
        return self._tables.copy()

    def _check_tables(self):
        rep = ValidationReport()
        n = self.n_morphisms
        dom, cod = self.dom, self.cod
        for a in range(self.n_objects):
            i = self.identities[a]
            if not (0 <= i < n):
                rep.add_structural("dangling identity id", object=a, value=i)
            elif dom[i] != a or cod[i] != a:
                rep.add_structural("identity has wrong endpoints", object=a, morphism=i)
        hom_sets = {ends: frozenset(fs) for ends, fs in self._hom.items()}
        empty = frozenset()
        # (dom g, cod g) -> [(gather of hom(x, dom g), the set hom(x, cod g))]
        tests = {}
        for g in range(n):
            row = self.comp[g]
            a, b = dom[g], cod[g]
            test = tests.get((a, b))
            if test is None:
                test = tests[(a, b)] = [
                    (gather(fs), hom_sets.get((x, b), empty))
                    for (x, y), fs in self._hom.items() if y == a]
            if (len(row) - row.count(None) == len(self.into[a])
                    and all(want.issuperset(take(row)) for take, want in test)):
                continue
            for f in range(n):
                h = row[f]
                defined = h is not None
                should = cod[f] == dom[g]
                if defined != should:
                    rep.add_structural(
                        "comp defined iff endpoints match violated", g=g, f=f
                    )
                    continue
                if defined:
                    if not (0 <= h < n):
                        rep.add_structural("dangling composite id", g=g, f=f, value=h)
                    elif dom[h] != dom[f] or cod[h] != cod[g]:
                        rep.add_structural(
                            "composite has wrong endpoints", g=g, f=f, composite=h
                        )
        return rep

    # -- derived data --------------------------------------------------------

    def isos(self):
        """Morphisms with a two-sided inverse.  One pass in id order gathers
        the row of each f: a -> b at hom(b, a) once and, where it holds id_b,
        records the first g there, in id order, with f o g = id_b and
        g o f = id_a.  It lists the isomorphisms into each object in id order."""
        if self._isos is None:
            comp, ids, inverse = self.comp, self.identities, {}
            for f in self.morphisms():
                a, b = self.dom[f], self.cod[f]
                back = self._hom.get((b, a), ())
                got = gather(back)(comp[f]) if back else ()
                if ids[b] in got:
                    for g, fg in zip(back, got):
                        if fg == ids[b] and comp[g][f] == ids[a]:
                            inverse[f] = g
                            break
            self._iso_inverse = inverse
            self._isos_into = group_by(inverse, self.cod)
            self._isos = frozenset(inverse)
        return self._isos

    def iso_inverse(self, f):
        self.isos()
        return self._iso_inverse[f]

    def isos_into(self, a):
        """The isomorphisms into a, in id order; the list is shared, so
        callers do not change it."""
        self.isos()
        return self._isos_into.get(a, [])

    def generating_set(self, members=None):
        """The members (all morphisms by default) that, walked after the
        identities, the identities and the earlier ones do not reach under
        the table's composition: the members _extension_walk takes.  Each
        taken member x is extended, and so is each morphism it reaches, by
        one identity or one generator taken so far on either side: y o g
        and g o y.  So on any table each reached morphism is a composite of
        reached morphisms and identities, and with the identities the
        generators reach every member, since each member is either reached
        or taken; this holds for any walking order.  So a property of
        morphisms that holds at the identities and at the generators, and
        at a o b whenever it holds at a and at b, holds at every member: the
        lemma that check and outside_is_stable rest on.

        On a table that is associative and obeys the identity laws, the
        reached set after each taken x is the closure of the identities
        and the generators taken so far, so each test "x is reached" asks
        whether the earlier generators generate x.  Induct on the taken
        generators.  After x's turn the reached set R holds the earlier
        closure and x, and g o y and y o g lie in R for every y in R and
        every identity or generator g: a y reached in x's turn was
        extended; for y in the earlier closure and g taken before x, the
        composite stays in that closure; and g_k o ... o g_1 o x, for such
        a y = g_k o ... o g_1, is reached one letter at a time from x, each
        step from a morphism reached in x's turn or from one in the earlier
        closure (likewise x o y).  A set that holds the identities and is
        closed under one-generator extension holds every composable word in
        the generators, so R is the closure.  A walk that composes each
        reached morphism with every morphism reached by then keeps its
        reached set closed, so it too reaches that closure, and the two
        walks take the same members.

        The first walk takes the isomorphisms first, automorphisms of
        highest element order first, then the other members in id order.  A
        second walk goes over its generators only, costliest first by Light
        cells, |outof(cod g)| * |into(dom g)|, and drops those the earlier
        ones reach.  Its set reaches the first's, which reaches every
        member, so the lemma, applied twice, holds for it, with no use of
        associativity.  The walks run once per table and set of members.
        """
        members = frozenset(self.morphisms() if members is None else members)
        gens = self._gens.get(members)
        if gens is None:
            def taken(order):
                walk = _extension_walk(order, self.dom, self.cod,
                                       self.identities, self.comp)
                return [x for x, outer, _ in walk if outer is None]

            # isomorphisms first, by descending element order
            rank = {i: -self._element_order(i) for i in self.isos()}
            first = taken(sorted(
                members, key=lambda x: (x not in rank, rank.get(x, 0), x)))
            into, outof = self.into, self.outof
            gens = self._gens[members] = tuple(taken(sorted(
                first, key=lambda g: (
                    -len(outof[self.cod[g]]) * len(into[self.dom[g]]),
                    g not in rank, rank.get(g, 0), g))))
        return list(gens)

    def _element_order(self, g):
        """The least k >= 1 with g^k the identity among g's first
        |hom(a, a)| powers; 0 when there is none or g is no endomorphism."""
        a = self.dom[g]
        if self.cod[g] != a:
            return 0
        row, ident, power = self.comp[g], self.identities[a], g
        for k in range(1, len(self._hom[(a, a)]) + 1):
            if power == ident:
                return k
            power = row[power]
        return 0

    # -- serialization -------------------------------------------------------

    def to_jsonable(self):
        return {
            "objects": list(self.obj_labels),
            "morphisms": [
                {"dom": self.dom[f], "cod": self.cod[f], "label": self.mor_labels[f]}
                for f in range(self.n_morphisms)
            ],
            "identities": list(self.identities),
            "comp": [
                [-1 if x is None else x for x in row] for row in self.comp
            ],
        }

    @classmethod
    def from_jsonable(cls, data) -> "FinCat":
        """Parse the form to_jsonable writes.  A ValueError names the first
        field that is not of that form: ids are checked to be integers here,
        counts and endpoints by the constructor; identities and composites
        out of range are left to check_tables().

        Each composite id in range is replaced by one shared int object per
        id, and -1 by None; any other integer is kept as it is, for
        check_tables to report.  So the loaded table holds one object per
        id, not one per cell, and comparing two of its entries finds equal
        ids identical."""
        objs = data["objects"]
        if type(objs) is not list:
            raise ValueError("objects: not a list")
        mors = data["morphisms"]
        # a morphisms field that is not a list is reported below, as before
        canon = {i: i for i in range(len(mors) if type(mors) is list else 0)}
        canon[-1] = None
        comp = tuple(
            tuple(map(canon.get, row, int_list(row, f"comp[{g}]")))
            for g, row in enumerate(data["comp"])
        )
        return cls(
            len(objs),
            int_list([m["dom"] for m in mors], "morphism dom"),
            int_list([m["cod"] for m in mors], "morphism cod"),
            int_list(data["identities"], "identities"),
            comp,
            objs,
            [m.get("label", f"m{i}") for i, m in enumerate(mors)],
        )

    def __repr__(self):
        return f"FinCat({self.n_objects} objects, {self.n_morphisms} morphisms)"


def _extension_walk(order, dom, cod, identities, rows):
    """The one-generator extension walk of FinCat.generating_set over
    order, on the table whose row of x is rows[x].  Each member of order
    not yet reached is taken; it, and each morphism it reaches, is
    extended by the identities and the members taken so far on either
    side, y o g and g o y.  Yields (x, None, None) for each taken x and
    (w, outer, inner) for each newly reached w = outer o inner.  It reads
    the identities' rows at any time and any other rows[w] only after it
    has yielded w's event, so a caller may fill rows as the walk goes."""
    # the identities and the members taken so far, by cod and by dom
    taken_into = [[i] for i in identities]
    taken_outof = [[i] for i in identities]
    reached = set(identities)
    for x in order:
        if x in reached:
            continue
        reached.add(x)
        yield x, None, None
        taken_into[cod[x]].append(x)
        taken_outof[dom[x]].append(x)
        todo = [x]
        while todo:
            y = todo.pop()
            row_y = rows[y]
            for g in taken_into[dom[y]]:
                w = row_y[g]
                if w not in reached:
                    reached.add(w)
                    yield w, y, g
                    todo.append(w)
            for g in taken_outof[cod[y]]:
                w = rows[g][y]
                if w not in reached:
                    reached.add(w)
                    yield w, g, y
                    todo.append(w)


def closure_failures(cat, members):
    """The pairs (g, f) of members, a set, with cod f = dom g and g o f not
    a member, by g, then f, in id order, on a table that passes
    check_tables.  They are walked for only when some g fails the test
    members >= {g o f : f in members into dom g}, made by one gather of row
    g: that set holds exactly the composites the walk tests at g, so when
    every g passes the walk finds nothing."""
    comp, dom = cat.comp, cat.dom
    ordered = sorted(members)
    into = group_by(ordered, cat.cod)
    take = {a: gather(fs) for a, fs in into.items()}
    if all(members.issuperset(take[dom[g]](comp[g]))
           for g in ordered if dom[g] in take):
        return []
    return [(g, f) for g in ordered for f in into.get(dom[g], ())
            if comp[g][f] not in members]


def outside_composites(cat, acting, inside):
    """X = (A o I) - I, for I the set inside and A the set whose members out
    of each object a are acting[a]: the composites a o i that leave I."""
    comp, cod = cat.comp, cat.cod
    return {comp[a][i] for i in inside for a in acting[cod[i]]} - inside


def outside_is_stable(cat, gens, outside, inside):
    """Whether every member of the subcategory that gens generates maps
    X = outside into X, for X = outside_composites(cat, acting, inside) =
    (A o I) - I.  The table must be associative, and A must hold the
    identities and gens and be closed under composition.

    It is decided along gens: no g in gens takes a t in X into I.  Call a
    in A good if it maps X into X.  For t = a1 o i in X, a o t = (a o a1) o i
    lies in A o I, so a is good when no a o t lies in I.  Identities are
    good, and a o b is good when a and b are, as (a o b) o t = a o (b o t)
    with b o t in X.  So, by the lemma in FinCat.generating_set, every
    member of the subcategory is good exactly when every g is.
    """
    comp, dom = cat.comp, cat.dom
    by_cod = group_by(outside, cat.cod)
    return not any(comp[g][t] in inside
                   for g in gens for t in by_cod.get(dom[g], ()))


def table_category(obj_labels, morphisms, compose_keys, identity_key, *,
                   associative=False):
    """The category on the objects labelled obj_labels whose morphisms are
    given as (dom, cod, key, label) in id order; a repeated (dom, cod, key)
    names the morphism it first gave.  compose_keys(gkey, fkey) is the key
    of g after f, asked only of composable pairs, and identity_key(a) the
    key of the identity of a.  Returns the FinCat and the index from each
    (dom, cod, key) to its id.

    Every row g of the table is keyed, g's key composed with the key of
    each f in into[dom g], unless the caller knows compose_keys to be
    associative on the keys given, as map composition is.  Then the
    identities' rows are keyed first, and _extension_walk goes over the
    morphisms in id order, since the isomorphisms are not known before the
    table: the row of each taken member is keyed, and the row of each newly
    reached w = outer o inner is gathered from two rows known already,
    row(w)[f] = row(outer)[row(inner)[f]] over f in into[dom inner].  Every
    id is either reached or taken, so every row is filled, and the table is
    the same.  FinCat.check stays the test of either table.  Every row is a
    tuple when it is filled, so FinCat.__init__ keeps the rows as they are.

    The gathered rows are the keyed ones.  Write k(x) for the key of x; a
    keyed entry x o f is the first id with key k(x)k(f) at its endpoints,
    so its key is k(x)k(f).  Suppose the rows of outer and inner are keyed
    rows and w = outer o inner, read off one of them, so
    k(w) = k(outer)k(inner).  For f in into[dom inner], v = row(inner)[f]
    has k(v) = k(inner)k(f), and lies in into[dom outer], as
    cod v = cod inner = dom outer; so row(outer)[v] is the first id with key
    k(outer)(k(inner)k(f)) = (k(outer)k(inner))k(f) = k(w)k(f) at the
    endpoints (dom f, cod w), by associativity: the keyed entry of w at f.
    Both rows are None off into[dom w] = into[dom inner], so the gathered
    row of w is its keyed row, and by induction over the walk every row is.
    Every gathered value is a value of a keyed row, so an id already in the
    index.  The unit law is not needed for this, as the identities' rows
    are keyed.  With it, as for maps, an extension by an identity reaches
    nothing new, and the reached set after each taken member is the closure
    of those taken so far, by generating_set's proof; so few rows are
    keyed: 58 on fi_sharp 4, 124 on fi_sharp 5, besides the identities'.
    """
    index = {}
    dom, cod, keys, labels = [], [], [], []
    for d, c, key, label in morphisms:
        if (d, c, key) not in index:
            index[(d, c, key)] = len(keys)
            dom.append(d)
            cod.append(c)
            keys.append(key)
            labels.append(label)
    n = len(keys)
    into = group_by(range(n), cod)
    identities = [index[(a, a, identity_key(a))] for a in range(len(obj_labels))]

    def keyed_row(g):
        row = [None] * n
        key, c = keys[g], cod[g]
        for f in into.get(dom[g], ()):
            row[f] = index[(dom[f], c, compose_keys(key, keys[f]))]
        return tuple(row)

    if associative:
        comp = [None] * n
        for i in identities:
            comp[i] = keyed_row(i)
        for w, outer, inner in _extension_walk(range(n), dom, cod,
                                               identities, comp):
            if outer is None:
                comp[w] = keyed_row(w)
                continue
            row_outer, row_inner, row = comp[outer], comp[inner], [None] * n
            for f in into[dom[inner]]:
                row[f] = row_outer[row_inner[f]]
            comp[w] = tuple(row)
    else:
        comp = [keyed_row(g) for g in range(n)]
    cat = FinCat(len(obj_labels), dom, cod, identities, comp, obj_labels, labels)
    return cat, index
