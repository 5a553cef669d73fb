"""Builders for the concrete categories the toolkit is exercised on.

Each builder emits an MRStructure whose composition table is generated from
an explicit encoding of the morphisms (map tuples, spans), so tests can
recompute composites independently of the table.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .fincat import FinCat, closure_failures, group_by, int_list, table_category
from .structure import MRStructure


def tuple_category(obj_labels, homs, compose, identity):
    """The category whose maps d -> c are the tuples homs(d, c), for every
    pair of objects, each labelled by its entries; compose(g, f) is the
    tuple of g after f and identity(a) that of the identity of a.  Returns
    the FinCat and the index from each (d, c, tuple) to its id.

    Composition of maps is associative, so table_category fills the table
    by its generator walk, which composes tuples for the rows of the
    identities and of the walk's generators only."""
    n = len(obj_labels)
    return table_category(
        obj_labels,
        [(d, c, t, ",".join(map(str, t)) or "()")
         for d in range(n) for c in range(n) for t in homs(d, c)],
        compose,
        identity,
        associative=True,
    )


def split_embeddings(cat, index, retraction) -> MRStructure:
    """cat with the maps (d, c, key) of index for which retraction(d, c, key)
    returns a key as its embeddings, each retracted by the map c -> d of
    that key."""
    star = {i: index[(c, d, back)] for (d, c, key), i in index.items()
            if (back := retraction(d, c, key)) is not None}
    return MRStructure(cat, list(star), star)


def compose_maps(g, f):
    """g after f, for maps given as tuples of 0-based images."""
    return tuple(g[x] for x in f)


# -- ordinals with endpoints --------------------------------------------------


def interval_maps(m, n):
    """Monotone maps {0..m-1} -> {0..n-1} preserving first and last element,
    as image tuples."""
    if m == 1:
        return [(0,)] if n == 1 else []
    mids = itertools.combinations_with_replacement(range(n), m - 2)
    return [(0,) + mid + (n - 1,) for mid in mids]


def interval_star(d, c, t):
    """The left adjoint {0..c} -> {0..d} of an injective endpoint-preserving
    map t, or None when t is not injective."""
    if len(set(t)) < len(t):
        return None
    return tuple(next(i for i, y in enumerate(t) if y >= x) for x in range(c + 1))


def build_delta_bt(n_max) -> MRStructure:
    """Ordinals 1..n_max with endpoint-and-order-preserving maps; embeddings
    are the injections, each retracted by its left adjoint."""
    if n_max < 1:
        raise ValueError(f"n_max: need an integer >= 1, got {n_max}")
    return split_embeddings(*tuple_category(
        [str(k + 1) for k in range(n_max)],
        lambda d, c: interval_maps(d + 1, c + 1),
        compose_maps,
        lambda a: tuple(range(a + 1)),
    ), interval_star)


# -- finite sets and partial injections ----------------------------------------


def partial_injections(m, n):
    """Partial injections {1..m} -> {1..n} as tuples, 0 marking undefined,
    in increasing order."""
    return [t for t in itertools.product(range(n + 1), repeat=m)
            if len(set(t) - {0}) == m - t.count(0)]


def compose_partial(g, f):
    """g after f, for partial maps given as tuples of 1-based images, 0
    marking undefined."""
    return tuple(g[x - 1] if x else 0 for x in f)


def partial_inverse(d, c, t):
    """The partial inverse {1..c} -> {1..d} of a total injection t, or None
    when t is not total."""
    if 0 in t:
        return None
    inv = [0] * c
    for pos, val in enumerate(t):
        inv[val - 1] = pos + 1
    return tuple(inv)


def build_fi_sharp(n_max) -> MRStructure:
    """Sets {1..k} for k <= n_max with injective partial functions; embeddings
    are the total injections, each retracted by its partial inverse."""
    if n_max < 0:
        raise ValueError(f"n_max: need an integer >= 0, got {n_max}")
    return split_embeddings(*tuple_category(
        [str(k) for k in range(n_max + 1)],
        partial_injections,
        compose_partial,
        lambda a: tuple(range(1, a + 1)),
    ), partial_inverse)


# -- the cube category -----------------------------------------------------------


def cube_maps(k, h):
    """Maps <k> -> <h> (0 = bottom, 1..k interior, k+1 = top) preserving the
    endpoints and strictly increasing on the interior preimage, in
    increasing order."""
    out = []
    for mid in itertools.product(range(h + 2), repeat=k):
        inner = [x for x in mid if 1 <= x <= h]
        if all(x < y for x, y in zip(inner, inner[1:])):
            out.append((0, *mid, h + 1))
    return out


def cube_star(k, h, t):
    """The retraction <h> -> <k> of a map t that sends the interior of <k>
    into the interior of <h>: the inverse on t's interior image, the top
    elsewhere; None for any other t."""
    if not all(1 <= t[x] <= h for x in range(1, k + 1)):
        return None
    inv = {t[i]: i for i in range(1, k + 1)}
    return tuple([0] + [inv.get(j, k + 1) for j in range(1, h + 1)] + [k + 1])


def build_cube(k_max) -> MRStructure:
    """The cube-shape category on <0>..<k_max>; embeddings are the injective
    maps, retracted by sending everything off the image to the top."""
    if k_max < 0:
        raise ValueError(f"k_max: need an integer >= 0, got {k_max}")
    return split_embeddings(*tuple_category(
        [f"<{k}>" for k in range(k_max + 1)],
        cube_maps,
        compose_maps,
        lambda a: tuple(range(a + 2)),
    ), cube_star)


# -- the walking split epimorphism ------------------------------------------------


def build_pt() -> MRStructure:
    """Two objects 0, 1 with a section mu: 0 -> 1, its retraction, and the
    induced idempotent on 1."""
    table = {
        ("mu", "mu*"): "e",
        ("mu*", "mu"): "id0",
        ("e", "mu"): "mu",
        ("mu*", "e"): "mu*",
        ("e", "e"): "e",
    }

    def ck(g, f):
        if f.startswith("id"):
            return g
        if g.startswith("id"):
            return f
        return table[(g, f)]

    star = {"id0": "id0", "id1": "id1", "mu": "mu*"}
    return split_embeddings(*table_category(
        ["0", "1"],
        [(d, c, key, key) for d, c, key in (
            (0, 0, "id0"), (1, 1, "id1"), (0, 1, "mu"), (1, 0, "mu*"), (1, 1, "e"),
        )],
        ck,
        lambda a: f"id{a}",
    ), lambda d, c, key: star.get(key))


# -- partial-map categories over a base with a factorization system ----------------


class ParInputError(Exception):
    def __init__(self, problems):
        super().__init__(f"{len(problems)} problem(s) with the base category")
        self.problems = problems


class ParInput(NamedTuple):
    """Base category with orthogonal classes (e_class, m_class) for building
    its category of m-partial maps."""

    cat: FinCat
    e_class: frozenset
    m_class: frozenset

    def to_jsonable(self):
        data = self.cat.to_jsonable()
        data["e_class"] = sorted(self.e_class)
        data["m_class"] = sorted(self.m_class)
        return data

    @classmethod
    def from_jsonable(cls, data):
        return cls(
            FinCat.from_jsonable(data),
            frozenset(int_list(data["e_class"], "e_class")),
            frozenset(int_list(data["m_class"], "m_class")),
        )


def pullback(cat: FinCat, f, g):
    """A pullback of the cospan (f, g), as (apex, leg to dom f, leg to dom g):
    the first universal cone (w, p, q), f o p = g o q, by w, then p, then q;
    None when there is none.

    The table is a category, which validate_par_input checks first, so
    h -> (p o h, q o h) sends hom(v, w) into the cones at v, as
    f o p o h = g o q o h.  The cone is universal when every cone at every v
    has exactly one preimage, that is, when each of these maps is a
    bijection: injective, with |hom(v, w)| the number of cones at v.
    """
    assert cat.cod[f] == cat.cod[g]
    objects = cat.objects()
    cones = []
    for v in objects:
        over = group_by(cat.hom(v, cat.dom[g]), cat.comp[g])
        cones.append([(p, q) for p in cat.hom(v, cat.dom[f])
                      for q in over.get(cat.comp[f][p], ())])
    for w in objects:
        homs = [cat.hom(v, w) for v in objects]
        if any(len(hs) != len(cs) for hs, cs in zip(homs, cones)):
            continue
        for p, q in cones[w]:
            if all(len({(cat.comp[p][h], cat.comp[q][h]) for h in hs}) == len(hs)
                   for hs in homs):
                return (w, p, q)
    return None


def validate_par_input(inp: ParInput):
    """All preconditions for the partial-map construction.

    Returns (problems, pullbacks): the problem list, empty when the input is
    suitable, and the pullbacks of m_class morphisms found on the way, keyed
    by (along, m).
    """
    cat = inp.cat
    report = cat.check()
    if not report.ok:
        return [{"problem": "base is not a category",
                 "violations": report.structural + report.law}], {}
    problems = []
    n = cat.n_morphisms
    for name, cls_ in (("e_class", inp.e_class), ("m_class", inp.m_class)):
        for x in cls_:
            if not (0 <= x < n):
                problems.append({"problem": f"dangling id in {name}", "id": x})
                return problems, {}
    isos = cat.isos()
    for i in sorted(isos):
        if i not in inp.e_class or i not in inp.m_class:
            problems.append({"problem": "isomorphism missing from a class", "id": i})
    for name, cls_ in (("e_class", inp.e_class), ("m_class", inp.m_class)):
        problems += [{"problem": f"{name} not closed under composition",
                      "pair": [g, f]} for g, f in closure_failures(cat, cls_)]
    # unique (e, m) factorization of every morphism
    e_by_cod = group_by(sorted(inp.e_class), cat.cod)
    factorizations = {}  # m o e -> its pairs (m, e), by m and then e
    for m in sorted(inp.m_class):
        for e in e_by_cod.get(cat.dom[m], ()):
            factorizations.setdefault(cat.comp[m][e], []).append((m, e))
    for f in cat.morphisms():
        pairs = factorizations.get(f)
        if not pairs:
            problems.append({"problem": "no (e, m) factorization", "morphism": f})
            continue
        m0, e0 = pairs[0]
        for (m1, e1) in pairs[1:]:
            conjugate = any(
                cat.comp[m1][i] == m0 and cat.comp[i][e0] == e1
                for i in cat.isos_into(cat.dom[m1])
                if cat.dom[i] == cat.dom[m0]
            )
            if not conjugate:
                problems.append(
                    {"problem": "non-isomorphic (e, m) factorizations",
                     "morphism": f, "pairs": [[m0, e0], [m1, e1]]}
                )
                break
    # m_class morphisms are monomorphisms
    for m in sorted(inp.m_class):
        row = cat.comp[m]
        for w in cat.objects():
            seen = {}
            for x in cat.hom(w, cat.dom[m]):
                v = row[x]
                if v in seen:
                    problems.append(
                        {"problem": "m_class morphism not monic",
                         "m": m, "pair": [seen[v], x]}
                    )
                    break
                seen[v] = x
    # pullbacks of m_class along arbitrary morphisms, with m-side projection
    # again in m_class
    pb_cache = {}
    for m in sorted(inp.m_class):
        for f in cat.into[cat.cod[m]]:
            pb = pullback(cat, f, m)
            if pb is None:
                problems.append(
                    {"problem": "missing pullback of an m_class morphism",
                     "m": m, "along": f}
                )
                continue
            (w, p, q) = pb
            if p not in inp.m_class:
                problems.append(
                    {"problem": "pullback projection not in m_class",
                     "m": m, "along": f, "projection": p}
                )
            pb_cache[(f, m)] = pb
    return problems, pb_cache


def build_par(inp: ParInput) -> MRStructure:
    """Category of m-partial maps of the base: morphisms are iso-classes of
    spans whose left leg is in m_class, composed by pullback.  Its embeddings
    are the total spans (i, m), i an iso and m in m_class, each retracted by
    the span (m, i).

    Composition only looks its pullback up.  Every key (m, f) has m = m0 o i
    for some m0 in m_class and iso i, and validate_par_input has checked
    that m_class holds the isos and is closed under composition, so m is in
    m_class.  A composable pair (m2, f2) o (m1, f1) has cod f1 = cod m2, and
    validate_par_input has either cached a pullback of (f1, m2) or reported
    it missing, in which case build_par has raised already.
    """
    problems, pb_cache = validate_par_input(inp)
    if problems:
        raise ParInputError(problems)
    cat = inp.cat

    def canonical(m, f):
        best = None
        for i in cat.isos_into(cat.dom[m]):
            cand = (cat.comp[m][i], cat.comp[f][i])
            if best is None or cand < best:
                best = cand
        return best

    def compose_keys(gkey, fkey):
        (m2, f2), (m1, f1) = gkey, fkey
        w, p, q = pb_cache[(f1, m2)]
        return canonical(cat.comp[m1][p], cat.comp[f2][q])

    def retraction(d, c, key):
        i, m = key
        return canonical(m, i) if i in cat.isos() and m in inp.m_class else None

    spans = [canonical(m, f) for m in sorted(inp.m_class)
             for f in cat.outof[cat.dom[m]]]
    return split_embeddings(*table_category(
        list(cat.obj_labels),
        [(cat.cod[m], cat.cod[f], (m, f),
          f"[{cat.mor_labels[m]}|{cat.mor_labels[f]}]") for m, f in spans],
        compose_keys,
        lambda a: canonical(cat.identity(a), cat.identity(a)),
    ), retraction)


# -- stock base categories for build_par --------------------------------------------


def total_maps(m, n):
    """All functions {1..m} -> {1..n} as tuples."""
    return sorted(itertools.product(range(1, n + 1), repeat=m))


def build_finset_input(n_max) -> ParInput:
    """Finite sets with all functions, factored as surjections then injections."""
    cat, index = tuple_category(
        [str(k) for k in range(n_max + 1)],
        total_maps,
        compose_partial,
        lambda a: tuple(range(1, a + 1)),
    )
    e_class = [i for (d, c, t), i in index.items() if set(t) == set(range(1, c + 1))]
    m_class = [i for (d, c, t), i in index.items() if len(set(t)) == d]
    return ParInput(cat, frozenset(e_class), frozenset(m_class))


def build_fi_input(n_max) -> ParInput:
    """Finite sets with injective functions; every morphism is an embedding
    and the surjective-part class is just the bijections."""
    cat, index = tuple_category(
        [str(k) for k in range(n_max + 1)],
        lambda d, c: itertools.permutations(range(1, c + 1), d),
        compose_partial,
        lambda a: tuple(range(1, a + 1)),
    )
    e_class = [i for (d, c, t), i in index.items() if d == c]
    return ParInput(cat, frozenset(e_class), frozenset(cat.morphisms()))


def build_flinj_input(dim_max, q=2) -> ParInput:
    """Vector spaces over the prime field of size q up to dim_max, with
    injective linear maps; embeddings are everything, bijections the rest.

    The key of a map d -> c is its d-tuple of image vectors, each of length
    c.  A map is injective exactly when its q^d images are distinct.
    """

    def vectors(k):
        return list(itertools.product(range(q), repeat=k))

    def image(cols, v):
        return tuple(sum(x * y for x, y in zip(v, row)) % q for row in zip(*cols))

    cat, index = table_category(
        [str(k) for k in range(dim_max + 1)],
        [(d, c, cols, str(cols))
         for d in range(dim_max + 1) for c in range(dim_max + 1)
         for cols in itertools.product(vectors(c), repeat=d)
         if len({image(cols, v) for v in vectors(d)}) == q ** d],
        lambda g, f: tuple(image(g, col) for col in f),
        lambda a: tuple(tuple(int(i == j) for i in range(a)) for j in range(a)),
    )
    e_class = [i for (d, c, cols), i in index.items() if d == c]
    return ParInput(cat, frozenset(e_class), frozenset(cat.morphisms()))


# -- the registry of stock categories ------------------------------------------

# name -> (builder taking the size, least valid size; None when the size is
# ignored).  A stock category is added here and nowhere else.
BUILDERS = {
    "delta_bt": (build_delta_bt, 1),
    "fi_sharp": (build_fi_sharp, 0),
    "cube": (build_cube, 0),
    "pt": (lambda _size: build_pt(), None),
}


def build_stock(name, size) -> MRStructure:
    """The stock structure `name` at `size`.

    Raises ValueError for a name not in BUILDERS or a size below the
    builder's least valid size.
    """
    if name not in BUILDERS:
        raise ValueError(f"unknown builder {name}")
    builder, least = BUILDERS[name]
    if least is not None and size < least:
        raise ValueError(f"{name} requires --size >= {least}")
    return builder(size)
