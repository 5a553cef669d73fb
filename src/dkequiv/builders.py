"""Builders for the concrete categories the toolkit is exercised on.

Each builder emits an MRStructure whose composition table is generated from
an explicit encoding of the morphisms (map tuples, spans), so tests can
recompute composites independently of the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import FinCat, TableBuilder, int_list
from .structure import MRStructure


# -- ordinals with endpoints --------------------------------------------------


def interval_maps(m, n):
    """Monotone maps {0..m-1} -> {0..n-1} preserving first and last element,
    as image tuples."""
    if m == 1:
        return [(0,)] if n == 1 else []
    mids = itertools.combinations_with_replacement(range(n), m - 2)
    return [(0,) + mid + (n - 1,) for mid in mids]


def interval_star(t, n):
    """Left adjoint of an injective endpoint-preserving map, as a tuple."""
    out = []
    for x in range(n):
        out.append(next(i for i in range(len(t)) if t[i] >= x))
    return tuple(out)


def build_delta_bt(n_max) -> MRStructure:
    """Ordinals 1..n_max with endpoint-and-order-preserving maps; embeddings
    are the injections, each retracted by its left adjoint."""
    assert n_max >= 1
    tb = TableBuilder(n_max, [str(k + 1) for k in range(n_max)])
    for d in range(n_max):
        for c in range(n_max):
            for t in interval_maps(d + 1, c + 1):
                tb.add(d, c, t, ",".join(map(str, t)) or "()")
    cat = tb.build(
        lambda g, f: tuple(g[x] for x in f),
        lambda a: tuple(range(a + 1)),
    )
    m_class = []
    star = {}
    for i, (d, c, t) in enumerate(tb.keys):
        if len(set(t)) == len(t):
            m_class.append(i)
            star[i] = tb.morphism_id(c, d, interval_star(t, c + 1))
    return MRStructure(cat, m_class, star)


# -- finite sets and partial injections ----------------------------------------


def partial_injections(m, n):
    """Partial injections {1..m} -> {1..n} as tuples, 0 marking undefined."""
    out = []
    for k in range(min(m, n) + 1):
        for defined in itertools.combinations(range(m), k):
            for image in itertools.permutations(range(1, n + 1), k):
                t = [0] * m
                for pos, val in zip(defined, image):
                    t[pos] = val
                out.append(tuple(t))
    return sorted(out)


def compose_partial(g, f):
    return tuple(g[x - 1] if x else 0 for x in f)


def build_fi_sharp(n_max) -> MRStructure:
    """Sets {1..k} for k <= n_max with injective partial functions; embeddings
    are the total injections, each retracted by its partial inverse."""
    assert n_max >= 0
    n_obj = n_max + 1
    tb = TableBuilder(n_obj, [str(k) for k in range(n_obj)])
    for d in range(n_obj):
        for c in range(n_obj):
            for t in partial_injections(d, c):
                tb.add(d, c, t, ",".join(map(str, t)) or "()")
    cat = tb.build(
        compose_partial,
        lambda a: tuple(range(1, a + 1)),
    )
    m_class = []
    star = {}
    for i, (d, c, t) in enumerate(tb.keys):
        if all(x != 0 for x in t):
            m_class.append(i)
            inv = [0] * c
            for pos, val in enumerate(t):
                inv[val - 1] = pos + 1
            star[i] = tb.morphism_id(c, d, tuple(inv))
    return MRStructure(cat, m_class, star)


# -- the cube category -----------------------------------------------------------


def cube_maps(k, h):
    """Maps <k> -> <h> (0 = bottom, 1..k interior, k+1 = top) preserving the
    endpoints and strictly increasing on the interior preimage."""
    out = []
    for r in range(min(k, h) + 1):
        for pos in itertools.combinations(range(1, k + 1), r):
            posset = set(pos)
            rest = [i for i in range(1, k + 1) if i not in posset]
            for img in itertools.combinations(range(1, h + 1), r):
                base = [0] * (k + 2)
                base[k + 1] = h + 1
                for p, v in zip(pos, img):
                    base[p] = v
                for assign in itertools.product((0, h + 1), repeat=len(rest)):
                    t = list(base)
                    for p, v in zip(rest, assign):
                        t[p] = v
                    out.append(tuple(t))
    return sorted(out)


def cube_star(t, k, h):
    inv = {t[i]: i for i in range(1, k + 1)}
    return tuple([0] + [inv.get(j, k + 1) for j in range(1, h + 1)] + [k + 1])


def build_cube(k_max) -> MRStructure:
    """The cube-shape category on <0>..<k_max>; embeddings are the injective
    maps, retracted by sending everything off the image to the top."""
    assert k_max >= 0
    n_obj = k_max + 1
    tb = TableBuilder(n_obj, [f"<{k}>" for k in range(n_obj)])
    for d in range(n_obj):
        for c in range(n_obj):
            for t in cube_maps(d, c):
                tb.add(d, c, t, ",".join(map(str, t)))
    cat = tb.build(
        lambda g, f: tuple(g[x] for x in f),
        lambda a: tuple(range(a + 2)),
    )
    m_class = []
    star = {}
    for i, (d, c, t) in enumerate(tb.keys):
        if all(1 <= t[x] <= c for x in range(1, d + 1)):
            m_class.append(i)
            star[i] = tb.morphism_id(c, d, cube_star(t, d, c))
    return MRStructure(cat, m_class, star)


# -- the walking split epimorphism ------------------------------------------------


def build_pt() -> MRStructure:
    """Two objects 0, 1 with a section mu: 0 -> 1, its retraction, and the
    induced idempotent on 1."""
    tb = TableBuilder(2, ["0", "1"])
    tb.add(0, 0, "id0", "id0")
    tb.add(1, 1, "id1", "id1")
    tb.add(0, 1, "mu", "mu")
    tb.add(1, 0, "mu*", "mu*")
    tb.add(1, 1, "e", "e")
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

    cat = tb.build(ck, lambda a: f"id{a}")
    id0 = tb.morphism_id(0, 0, "id0")
    id1 = tb.morphism_id(1, 1, "id1")
    mu = tb.morphism_id(0, 1, "mu")
    mus = tb.morphism_id(1, 0, "mu*")
    return MRStructure(cat, [id0, id1, mu], {id0: id0, id1: id1, mu: mus})


# -- partial-map categories over a base with a factorization system ----------------


class ParInputError(Exception):
    def __init__(self, problems):
        super().__init__(f"{len(problems)} problem(s) with the base category")
        self.problems = problems


@dataclass
class ParInput:
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
    """A pullback of the cospan (f, g), as (apex, leg to dom f, leg to dom g),
    or None when no universal cone exists."""
    assert cat.cod[f] == cat.cod[g]
    cones = []
    for w in cat.objects():
        for p in cat.hom(w, cat.dom[f]):
            for q in cat.hom(w, cat.dom[g]):
                if cat.comp[f][p] == cat.comp[g][q]:
                    cones.append((w, p, q))
    for (w, p, q) in cones:
        universal = True
        for (w2, a, b) in cones:
            mediating = [
                h
                for h in cat.hom(w2, w)
                if cat.comp[p][h] == a and cat.comp[q][h] == b
            ]
            if len(mediating) != 1:
                universal = False
                break
        if universal:
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
        for g in sorted(cls_):
            for f in sorted(cls_):
                if cat.composable(g, f) and cat.comp[g][f] not in cls_:
                    problems.append(
                        {"problem": f"{name} not closed under composition",
                         "pair": [g, f]}
                    )
    # unique (e, m) factorization of every morphism
    for f in cat.morphisms():
        pairs = []
        for m in sorted(inp.m_class):
            if cat.cod[m] != cat.cod[f]:
                continue
            for e in sorted(inp.e_class):
                if cat.dom[e] == cat.dom[f] and cat.cod[e] == cat.dom[m]:
                    if cat.comp[m][e] == f:
                        pairs.append((m, e))
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
        a = cat.dom[m]
        row = cat.comp[m]
        for w in cat.objects():
            hom_wa = cat.hom(w, a)
            seen = {}
            for x in hom_wa:
                v = row[x]
                if v in seen and seen[v] != x:
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
        for f in cat.morphisms():
            if cat.cod[f] != cat.cod[m]:
                continue
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
    spans whose left leg is in m_class, composed by pullback."""
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

    tb = TableBuilder(cat.n_objects, list(cat.obj_labels))
    for m in sorted(inp.m_class):
        for f in cat.morphisms_from(cat.dom[m]):
            key = canonical(m, f)
            tb.add(
                cat.cod[m],
                cat.cod[f],
                key,
                f"[{cat.mor_labels[key[0]]}|{cat.mor_labels[key[1]]}]",
            )

    def compose_keys(gkey, fkey):
        m2, f2 = gkey
        m1, f1 = fkey
        pb = pb_cache.get((f1, m2))
        if pb is None:
            pb = pullback(cat, f1, m2)
            if pb is None:
                raise ParInputError(
                    [{"problem": "missing pullback during composition",
                      "cospan": [f1, m2]}]
                )
            pb_cache[(f1, m2)] = pb
        (w, p, q) = pb
        return canonical(cat.comp[m1][p], cat.comp[f2][q])

    par_cat = tb.build(
        compose_keys,
        lambda a: canonical(cat.identity(a), cat.identity(a)),
    )
    m_class_par = []
    star = {}
    for m in sorted(inp.m_class):
        u = cat.dom[m]
        emb = tb.morphism_id(u, cat.cod[m], canonical(cat.identity(u), m))
        if emb not in star:
            m_class_par.append(emb)
            star[emb] = tb.morphism_id(
                cat.cod[m], u, canonical(m, cat.identity(u))
            )
    return MRStructure(par_cat, sorted(m_class_par), star)


# -- stock base categories for build_par --------------------------------------------


def total_maps(m, n):
    """All functions {1..m} -> {1..n} as tuples."""
    return sorted(itertools.product(range(1, n + 1), repeat=m))


def build_finset_input(n_max) -> ParInput:
    """Finite sets with all functions, factored as surjections then injections."""
    n_obj = n_max + 1
    tb = TableBuilder(n_obj, [str(k) for k in range(n_obj)])
    for d in range(n_obj):
        for c in range(n_obj):
            for t in total_maps(d, c):
                if d > 0 and c == 0:
                    continue
                tb.add(d, c, t, ",".join(map(str, t)) or "()")
    cat = tb.build(
        lambda g, f: tuple(g[x - 1] for x in f),
        lambda a: tuple(range(1, a + 1)),
    )
    e_class, m_class = [], []
    for i, (d, c, t) in enumerate(tb.keys):
        if set(t) == set(range(1, c + 1)):
            e_class.append(i)
        if len(set(t)) == d:
            m_class.append(i)
    return ParInput(cat, frozenset(e_class), frozenset(m_class))


def build_fi_input(n_max) -> ParInput:
    """Finite sets with injective functions; every morphism is an embedding
    and the surjective-part class is just the bijections."""
    n_obj = n_max + 1
    tb = TableBuilder(n_obj, [str(k) for k in range(n_obj)])
    for d in range(n_obj):
        for c in range(n_obj):
            for t in total_maps(d, c):
                if len(set(t)) == d:
                    tb.add(d, c, t, ",".join(map(str, t)) or "()")
    cat = tb.build(
        lambda g, f: tuple(g[x - 1] for x in f),
        lambda a: tuple(range(1, a + 1)),
    )
    e_class = [i for i, (d, c, t) in enumerate(tb.keys) if d == c]
    m_class = list(cat.morphisms())
    return ParInput(cat, frozenset(e_class), frozenset(m_class))


def _ffield_rank(vectors, q):
    """Rank over the prime field of size q of a list of vectors."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def build_flinj_input(dim_max, q=2) -> ParInput:
    """Vector spaces over the prime field of size q up to dim_max, with
    injective linear maps; embeddings are everything, bijections the rest.

    The key of a map d -> c is its d-tuple of image vectors, each of length c.
    """
    n_obj = dim_max + 1
    tb = TableBuilder(n_obj, [str(k) for k in range(n_obj)])
    for d in range(n_obj):
        for c in range(n_obj):
            for cols in itertools.product(
                itertools.product(range(q), repeat=c), repeat=d
            ):
                if d == 0 or _ffield_rank(cols, q) == d:
                    tb.add(d, c, cols, str(cols))

    def compose(g, f):
        out = []
        for col in f:
            acc = [0] * (len(g[0]) if g else 0)
            for coeff, gcol in zip(col, g):
                for i, x in enumerate(gcol):
                    acc[i] = (acc[i] + coeff * x) % q
            out.append(tuple(acc))
        return tuple(out)

    cat = tb.build(
        compose,
        lambda a: tuple(
            tuple(1 if i == j else 0 for i in range(a)) for j in range(a)
        ),
    )
    e_class = [i for i, (d, c, t) in enumerate(tb.keys) if d == c]
    m_class = list(cat.morphisms())
    return ParInput(cat, frozenset(e_class), frozenset(m_class))


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
