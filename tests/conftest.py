import itertools

import pytest

from dkequiv.builders import (
    build_cube,
    build_delta_bt,
    build_fi_sharp,
    build_pt,
)
from dkequiv.equivalence import build_kernel_module
from dkequiv.exactlin import QMat, Subspace, block
from dkequiv.fincat import FinCat, table_category
from dkequiv.structure import MRStructure, StructureError, _closure_witnesses


@pytest.fixture(scope="session")
def pt():
    return build_pt()


@pytest.fixture(scope="session")
def delta3():
    return build_delta_bt(3)


@pytest.fixture(scope="session")
def delta4():
    return build_delta_bt(4)


@pytest.fixture(scope="session")
def delta5():
    return build_delta_bt(5)


@pytest.fixture(scope="session")
def fi2():
    return build_fi_sharp(2)


@pytest.fixture(scope="session")
def fi3():
    return build_fi_sharp(3)


@pytest.fixture(scope="session")
def fi4():
    return build_fi_sharp(4)


@pytest.fixture(scope="session")
def cube2():
    return build_cube(2)


@pytest.fixture(scope="session")
def cube3():
    return build_cube(3)


@pytest.fixture(scope="session")
def km_delta4(delta4):
    return build_kernel_module(delta4)


@pytest.fixture(scope="session")
def km_delta5(delta5):
    return build_kernel_module(delta5)


@pytest.fixture(scope="session")
def km_fi3(fi3):
    return build_kernel_module(fi3)


@pytest.fixture(scope="session")
def km_fi4(fi4):
    return build_kernel_module(fi4)


@pytest.fixture(scope="session")
def km_cube3(cube3):
    return build_kernel_module(cube3)


@pytest.fixture(scope="session")
def km_pt(pt):
    return build_kernel_module(pt)


def _single_entry_mutants(s, count, rng, accept):
    """count seeded single-entry mutants of s that accept passes: a
    composite redirected to another morphism with the same endpoints, or an
    embedding's retraction replaced by another retraction of it."""
    cat = s.cat
    out = []
    for _ in range(100 * count):
        if len(out) == count:
            break
        if rng.random() < 0.5:
            g = rng.randrange(cat.n_morphisms)
            f = rng.choice(cat.into[cat.dom[g]])
            h = cat.comp[g][f]
            alt = [x for x in cat.hom(cat.dom[h], cat.cod[h]) if x != h]
            if not alt:
                continue
            comp = [list(row) for row in cat.comp]
            comp[g][f] = rng.choice(alt)
            table = FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities, comp,
                           cat.obj_labels, cat.mor_labels)
            mutant = MRStructure(table, s.m_class, s.star)
        else:
            m = rng.choice(sorted(s.m_class))
            alt = [x for x in cat.hom(cat.cod[m], cat.dom[m])
                   if x != s.star[m] and cat.comp[x][m] == cat.identity(cat.dom[m])]
            if not alt:
                continue
            mutant = MRStructure(cat, s.m_class, {**s.star, m: rng.choice(alt)})
        if accept(mutant):
            out.append(mutant)
    return out


def negative_controls(sources, rng, count=10):
    """count seeded single-entry mutants, made from each of sources in
    turn, as acceptance criterion 9 and the axioms benchmark make them:
    ("table", s) with a composite id o f redirected to another morphism
    parallel to f, or ("star", s) with the retraction of a non-identity
    embedding m replaced by a g for which g o m is not the identity."""
    out = []
    while len(out) < count:
        s = sources[len(out) % len(sources)]
        cat = s.cat
        if rng.randrange(2):
            f = rng.randrange(cat.n_morphisms)
            i = cat.identity(cat.cod[f])
            alt = [g for g in cat.hom(cat.dom[f], cat.cod[f]) if g != f]
            if not alt:
                continue
            comp = [list(row) for row in cat.comp]
            comp[i][f] = rng.choice(alt)
            table = FinCat(cat.n_objects, cat.dom, cat.cod, cat.identities, comp,
                           cat.obj_labels, cat.mor_labels)
            out.append(("table", MRStructure(table, s.m_class, s.star)))
        else:
            ms = [m for m in sorted(s.m_class) if not cat.is_identity(m)]
            m = rng.choice(ms)
            bad = [g for g in cat.hom(cat.cod[m], cat.dom[m])
                   if cat.comp[g][m] != cat.identity(cat.dom[m])]
            if not bad:
                continue
            out.append(("star", MRStructure(cat, s.m_class,
                                            {**s.star, m: rng.choice(bad)})))
    return out


def closed_cuts(s, count, rng):
    """count seeded cuts of s: its isomorphisms and a random subset of its
    other embeddings, closed under composition, with their retractions.
    The table is s's, so it is associative; cuts whose factorizations are
    not unique are passed over."""
    cat = s.cat
    extra = sorted(s.m_class - cat.isos())
    out = []
    for _ in range(100 * count):
        if len(out) == count:
            break
        cut = cat.isos() | set(rng.sample(extra, rng.randrange(len(extra) + 1)))
        new = cut
        while new:
            new = {cat.comp[a][b] for a in cut for b in cut
                   if cat.composable(a, b)} - cut
            cut |= new
        mutant = MRStructure(cat, cut, {m: s.star[m] for m in cut})
        try:
            mutant.parts
        except StructureError:
            continue
        out.append(mutant)
    return out


@pytest.fixture(scope="session")
def single_entry_mutants():
    """The seeded single-entry mutant generator
    single_entry_mutants(s, count, rng, accept)."""
    return _single_entry_mutants


def _intersect(u, v):
    """The intersection of two subspaces of one Q^n: the combinations of
    u's basis whose coefficients, with those of some combination of v's,
    lie in the kernel of [u.basis, -v.basis]."""
    assert u.ambient_dim == v.ambient_dim, "ambient dimension mismatch"
    a, b = u.basis, v.basis
    if a.ncols == 0 or b.ncols == 0:
        return Subspace(u.ambient_dim, QMat.zeros(u.ambient_dim, 0))
    stacked = block([u.ambient_dim], [a.ncols, b.ncols], {(0, 0): a, (0, 1): -b})
    ker = stacked.kernel().basis
    coeffs_a = QMat(a.ncols, ker.ncols, ker.sparse[:a.ncols], ker.den)
    return Subspace(u.ambient_dim, a.mul(coeffs_a))


@pytest.fixture(scope="session")
def intersect():
    """The intersection intersect(u, v) of two subspaces of one Q^n."""
    return _intersect


# The paper's propositions on the ordered idempotents of the maximal proper
# subobjects and on K's structure, computed for the tests.  Plain functions,
# not fixtures: test_builders needs restricted_to_k when it is imported.


def maximal_proper(poset):
    top = poset.top()
    out = []
    for m in poset.elements:
        if m == top:
            continue
        if all(
            n == m or n == top or not poset.leq(m, n) for n in poset.elements
        ):
            out.append(m)
    return out


def idempotent_ordering(s: MRStructure, a, cap=8):
    """Search for an ordering m_1..m_k of the maximal proper subobjects of a
    such that the idempotents c_i = m_i o star(m_i) satisfy
    c_j c_i c_j = c_j c_i whenever i < j.  Returns the ordering (list of
    representative embeddings) or None; factorial search, capped.
    """
    cat = s.cat
    poset = s.sub_poset(a)
    maxima = maximal_proper(poset)
    if len(maxima) > cap:
        raise ValueError(
            f"{len(maxima)} maximal proper subobjects exceeds the search cap {cap}"
        )
    cs = {m: cat.comp[m][s.star[m]] for m in maxima}
    for perm in itertools.permutations(maxima):
        if all(
            cat.comp[cs[mj]][cat.comp[cs[mi]][cs[mj]]] == cat.comp[cs[mj]][cs[mi]]
            for mi, mj in itertools.combinations(perm, 2)
        ):
            return list(perm)
    return None


def restricted_to_k(s: MRStructure):
    """The induced structure on the subcategory of embedding-after-retraction
    composites, with the same embeddings; returns (structure, morphism map).
    Raises StructureError with the first witness of the closure axiom when
    those composites are not closed.
    """
    cat = s.cat
    der = s.derived
    witness = next(_closure_witnesses(s, der), None)
    if witness is not None:
        raise StructureError(
            "embedding-after-retraction composites are not closed; "
            f"witness ({witness['k2']}, {witness['k']})"
        )
    kept = sorted(der.k_class)
    sub, _ = table_category(
        cat.obj_labels,
        [(cat.dom[p], cat.cod[p], p, cat.mor_labels[p]) for p in kept],
        lambda g, f: cat.comp[g][f],
        cat.identity,
    )
    old_to_new = {p: i for i, p in enumerate(kept)}
    m_new = [old_to_new[m] for m in sorted(s.m_class)]
    star_new = {old_to_new[m]: old_to_new[s.star[m]] for m in sorted(s.m_class)}
    return MRStructure(sub, m_new, star_new), old_to_new
