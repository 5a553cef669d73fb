"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact rational arithmetic, so every tolerance here is zero:
equalities of matrices, dimension vectors, and morphism sets are on the
nose.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from math import comb

from dkequiv.builders import build_cube, build_delta_bt, build_fi_sharp, build_pt
from dkequiv.cli import main
from dkequiv.equivalence import certify_functor, theta_matrix
from dkequiv.exactlin import PreconditionViolated, QMat, orthogonal_idempotents
from dkequiv.functors import random_invertible, random_pointed_functor
from dkequiv.structure import check_assumptions, verify_coend_bijections

from conftest import negative_controls


def _decode(cat, f):
    lab = cat.mor_labels[f]
    return tuple(int(x) for x in lab.split(",")) if lab and lab != "()" else ()


def test_criterion_1_assumption_suite():
    budget = 60.0
    for name, build in [
        ("delta_bt(5)", lambda: build_delta_bt(5)),
        ("fi_sharp(4)", lambda: build_fi_sharp(4)),
        ("cube(3)", lambda: build_cube(3)),
        ("pt", build_pt),
    ]:
        s = build()
        t0 = time.monotonic()
        report = check_assumptions(s)
        elapsed = time.monotonic() - t0
        assert report.passed, (name, report.to_jsonable())
        assert elapsed < budget, (name, elapsed)
    print("PASS criterion 1: all axiom suites pass within the time budget")


def test_criterion_2_characterizations(delta5, fi4, cube3):
    cat = delta5.cat
    expected = set()
    for f in cat.morphisms():
        t = _decode(cat, f)
        d, c = cat.dom[f], cat.cod[f]
        if d == c and t == tuple(range(d + 1)):
            expected.add(f)
        elif d == c + 1 and t == (0,) + tuple(range(c + 1)):
            expected.add(f)
    assert set(delta5.r_class) == expected

    cat = fi4.cat
    expected = {
        f for f in cat.morphisms()
        if cat.dom[f] == cat.cod[f] and 0 not in _decode(cat, f)
    }
    assert set(fi4.r_class) == expected

    cat = cube3.cat
    expected = set()
    for f in cat.morphisms():
        t = _decode(cat, f)
        c = cat.cod[f]
        if set(t) == set(range(c + 2)) and all(
            x != c + 1 for x in t[1:-1]
        ):
            expected.add(f)
    assert set(cube3.r_class) == expected
    print("PASS criterion 2: irreducible classes match their exact descriptions")


def test_criterion_3_chain_roundtrip(km_delta5):
    km = km_delta5
    rng = random.Random(1303)
    for i in range(20):
        dims = tuple(rng.randint(0, 5) for _ in range(5))
        f = random_pointed_functor(km.d, dims, seed=rng.randrange(2 ** 30))
        entry = certify_functor(km, f, f"chain_{i}")
        assert entry.ok, entry.to_jsonable()
        assert entry.tilde_hat_dims == list(dims)
    print("PASS criterion 3: 20 chain-complex roundtrips are natural isomorphisms")


def test_criterion_4_species_binomial(km_fi4):
    km = km_fi4
    rng = random.Random(1404)
    for i in range(10):
        dims = tuple(rng.randint(0, 3) for _ in range(5))
        f = random_pointed_functor(km.d, dims, seed=rng.randrange(2 ** 30))
        t_dims = tuple(
            sum(comb(n, k) * dims[k] for k in range(5)) for n in range(5)
        )
        entry = certify_functor(km, f, f"species_{i}")
        assert entry.hat_dims == list(t_dims)
        assert entry.ok, entry.to_jsonable()
    print("PASS criterion 4: species transport follows the binomial transform,"
          " roundtrips certified")


def test_criterion_5_theta(km_delta5, km_fi4, km_cube3, km_pt):
    from dkequiv.equivalence import hat

    rng = random.Random(1505)
    for km in (km_delta5, km_fi4, km_cube3, km_pt):
        cat = km.structure.cat
        for i in range(10):
            dims = tuple(rng.randint(0, 2) for _ in range(cat.n_objects))
            f = random_pointed_functor(km.d, dims, seed=rng.randrange(2 ** 30))
            t = hat(km, f)
            for a in cat.objects():
                th = theta_matrix(km, t, a)
                n, rows = th.nrows, th.rows
                for r in range(n):
                    assert Fraction(rows[r][r], th.den) == 1
                    for c in range(r):
                        assert Fraction(rows[r][c], th.den) == 0
                inv = th.inverse()
                assert th.mul(inv).is_identity()
                assert inv.mul(th).is_identity()
    print("PASS criterion 5: theta is block upper-unitriangular with exact inverse")


def test_criterion_6_coend_bijections(fi3, delta4):
    for s in (fi3, delta4):
        report = verify_coend_bijections(s)
        assert report.ok
        for entry in report.entries:
            assert entry.class_count == entry.target_count
    report = verify_coend_bijections(fi3)
    assert next(e.class_count for e in report.entries
                if (e.kind, e.source, e.target) == ("right", 2, 3)) == 6
    print("PASS criterion 6: both colimit comparisons are bijections at every pair")


def _motif_valid():
    return [QMat.from_rows([[1, 1], [0, 0]]), QMat.from_rows([[1, 0], [0, 0]])]


def _motif_violating():
    return [QMat.from_rows([[1, 0], [1, 0]]), QMat.from_rows([[1, 1], [0, 0]])]


def _embed_window(blocks, dim, window, mat2):
    rows = [[blocks[i][j] for j in range(dim)] for i in range(dim)]
    for i in range(2):
        for j in range(2):
            rows[window + i][window + j] = Fraction(mat2.rows[i][j], mat2.den)
    return QMat.from_rows(rows, dim)


def _random_valid_list(rng):
    dim = rng.randint(2, 6)
    count = rng.randint(1, 4)
    p, p_inv = random_invertible(dim, rng)
    use_motif = rng.random() < 0.5 and count >= 2
    window = rng.randrange(dim - 1) if use_motif else None
    pq = sorted(rng.sample(range(count), 2)) if use_motif else None
    out = []
    for idx in range(count):
        bits = [[1 if (i == j and rng.randrange(2)) else 0 for j in range(dim)]
                for i in range(dim)]
        m = QMat.from_rows(bits, dim)
        if use_motif:
            if idx == pq[0]:
                m = _embed_window(bits, dim, window, _motif_valid()[0])
            elif idx == pq[1]:
                m = _embed_window(bits, dim, window, _motif_valid()[1])
            else:
                m = _embed_window(bits, dim, window, QMat.identity(2))
        out.append(p.mul(m).mul(p_inv))
    return out


def _random_violating_list(rng):
    dim = rng.randint(2, 6)
    count = rng.randint(2, 4)
    p, p_inv = random_invertible(dim, rng)
    window = rng.randrange(dim - 1)
    pq = sorted(rng.sample(range(count), 2))
    out = []
    for idx in range(count):
        bits = [[1 if (i == j and rng.randrange(2)) else 0 for j in range(dim)]
                for i in range(dim)]
        if idx == pq[0]:
            m = _embed_window(bits, dim, window, _motif_violating()[0])
        elif idx == pq[1]:
            m = _embed_window(bits, dim, window, _motif_violating()[1])
        else:
            m = _embed_window(bits, dim, window, QMat.identity(2))
        out.append(p.mul(m).mul(p_inv))
    return out, tuple(pq)


def test_criterion_7_idempotent_decomposition():
    rng = random.Random(1707)
    for _ in range(100):
        idems = _random_valid_list(rng)
        es = orthogonal_idempotents(idems)
        dim = idems[0].nrows
        total = QMat.zeros(dim, dim)
        for e in es:
            total = total + e
        assert total.is_identity()
        for i in range(len(es)):
            for j in range(len(es)):
                if i != j:
                    assert es[i].mul(es[j]).is_zero()
        assert sum(e.rank() for e in es) == dim
    detected = 0
    for _ in range(100):
        idems, planted = _random_violating_list(rng)
        try:
            orthogonal_idempotents(idems)
        except PreconditionViolated as exc:
            i, j = exc.pair
            # the reported witness really violates the chain condition
            prod = idems[i].mul(idems[j])
            assert idems[j].mul(prod) != prod
            assert (i, j) == planted
            detected += 1
    assert detected == 100
    print("PASS criterion 7: 100 decompositions exact, 100 violations detected"
          " with correct witnesses")


def test_criterion_8_derived_propositions(delta5, fi4, cube3, pt):
    for s in (delta5, fi4, cube3, pt):
        cat = s.cat
        der = s.derived
        mr = set()
        r_by_cod = {}
        for r in sorted(der.r_class):
            r_by_cod.setdefault(cat.cod[r], []).append(r)
        for m in sorted(s.m_class):
            for r in r_by_cod.get(cat.dom[m], ()):
                mr.add(cat.comp[m][r])
        s_by_dom = {}
        for t in sorted(der.s_class):
            s_by_dom.setdefault(cat.dom[t], []).append(t)
        violations = 0
        for u in sorted(der.s_class):
            for t in s_by_dom.get(cat.cod[u], ()):
                if cat.comp[t][u] in mr:
                    if u not in der.r_class or t not in der.r_class:
                        violations += 1
        for u in cat.morphisms():
            su_in_r = s.s_in_r(u)
            u_in_s = u in der.s_class
            for v in cat.outof[cat.cod[u]]:
                if s.s_in_r(cat.comp[v][u]):
                    if not su_in_r:
                        violations += 1
                    if u_in_s and (u not in der.r_class or not s.s_in_r(v)):
                        violations += 1
        assert violations == 0
    print("PASS criterion 8: sandwich and two-step propositions hold with"
          " zero violations, exhaustively")


def test_criterion_9_negative_controls(delta4, fi3):
    mutants = negative_controls([delta4, fi3], random.Random(1909))
    detected = sum(not (s.cat.check().ok if kind == "table" else s.validate().ok)
                   for kind, s in mutants)
    assert detected == len(mutants) == 10
    print("PASS criterion 9: 10 seeded mutations, 100% detected with witnesses")


def test_criterion_10_determinism(tmp_path):
    args = ["certify", "--name", "fi_sharp", "--size", "3", "--seeds", "3",
            "--seed", "77"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    print("PASS criterion 10: certificates are byte-identical across runs")
