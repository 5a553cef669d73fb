from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkequiv.exactlin import (
    PreconditionViolated,
    QMat,
    RestrictionError,
    SingularMatrixError,
    Subspace,
    below,
    block,
    direct_sum,
    is_idempotent,
    orthogonal_idempotents,
    restrict,
    solve_exact,
)

entries = st.integers(min_value=-4, max_value=4)


def mats(n, m):
    return st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(lambda rows: QMat.from_rows(rows, m))


def test_kernel_examples():
    assert QMat.zeros(3, 3).kernel().dim == 3
    assert QMat.identity(4).kernel().dim == 0
    k = QMat.from_rows([[1, 1]]).kernel()
    assert k.dim == 1
    assert k == Subspace(2, QMat.from_rows([[1], [-1]]))


def test_intersect_trivial_cases(intersect):
    full = Subspace.full(3)
    s = Subspace(3, QMat.from_rows([[1, 0], [0, 1], [1, 1]]))
    assert intersect(full, s) == s
    l1 = Subspace(2, QMat.from_rows([[1], [0]]))
    l2 = Subspace(2, QMat.from_rows([[1], [1]]))
    assert intersect(l1, l2).dim == 0


@settings(max_examples=40)
@given(mats(5, 3), mats(5, 3))
def test_intersect_dimension_formula(intersect, a, b):
    sa = Subspace(5, a)
    sb = Subspace(5, b)
    inter = intersect(sa, sb)
    joint = block([5], [sa.dim, sb.dim], {(0, 0): sa.basis, (0, 1): sb.basis})
    assert inter.dim == sa.dim + sb.dim - Subspace(5, joint).dim
    # the basis of the intersection solves into both bases
    solve_exact(sa.basis, inter.basis)
    solve_exact(sb.basis, inter.basis)


def test_block_and_direct_sum():
    assert direct_sum(QMat.identity(1), QMat.identity(2)) == QMat.identity(3)
    got = block([2], [2, 1], {(0, 0): QMat.identity(2), (0, 1): QMat.zeros(2, 1)})
    assert got.shape == (2, 3)
    # zero-sized blocks are legal and contribute nothing
    got = block([2, 0], [2, 0], {
        (0, 0): QMat.identity(2), (0, 1): QMat.zeros(2, 0),
        (1, 0): QMat.zeros(0, 2), (1, 1): QMat.zeros(0, 0),
    })
    assert got == QMat.identity(2)
    assert direct_sum() == QMat.zeros(0, 0)


def test_block_absent_blocks_are_zero():
    a = QMat.from_rows([[1, 2]])
    b = QMat.from_rows([[3], [4]])
    got = block([1, 2], [2, 1], {(0, 0): a, (1, 1): b})
    assert got == QMat.from_rows([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert got == block([1, 2], [2, 1], {
        (0, 0): a, (0, 1): QMat.zeros(1, 1), (1, 0): QMat.zeros(2, 2), (1, 1): b,
    })
    # a block row with no entries, and no blocks at all
    got = block([1, 2], [2], {(0, 0): a})
    assert got == QMat.from_rows([[1, 2], [0, 0], [0, 0]])
    assert block([2], [3], {}) == QMat.zeros(2, 3)


def test_block_mixed_denominators():
    got = block([1, 1], [1, 1], {
        (0, 0): QMat.from_rows([["1/2"]]), (1, 1): QMat.from_rows([["1/3"]]),
    })
    assert got == QMat.from_rows([["1/2", 0], [0, "1/3"]])
    assert got.den == 6
    # the common denominator is reduced with the entries
    got = block([1], [1, 1], {
        (0, 0): QMat.from_rows([["1/2"]]), (0, 1): QMat.from_rows([[2]]),
    })
    assert got == QMat.from_rows([["1/2", 2]]) and got.den == 2


def test_block_zero_sized_shapes():
    assert block([0], [3], {}).shape == (0, 3)
    assert block([3], [0], {}).shape == (3, 0)
    assert block([], [], {}) == QMat.zeros(0, 0)
    assert direct_sum(QMat.zeros(2, 0), QMat.zeros(0, 1)) == QMat.zeros(2, 1)


def test_block_rejects_wrong_shape():
    with pytest.raises(AssertionError):
        block([1], [2], {(0, 0): QMat.identity(1)})
    with pytest.raises(AssertionError):
        block([2, 1], [1], {(1, 0): QMat.identity(2)})


def test_unitriangular_integer_inverse():
    u = QMat.from_rows([[1, 2, -3], [0, 1, 7], [0, 0, 1]])
    ui = u.inverse()
    assert u.mul(ui).is_identity()
    assert ui.den == 1  # integer inverse
    for i in range(3):
        assert Fraction(ui.rows[i][i], ui.den) == 1


@settings(max_examples=30)
@given(st.integers(0, 2 ** 30))
def test_inverse_exact(seed):
    import random

    from dkequiv.functors import random_invertible

    rng = random.Random(seed)
    m = random_invertible(4, rng)
    assert m.mul(m.inverse()).is_identity()
    assert m.inverse().mul(m).is_identity()


def test_restrict_contracts():
    full2 = Subspace.full(2)
    m = QMat.from_rows([[1, 2], [3, 4]])
    assert restrict(m, full2, full2) == m
    line = Subspace(2, QMat.from_rows([[1], [0]]))
    with pytest.raises(RestrictionError):
        restrict(QMat.identity(2), full2, line)
    # restriction in coordinates: m maps the line x=0 into itself
    diag = QMat.from_rows([[2, 0], [0, 3]])
    got = restrict(diag, line, line)
    assert got == QMat.from_rows([[2]])


def test_matmul_rational_exact():
    a = QMat.from_rows([["1/2", "1/3"], [0, "2/7"]])
    b = a.inverse()
    assert a.mul(b).is_identity()
    tr = a.transpose()
    assert Fraction(tr.rows[1][0], tr.den) == Fraction(1, 3)


def test_orthogonal_idempotents_single():
    a = QMat.from_rows([[1, 0], [0, 0]])
    e = orthogonal_idempotents([a])
    assert e[0] == a
    assert e[1] == QMat.identity(2) - a


def test_orthogonal_idempotents_commuting_diagonals():
    a1 = QMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    a2 = QMat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    es = orthogonal_idempotents([a1, a2])
    assert len(es) == 3
    total = QMat.zeros(3, 3)
    for e in es:
        assert is_idempotent(e)
        total = total + e
    assert total.is_identity()
    assert sum(e.rank() for e in es) == 3


def test_orthogonal_idempotents_noncommuting_pair():
    a = QMat.from_rows([[1, 1], [0, 0]])
    b = QMat.from_rows([[1, 0], [0, 0]])
    # the chain condition b a b = a b holds even though a b != b a
    assert b.mul(a.mul(b)) == a.mul(b)
    assert a.mul(b) != b.mul(a)
    es = orthogonal_idempotents([a, b])
    for i in range(3):
        for j in range(3):
            if i != j:
                assert es[i].mul(es[j]).is_zero()
    assert sum(e.rank() for e in es) == 2


def test_precondition_violation_reported():
    a = QMat.from_rows([[1, 0], [1, 0]])
    b = QMat.from_rows([[1, 1], [0, 0]])
    assert is_idempotent(a) and is_idempotent(b)
    assert b.mul(a.mul(b)) != a.mul(b)
    with pytest.raises(PreconditionViolated) as exc:
        orthogonal_idempotents([a, b])
    assert exc.value.pair == (0, 1)
    with pytest.raises(PreconditionViolated):
        orthogonal_idempotents([QMat.from_rows([[2]])])


def test_meet_of_idempotents():
    # e_0 of the refinement is the meet a_1...a_n
    a1 = QMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    a2 = QMat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert orthogonal_idempotents([a1])[0] == a1
    assert orthogonal_idempotents([a1, a2])[0] == a2
    i3 = QMat.identity(3)
    assert orthogonal_idempotents([i3, i3])[0] == i3


_BAD_IDEMPOTENT_LISTS = {
    "empty": ([], "need at least one idempotent"),
    "I2, I3": ([[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
               "idempotents must all be 2 x 2 matrices"),
    "I3, I2": ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]]],
               "idempotents must all be 3 x 3 matrices"),
    "1 x 2": ([[[1, 0]]], "idempotents must all be 1 x 1 matrices"),
    "1 x 0": ([[[]]], "idempotents must all be 1 x 1 matrices"),
}


def test_idempotent_lists_of_wrong_shapes_raise_value_error():
    """Also under python -O, which strips every assert."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import json, sys\n"
        "from dkequiv.exactlin import QMat, orthogonal_idempotents\n"
        "for rows, _ in json.loads(sys.argv[1]).values():\n"
        "    try:\n"
        "        orthogonal_idempotents([QMat.from_rows(r) for r in rows])\n"
        "        print('no error')\n"
        "    except Exception as e:\n"
        "        print(type(e).__name__, e)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(_BAD_IDEMPOTENT_LISTS)],
        capture_output=True, text=True, env=env,
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        f"ValueError {message}" for message in
        [m for _, m in _BAD_IDEMPOTENT_LISTS.values()]
    ]
    for rows, message in _BAD_IDEMPOTENT_LISTS.values():
        with pytest.raises(ValueError) as exc:
            orthogonal_idempotents([QMat.from_rows(r) for r in rows])
        assert str(exc.value) == message


@settings(max_examples=25)
@given(mats(3, 3), mats(3, 3), mats(3, 3), mats(3, 3), mats(3, 3))
def test_absorption_transitivity_identity(a, u, b, v, c):
    # if a(ub) = ub and b(vc) = vc then a(uvc) = uvc, for arbitrary matrices
    ub = u.mul(b)
    vc = v.mul(c)
    if a.mul(ub) == ub and b.mul(vc) == vc:
        uvc = u.mul(vc)
        assert a.mul(uvc) == uvc


def _random_idempotent(rng, n):
    import random

    from dkequiv.functors import random_invertible

    p = random_invertible(n, rng)
    bits = [rng.randrange(2) for _ in range(n)]
    d = QMat.from_rows(
        [[bits[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    return p.mul(d).mul(p.inverse())


def test_conditioned_pair_gives_complete_orthogonal_triple():
    # idempotents a, b with b a b = a b yield the complete list (ab, (1-a)b, 1-b)
    import random

    rng = random.Random(11)
    found = 0
    while found < 10:
        a = _random_idempotent(rng, 3)
        b = _random_idempotent(rng, 3)
        if b.mul(a.mul(b)) != a.mul(b):
            continue
        found += 1
        one = QMat.identity(3)
        e0 = a.mul(b)
        e1 = (one - a).mul(b)
        e2 = one - b
        assert (e0 + e1 + e2).is_identity()
        for x in (e0, e1, e2):
            assert is_idempotent(x)
        for x, y in [(e0, e1), (e1, e2), (e0, e2)]:
            assert x.mul(y).is_zero() and y.mul(x).is_zero()


def test_zero_dimensional_shapes(intersect):
    z = QMat.zeros(0, 3)
    assert z.kernel().dim == 3
    assert z.transpose().shape == (3, 0)
    assert QMat.zeros(3, 0).mul(z).shape == (3, 3)
    assert intersect(Subspace.full(0), Subspace.full(0)).dim == 0
    assert Subspace.full(0).basis.shape == (0, 0)


def test_serialization_round_trip():
    m = QMat.from_rows([["1/2", "-3"], ["0", "5/7"]])
    again = QMat.from_jsonable(m.to_jsonable())
    assert again == m
    assert m.to_jsonable() == [["1/2", "-3"], ["0", "5/7"]]



def test_entries_with_an_exponent_raise_value_error():
    """Fraction would accept them, and "1e2000000" would be a 6.6M-bit
    integer; the other string forms parse as Fraction parses them."""
    for entry in ("1e3", "1E3", "-2e-1", "1e2000000", "0.5e1"):
        with pytest.raises(ValueError) as exc:
            QMat.from_rows([["0", entry]])
        assert str(exc.value) == f"matrix entry {entry!r}: exponents are not accepted"
        with pytest.raises(ValueError):
            QMat.from_jsonable([[entry]])
    assert QMat.from_rows([["3", "-3/4", "0.25", " 2 ", "-1.5"]]) == QMat.from_rows(
        [[3, Fraction(-3, 4), Fraction(1, 4), 2, Fraction(-3, 2)]])

# -- Fraction reference for elimination ---------------------------------------


def _ref_rref(rows, ncols):
    """Gauss-Jordan over Fraction: each pivot row is divided by its pivot,
    then its column is cleared from every other row."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _ref_solve(a, rhs, ncols):
    """X with a X = rhs read off the reference RREF of [a | rhs], or None."""
    red, pivots = _ref_rref([ra + rb for ra, rb in zip(a, rhs)], ncols + len(rhs[0]))
    if any(p >= ncols for p in pivots):
        return None
    sol = [[Fraction(0)] * len(rhs[0]) for _ in range(ncols)]
    for r, p in enumerate(pivots):
        sol[p] = red[r][ncols:]
    return sol


def _ref_column_echelon(rows, nrows, ncols):
    """Reduced column echelon form, as the list of its columns."""
    red, pivots = _ref_rref([list(col) for col in zip(*rows)] if rows else
                            [[] for _ in range(ncols)], nrows)
    return red[:len(pivots)]


def _ref_kernel(rows, ncols):
    """The columns of a basis of {x : a x = 0} in reduced column echelon
    form: for each free column fc, e_fc minus column fc of the RREF."""
    ref, pivots = _ref_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        col = [Fraction(0)] * ncols
        col[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            col[pc] = -ref[r][fc]
        basis.append(col)
    return _ref_column_echelon([[col[i] for col in basis] for i in range(ncols)],
                               ncols, len(free))


def _fracs(m: QMat):
    return [[Fraction(x, m.den) for x in row] for row in m.rows]


def _columns(m: QMat):
    return [list(c) for c in zip(*_fracs(m))]


def _random_rational_rows(rng, nrows, ncols):
    """Entries a/b with |a| <= 6 and 1 <= b <= 4, with zero rows, repeated
    rows and negated rows (negative pivots) mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append([Fraction(0)] * ncols)
        elif kind == 1 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == 2 and rows:
            rows.append([-x for x in rng.choice(rows)])
        else:
            rows.append([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         if rng.randrange(3) else Fraction(0)
                         for _ in range(ncols)])
    return rows


def _rational_cases(count=600):
    import random

    rng = random.Random(20141)
    for _ in range(count):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        yield rng, n, m, _random_rational_rows(rng, n, m)


def test_rref_rank_kernel_match_fraction_reference():
    for _, n, m, rows in _rational_cases():
        a = QMat.from_rows(rows, m)
        red, pivots = a.rref()
        ref, ref_pivots = _ref_rref(rows, m)
        assert pivots == ref_pivots, rows
        assert _fracs(red) == ref, rows
        assert a.rank() == len(ref_pivots)
        k = a.kernel()
        assert k.dim == m - len(ref_pivots)
        assert _columns(k.basis) == _ref_kernel(rows, m), rows


def test_solve_exact_matches_fraction_reference():
    for rng, n, m, rows in _rational_cases():
        k = rng.randint(0, 3)
        if rng.randrange(2):
            # a consistent right-hand side a x
            x = _random_rational_rows(rng, m, k)
            rhs = [[sum((rows[i][t] * x[t][j] for t in range(m)), Fraction(0))
                    for j in range(k)] for i in range(n)]
        else:
            rhs = _random_rational_rows(rng, n, k)
        a, b = QMat.from_rows(rows, m), QMat.from_rows(rhs, k)
        want = _ref_solve(rows, rhs, m) if n else [[Fraction(0)] * k] * m
        if want is None:
            with pytest.raises(RestrictionError):
                solve_exact(a, b)
        else:
            got = solve_exact(a, b)
            assert got.shape == (m, k)
            assert _fracs(got) == want, (rows, rhs)


def test_coordinates_match_solve_exact_and_fraction_reference():
    """Subspace.coordinates on the spans of the rational cases (dims 0 to
    6 of ambient dims 0 to 6), against solve_exact on the basis and the
    Fraction reference.  Half of the right-hand sides are basis x; the
    others are drawn, so most of them lie outside a proper subspace."""
    outside = 0
    for rng, n, m, rows in _rational_cases():
        sub = Subspace(n, QMat.from_rows(rows, m))
        basis, d, k = _fracs(sub.basis), sub.dim, rng.randint(0, 3)
        for i, p in enumerate(sub.pivots):
            assert basis[p] == [Fraction(int(j == i)) for j in range(d)]
        if rng.randrange(2):
            x = _random_rational_rows(rng, d, k)
            rhs = [[sum((basis[i][t] * x[t][j] for t in range(d)), Fraction(0))
                    for j in range(k)] for i in range(n)]
        else:
            rhs = _random_rational_rows(rng, n, k)
        v = QMat.from_rows(rhs, k)
        want = _ref_solve(basis, rhs, d) if n else [[Fraction(0)] * k] * d
        if want is None:
            outside += 1
            with pytest.raises(RestrictionError):
                sub.coordinates(v)
            with pytest.raises(RestrictionError):
                solve_exact(sub.basis, v)
        else:
            got = sub.coordinates(v)
            assert got == solve_exact(sub.basis, v)
            assert got.shape == (d, k) and _fracs(got) == want
    assert outside > 100


@pytest.mark.parametrize("n", [0, 1, 4])
def test_coordinates_in_the_full_and_the_zero_subspace(n):
    v = QMat.from_rows([[Fraction(i - j, j + 1) for j in range(3)] for i in range(n)], 3)
    assert Subspace.full(n).coordinates(v) == v
    zero = Subspace(n, QMat.zeros(n, 0))
    assert zero.pivots == []
    assert zero.coordinates(QMat.zeros(n, 3)) == QMat.zeros(0, 3)
    if n:
        with pytest.raises(RestrictionError):
            zero.coordinates(v)


def test_inverse_matches_fraction_reference():
    import random

    from dkequiv.functors import random_invertible

    cases = [rows for _, n, m, rows in _rational_cases() if n == m]
    rng = random.Random(7)
    for n in range(7):
        u = random_invertible(n, rng)
        cases.append([[x * Fraction(rng.randint(1, 4), rng.randint(1, 4))
                       for x in row] for row in _fracs(u)])
    singular = 0
    for rows in cases:
        n = len(rows)
        a = QMat.from_rows(rows, n)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        want = _ref_solve(rows, ident, n) if n else []
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                a.inverse()
        else:
            assert _fracs(a.inverse()) == want, rows
    assert 0 < singular < len(cases)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        QMat.from_rows([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularMatrixError):
        QMat.from_rows([["1/2", 0, 1], [0, 0, 0], [1, 1, 1]]).inverse()
    assert QMat.zeros(0, 0).inverse() == QMat.zeros(0, 0)


# -- sparse elimination against the Fraction reference -------------------------

_nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


@st.composite
def _mostly_zero(draw, nrows, ncols):
    """Fraction rows of a mostly-zero nrows x ncols matrix: at most
    nrows + ncols entries at drawn places, so zero rows fall between the
    others.  Entries are rationals of either sign, so pivots are negative
    and not 1."""
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    if nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), _nonzero)
        for i, j, x in draw(st.lists(cells, max_size=nrows + ncols)):
            rows[i][j] = x
    return rows


def _assert_elimination_matches_reference(rows, ncols, rhs, k):
    """rref, rank, kernel and solve_exact of the matrix of rows against the
    Fraction reference, with rhs (k columns) as the right-hand side."""
    a = QMat.from_rows(rows, ncols)
    red, pivots = a.rref()
    ref, ref_pivots = _ref_rref(rows, ncols)
    assert pivots == ref_pivots
    assert _fracs(red) == ref
    assert red == QMat.from_rows(ref, ncols)
    assert a.rank() == len(ref_pivots)
    assert _columns(a.kernel().basis) == _ref_kernel(rows, ncols)
    want = _ref_solve(rows, rhs, ncols) if rows else [[Fraction(0)] * k] * ncols
    b = QMat.from_rows(rhs, k)
    if want is None:
        with pytest.raises(RestrictionError):
            solve_exact(a, b)
    else:
        assert _fracs(solve_exact(a, b)) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 26), st.integers(0, 8), st.integers(0, 3), st.booleans(), st.data())
def test_sparse_elimination_matches_fraction_reference(nrows, ncols, k, consistent, data):
    """Shapes up to 26 x 8, tall thin ones such as 26 x 6 with 6 entries
    among them, as most of certify's matrices are.  Half of the
    right-hand sides are a x, so solve_exact meets both outcomes."""
    rows = data.draw(_mostly_zero(nrows, ncols))
    if consistent:
        rhs = _ref_mul(rows, data.draw(_mostly_zero(ncols, k)), nrows, k)
    else:
        rhs = data.draw(_mostly_zero(nrows, k))
    _assert_elimination_matches_reference(rows, ncols, rhs, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.booleans(), st.data())
def test_sparse_inverse_matches_fraction_reference(n, fill_diagonal, data):
    """A nonzero diagonal makes most of the matrices invertible."""
    rows = data.draw(_mostly_zero(n, n))
    if fill_diagonal:
        for i, x in enumerate(data.draw(st.lists(_nonzero, min_size=n, max_size=n))):
            rows[i][i] = x
    a = QMat.from_rows(rows, n)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    want = _ref_solve(rows, ident, n) if n else []
    if want is None:
        with pytest.raises(SingularMatrixError):
            a.inverse()
    else:
        assert _fracs(a.inverse()) == want
        assert a.mul(a.inverse()).is_identity()


@pytest.mark.parametrize("rows, ncols", [
    # a negative, non-unit pivot, a zero row between, a dependent row
    ([[-2, 4, 0], [0, 0, 0], [3, -6, 5], [-4, 8, 0]], 3),
    # the pivot of column 1 sits below a zero row and must be swapped up
    ([[0, 0, 0], [0, 0, 0], [0, -7, 1], [0, 14, "1/2"]], 3),
    # rational entries whose rows clear to primitive multiples
    ([["-3/2", "1/3", 0], [0, "-5/4", "2/7"], ["3/4", 0, "-1/6"]], 3),
    # tall and thin, nearly empty, as most of certify's matrices
    ([[0] * 6] * 9 + [[0, 0, 0, 0, -3, 0]] + [[0] * 6] * 7
     + [[5, 0, 0, 0, 0, 0], [0, 0, "2/3", 0, 0, 0]] + [[0] * 6] * 7, 6),
])
def test_elimination_examples_match_fraction_reference(rows, ncols):
    rows = [[Fraction(x) for x in row] for row in rows]
    rhs = [[Fraction(i % 3 - 1), Fraction(int(not row[-1]))] for i, row in enumerate(rows)]
    _assert_elimination_matches_reference(rows, ncols, rhs, 2)


@pytest.mark.parametrize("n, m", [(0, 0), (0, 4), (4, 0), (3, 3), (26, 6)])
def test_elimination_on_empty_and_zero_matrices(n, m):
    z = QMat.zeros(n, m)
    assert z.rref() == (z, [])
    assert z.rank() == 0
    assert z.kernel() == Subspace.full(m)
    assert Subspace(n, z).dim == 0
    assert solve_exact(z, QMat.zeros(n, 2)) == QMat.zeros(m, 2)
    if n:
        with pytest.raises(RestrictionError):
            solve_exact(z, QMat.identity(n))
    if n == m:
        if n:
            with pytest.raises(SingularMatrixError):
                z.inverse()
        else:
            assert z.inverse() == z
    _assert_elimination_matches_reference([[Fraction(0)] * m] * n, m,
                                          [[Fraction(0)]] * n, 1)


def _banded_unitriangular(n, seed):
    """n x n upper unitriangular, about 4.5 stored entries a row, like the
    Dold-Kan comparison: the rows fall into three bands, and each row of
    the first two holds 5 or 6 entries from -3..3, placed in later bands."""
    import random

    rng = random.Random(seed)
    band = [3 * i // n for i in range(n)]
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        later = [j for j in range(n) if band[j] > band[i]]
        for j in rng.sample(later, min(len(later), rng.randint(5, 6))):
            rows[i][j] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return rows


def test_inverse_of_a_large_sparse_unitriangular_matrix():
    """260 x 260, the size of theta's largest, against the reference."""
    rows = _banded_unitriangular(260, seed=17)
    theta = QMat.from_rows(rows, 260)
    assert 4.2 < sum(map(len, theta.sparse)) / 260 < 4.8
    inv = theta.inverse()
    ident = [[Fraction(int(i == j)) for j in range(260)] for i in range(260)]
    assert _fracs(inv) == _ref_solve(rows, ident, 260)
    assert theta.mul(inv).is_identity()
    assert inv.mul(theta).is_identity()


def test_unit_with_zero_subspaces_raises_with_object_witness(delta3):
    from dkequiv.equivalence import TransportError, build_kernel_module, hat, unit_with
    from dkequiv.functors import random_pointed_functor

    km = build_kernel_module(delta3, validate=False)
    f = random_pointed_functor(km.d, (0, 2, 1), seed=5)
    t = hat(km, f)
    zeros = [Subspace(n, QMat.zeros(n, 0)) for n in t.dims]
    with pytest.raises(TransportError) as exc:
        unit_with(km, f, zeros)
    assert exc.value.witness == {"object": 1}


# -- Fraction reference for products ------------------------------------------


def _ref_mul(a, b, n, m):
    """The n x m product of Fraction rows a and b, summed over the whole
    inner index, so that nothing is skipped."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(m)] for i in range(n)]


def _sparse_rows(rng, nrows, ncols, density):
    """Entries a/b with 1 <= |a| <= 6 and 1 <= b <= 4, each nonzero with
    probability density, and about one row in eight and one column in eight
    all zero."""
    zero_cols = {j for j in range(ncols) if rng.randrange(8) == 0}
    rows = []
    for _ in range(nrows):
        zero_row = rng.randrange(8) == 0
        rows.append([
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
            if not zero_row and j not in zero_cols and rng.random() < density
            else Fraction(0)
            for j in range(ncols)
        ])
    return rows


def _idempotent_rows(rng, n, density):
    """D + D N (1 - D) for a 0/1 diagonal D and a sparse N: an idempotent,
    because (1 - D) D = 0."""
    d = [rng.randrange(2) for _ in range(n)]
    nn = _sparse_rows(rng, n, n, density)
    return [[Fraction(d[i] * (int(i == j) + nn[i][j] * (1 - d[j])))
             for j in range(n)] for i in range(n)]


def _product_cases(count=720):
    """Seeded pairs (a, b) of shapes n x k and k x m with n, k, m in 0..6,
    one density per pair from 0 to 1.  One pair in three has a square
    idempotent left factor, and half of those a right factor a x, so that
    is_idempotent and below also meet true cases."""
    import random

    rng = random.Random(20142)
    for c in range(count):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        if c % 7 == 0:
            k = 0
        density = rng.choice((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
        if c % 3 == 0:
            k = n
            a = _idempotent_rows(rng, n, density)
        else:
            a = _sparse_rows(rng, n, k, density)
        b = _sparse_rows(rng, k, m, density)
        if c % 6 == 0:
            b = _ref_mul(a, b, n, m)
        yield n, k, m, a, b


def _rep(x: QMat):
    return x.shape, x.den, x.sparse


def test_mul_matches_fraction_reference():
    seen = {"inner0": 0, "idem": 0, "below": 0, "dens": set()}
    for n, k, m, a, b in _product_cases():
        qa, qb = QMat.from_rows(a, k), QMat.from_rows(b, m)
        want = QMat.from_rows(_ref_mul(a, b, n, m), m)
        got = qa.mul(qb)
        assert _rep(got) == _rep(want), (a, b)
        if k == 0:
            seen["inner0"] += 1
            assert _rep(got) == _rep(QMat.zeros(n, m))
        seen["dens"].add(got.den)
        idem = n == k and _ref_mul(a, a, n, n) == a
        assert is_idempotent(qa) == idem, a
        seen["idem"] += idem
        if n == k:
            under = _ref_mul(a, b, n, m) == b
            assert below(qb, qa) == under, (a, b)
            seen["below"] += under
    assert seen["inner0"] >= 100 and seen["idem"] >= 100 and seen["below"] >= 100
    assert len(seen["dens"]) > 10


# -- Fraction reference for the sparse storage ---------------------------------


def _assert_canonical(x: QMat):
    """The one stored form: per row, (column, nonzero int) pairs by strictly
    ascending column, over a positive den with no common factor."""
    assert x.den > 0 and len(x.sparse) == x.nrows
    values = []
    for row in x.sparse:
        assert type(row) is tuple
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < x.ncols for j in cols)
        assert all(type(v) is int and v != 0 for _, v in row)
        values += [v for _, v in row]
    assert gcd(x.den, *values) == 1


def _assert_is(x: QMat, ref, ncols):
    """x holds the Fraction rows ref, in canonical form, also as read through
    entry, the dense view and to_jsonable."""
    _assert_canonical(x)
    assert x.shape == (len(ref), ncols)
    assert _fracs(x) == ref
    assert all(type(v) is int for row in x.rows for v in row)
    assert [[Fraction(v, x.den) for v in row] for row in x.rows] == ref
    assert x.to_jsonable() == [[str(v) for v in row] for row in ref]
    want = QMat.from_rows(ref, ncols)
    assert x == want and hash(x) == hash(want) and _rep(x) == _rep(want)


def _transposed(rows, ncols):
    """The ncols rows of the transpose of Fraction rows with ncols columns."""
    return [[row[j] for row in rows] for j in range(ncols)]


def test_unary_operations_match_fraction_reference():
    """transpose, -, +, is_zero, is_identity, rref, kernel and inverse on the
    seeded product operands, and on identities with one entry changed."""
    import random

    rng = random.Random(20143)
    cases = [(a, k) for _, k, _, a, _ in _product_cases(240)]
    for n in range(5):
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        cases.append((ident, n))
        for _ in range(3):
            near = [list(row) for row in ident]
            if n:
                near[rng.randrange(n)][rng.randrange(n)] = rng.choice(
                    (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 2)))
            cases.append((near, n))
    seen = {"zero": 0, "identity": 0, "singular": 0, "invertible": 0}
    for a, k in cases:
        n = len(a)
        qa = QMat.from_rows(a, k)
        _assert_is(qa, a, k)
        _assert_is(qa.transpose(), _transposed(a, k), n)
        _assert_is(-qa, [[-x for x in row] for row in a], k)
        other = _sparse_rows(rng, n, k, rng.random())
        total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, other)]
        _assert_is(qa + QMat.from_rows(other, k), total, k)
        _assert_is(qa - qa, [[Fraction(0)] * k for _ in range(n)], k)
        zero = all(x == 0 for row in a for x in row)
        assert qa.is_zero() == zero
        seen["zero"] += zero
        ident = n == k and all(a[i][j] == (i == j) for i in range(n) for j in range(n))
        assert qa.is_identity() == ident, a
        seen["identity"] += ident
        red, pivots = qa.rref()
        ref, ref_pivots = _ref_rref(a, k)
        assert pivots == ref_pivots
        _assert_is(red, ref, k)
        _assert_is(qa.kernel().basis, _transposed(_ref_kernel(a, k), k),
                   k - len(ref_pivots))
        if n == k:
            ident_rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            want = _ref_solve(a, ident_rows, n) if n else []
            if want is None:
                seen["singular"] += 1
                with pytest.raises(SingularMatrixError):
                    qa.inverse()
            else:
                seen["invertible"] += 1
                _assert_is(qa.inverse(), want, n)
    assert all(count >= 10 for count in seen.values()), seen


def _ref_block(heights, widths, blocks):
    """The dense Fraction matrix of the blocks, zero where a block is absent."""
    rows = []
    for i, h in enumerate(heights):
        for r in range(h):
            rows.append([x for j, w in enumerate(widths)
                         for x in (blocks[(i, j)][r] if (i, j) in blocks
                                   else [Fraction(0)] * w)])
    return rows


def test_block_and_direct_sum_match_fraction_reference():
    """Seeded layouts of up to 4 x 4 blocks of sizes 0..3, each absent, a
    stored zero block, or sparse with denominators 1..4."""
    import random

    rng = random.Random(20144)
    seen = {"absent": 0, "zero": 0, "zero_sized": 0, "mixed_dens": 0}
    for _ in range(400):
        heights = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
        widths = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
        blocks, ref_blocks = {}, {}
        for i, h in enumerate(heights):
            for j, w in enumerate(widths):
                kind = rng.randrange(3)
                seen["zero_sized"] += h * w == 0
                if kind == 0:
                    seen["absent"] += 1
                    continue
                rows = (_sparse_rows(rng, h, w, rng.random()) if kind == 2
                        else [[Fraction(0)] * w for _ in range(h)])
                seen["zero"] += kind == 1
                blocks[(i, j)] = QMat.from_rows(rows, w)
                ref_blocks[(i, j)] = rows
        seen["mixed_dens"] += len({b.den for b in blocks.values()}) > 1
        # the blocks in a shuffled insertion order
        items = list(blocks.items())
        rng.shuffle(items)
        _assert_is(block(heights, widths, dict(items)),
                   _ref_block(heights, widths, ref_blocks), sum(widths))
        diag = [ref_blocks.get((i, i), [[Fraction(0)] * widths[i]] * heights[i])
                for i in range(min(len(heights), len(widths)))]
        mats = [QMat.from_rows(rows, widths[i]) for i, rows in enumerate(diag)]
        _assert_is(direct_sum(*mats), _ref_block(
            [m.nrows for m in mats], [m.ncols for m in mats],
            {(i, i): rows for i, rows in enumerate(diag)}), sum(m.ncols for m in mats))
    assert all(count >= 50 for count in seen.values()), seen


def test_one_value_one_form_whichever_operation_builds_it():
    """A product built by from_rows, by mul and by block from its four
    quarters is one stored form: ==, one hash, no stored zero."""
    import random

    rng = random.Random(20145)
    for n, k, m, a, b in _product_cases(240):
        ref = _ref_mul(a, b, n, m)
        r, c = rng.randint(0, n), rng.randint(0, m)
        quarters = {(i, j): QMat.from_rows([row[c0:c1] for row in ref[r0:r1]], c1 - c0)
                    for i, (r0, r1) in enumerate(((0, r), (r, n)))
                    for j, (c0, c1) in enumerate(((0, c), (c, m)))}
        built = [QMat.from_rows(ref, m), QMat.from_rows(a, k).mul(QMat.from_rows(b, m)),
                 block([r, n - r], [c, m - c], quarters)]
        for x in built:
            _assert_canonical(x)
            assert x == built[0] and hash(x) == hash(built[0])
            assert _rep(x) == _rep(built[0])
