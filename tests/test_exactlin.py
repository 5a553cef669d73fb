from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkequiv.exactlin import (
    PreconditionViolated,
    QMat,
    RestrictionError,
    Subspace,
    block,
    direct_sum,
    intersect_all,
    is_idempotent,
    meet_of_idempotents,
    orthogonal_idempotents,
    restrict,
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
    assert k == Subspace.spanned_by(2, QMat.from_rows([[1], [-1]]))


def test_intersect_trivial_cases():
    full = Subspace.full(3)
    s = Subspace.spanned_by(3, QMat.from_rows([[1, 0], [0, 1], [1, 1]]))
    assert full.intersect(s) == s
    l1 = Subspace.spanned_by(2, QMat.from_rows([[1], [0]]))
    l2 = Subspace.spanned_by(2, QMat.from_rows([[1], [1]]))
    assert l1.intersect(l2).dim == 0


@settings(max_examples=40)
@given(mats(5, 3), mats(5, 3))
def test_intersect_dimension_formula(a, b):
    sa = Subspace.spanned_by(5, a)
    sb = Subspace.spanned_by(5, b)
    inter = sa.intersect(sb)
    assert inter.dim == sa.dim + sb.dim - sa.sum(sb).dim
    assert sa.contains_columns(inter.basis)
    assert sb.contains_columns(inter.basis)


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
        assert ui.entry(i, i) == 1


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
    line = Subspace.spanned_by(2, QMat.from_rows([[1], [0]]))
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
    assert tr.entry(1, 0) == Fraction(1, 3)


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
    a1 = QMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    a2 = QMat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert meet_of_idempotents([a1]) == a1
    assert meet_of_idempotents([a1, a2]) == a2
    i3 = QMat.identity(3)
    assert meet_of_idempotents([i3, i3]) == i3


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


def test_zero_dimensional_shapes():
    z = QMat.zeros(0, 3)
    assert z.kernel().dim == 3
    assert z.transpose().shape == (3, 0)
    assert QMat.zeros(3, 0).mul(z).shape == (3, 3)
    assert intersect_all(0, []).dim == 0
    assert Subspace.full(0).basis.shape == (0, 0)


def test_serialization_round_trip():
    m = QMat.from_rows([["1/2", "-3"], ["0", "5/7"]])
    again = QMat.from_jsonable(m.to_jsonable())
    assert again == m
    assert m.to_jsonable() == [["1/2", "-3"], ["0", "5/7"]]
