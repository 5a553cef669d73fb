"""Exact rational matrices and subspaces.

Everything here is over Q with zero tolerance: a matrix is stored as an
integer array together with one positive common denominator, kept in a
canonical reduced form so that equality of values is equality of the
representation.  Degenerate shapes (0 x n, n x 0) are legal everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ExactLinError(Exception):
    pass


class SingularMatrixError(ExactLinError):
    pass


class RestrictionError(ExactLinError):
    """The map does not carry the domain subspace into the codomain subspace."""


class PreconditionViolated(ExactLinError):
    def __init__(self, i, j, message):
        super().__init__(message)
        self.pair = (i, j)

    @property
    def witness(self):
        return {"pair": list(self.pair)}


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QMat:
    """Immutable exact rational matrix: integer entries over one denominator."""

    __slots__ = ("nrows", "ncols", "den", "rows")

    def __init__(self, nrows, ncols, rows, den=1, _canonical=False):
        assert nrows >= 0 and ncols >= 0 and den > 0
        self.nrows = nrows
        self.ncols = ncols
        if _canonical:
            self.rows = rows
            self.den = den
            return
        g = den
        for row in rows:
            for x in row:
                g = gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            rows = tuple(tuple(x // g for x in row) for row in rows)
            den //= g
        else:
            rows = tuple(tuple(row) for row in rows)
        self.rows = rows
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [[_as_fraction(x) for x in row] for row in rows]
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError(f"rows of a matrix with {ncols} columns differ in length")
        den = 1
        for row in rows:
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
        ints = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in rows
        )
        return cls(nrows, ncols, ints, den)

    @classmethod
    def zeros(cls, nrows, ncols):
        row = (0,) * ncols
        return cls(nrows, ncols, (row,) * nrows, 1, _canonical=True)

    @classmethod
    def identity(cls, n):
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(n, n, rows, 1, _canonical=True)

    # -- basic access ------------------------------------------------------

    def entry(self, i, j) -> Fraction:
        return Fraction(self.rows[i][j], self.den)

    def frac_rows(self):
        d = self.den
        return [[Fraction(x, d) for x in row] for row in self.rows]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def is_identity(self):
        if self.nrows != self.ncols or self.den != 1:
            return False
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
        )

    def __eq__(self, other):
        if not isinstance(other, QMat):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, self.rows))

    def __repr__(self):
        if self.nrows * self.ncols == 0:
            return f"QMat({self.nrows}x{self.ncols})"
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.ncols))
            for i in range(self.nrows)
        )
        return f"QMat[{body}]"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        assert self.shape == other.shape, "shape mismatch"
        da, db = self.den, other.den
        rows = tuple(
            tuple(x * db + y * da for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return QMat(self.nrows, self.ncols, rows, da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        rows = tuple(tuple(-x for x in row) for row in self.rows)
        return QMat(self.nrows, self.ncols, rows, self.den, _canonical=True)

    def mul(self, other: "QMat") -> "QMat":
        assert self.ncols == other.nrows, (
            f"cannot compose {self.shape} with {other.shape}"
        )
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        if other.nrows == 0:
            return QMat.zeros(self.nrows, other.ncols)
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows
        )
        return QMat(self.nrows, other.ncols, rows, self.den * other.den)

    def transpose(self):
        if self.nrows == 0:
            rows = tuple(() for _ in range(self.ncols))
            return QMat(self.ncols, 0, rows, 1, _canonical=True)
        rows = tuple(zip(*self.rows))
        return QMat(self.ncols, self.nrows, rows, self.den)

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row echelon form, returned as (QMat, pivot column list)."""
        m = self.frac_rows()
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            pr = None
            for i in range(r, nrows):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return QMat.from_rows(m, ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "QMat":
        assert self.nrows == self.ncols, "inverse of non-square matrix"
        n = self.nrows
        aug = [
            row + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(self.frac_rows())
        ]
        red, pivots = QMat.from_rows(aug, 2 * n).rref()
        if pivots != list(range(n)):
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        inv = [[red.entry(i, n + j) for j in range(n)] for i in range(n)]
        return QMat.from_rows(inv, n)

    def kernel(self) -> "Subspace":
        """Subspace {x : m x = 0} of the column-index space."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis_cols = []
        for fc in free:
            col = [Fraction(0)] * self.ncols
            col[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                col[pc] = -red.entry(r, fc)
            basis_cols.append(col)
        basis = QMat.from_rows(
            [[col[i] for col in basis_cols] for i in range(self.ncols)],
            len(basis_cols),
        )
        return Subspace(self.ncols, basis)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self):
        return [[str(self.entry(i, j)) for j in range(self.ncols)] for i in range(self.nrows)]

    @classmethod
    def from_jsonable(cls, data, ncols=None):
        """Parse a list of rows of integers or fraction strings; a
        ValueError when data is not one or its rows differ in length."""
        if type(data) is not list or not all(type(row) is list for row in data):
            raise ValueError("matrix: not a list of rows")
        return cls.from_rows(data, ncols)


def block(heights, widths, blocks) -> QMat:
    """Assemble a matrix from its nonzero blocks.

    heights and widths are the block row heights and block column widths;
    blocks maps (i, j) to the block at block row i and block column j, of
    shape (heights[i], widths[j]).  Absent blocks are zero, and zero-sized
    blocks are legal and contribute nothing.
    """
    starts = [0]
    for w in widths:
        starts.append(starts[-1] + w)
    den = 1
    for (i, j), b in blocks.items():
        assert b.shape == (heights[i], widths[j]), (
            f"block ({i},{j}) has shape {b.shape}, "
            f"expected {(heights[i], widths[j])}"
        )
        den = den * b.den // gcd(den, b.den)
    lines = [[[0] * starts[-1] for _ in range(h)] for h in heights]
    for (i, j), b in blocks.items():
        f = den // b.den
        c0, c1 = starts[j], starts[j + 1]
        for line, row in zip(lines[i], b.rows):
            line[c0:c1] = row if f == 1 else [x * f for x in row]
    rows = [line for group in lines for line in group]
    return QMat(sum(heights), starts[-1], rows, den)


def direct_sum(*mats: QMat) -> QMat:
    """The block-diagonal matrix of mats; direct_sum() is 0 x 0."""
    return block([m.nrows for m in mats], [m.ncols for m in mats],
                 {(i, i): m for i, m in enumerate(mats)})


class Subspace:
    """Subspace of Q^n given by a basis in reduced column echelon form.

    The canonical form makes subspace equality plain matrix equality.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis: QMat, _canonical=False):
        assert basis.nrows == ambient_dim
        if not _canonical:
            basis = _column_echelon(basis)
        self.ambient_dim = ambient_dim
        self.basis = basis
        assert basis.rank() == basis.ncols, "basis columns must be independent"

    @classmethod
    def full(cls, n):
        return cls(n, QMat.identity(n), _canonical=True)

    @classmethod
    def zero(cls, n):
        return cls(n, QMat.zeros(n, 0), _canonical=True)

    @classmethod
    def spanned_by(cls, ambient_dim, columns: QMat):
        return cls(ambient_dim, _column_echelon(columns))

    @property
    def dim(self):
        return self.basis.ncols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_columns(self, cols: QMat) -> bool:
        if cols.ncols == 0:
            return True
        joint = block([self.ambient_dim], [self.dim, cols.ncols],
                      {(0, 0): self.basis, (0, 1): cols})
        return joint.rank() == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim, "ambient dimension mismatch"
        a, b = self.basis, other.basis
        if a.ncols == 0 or b.ncols == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = block([self.ambient_dim], [a.ncols, b.ncols],
                        {(0, 0): a, (0, 1): -b})
        ker = stacked.kernel()
        coeffs_a = QMat.from_rows(
            [ker.basis.frac_rows()[i] for i in range(a.ncols)], ker.basis.ncols
        )
        return Subspace.spanned_by(self.ambient_dim, a.mul(coeffs_a))

    def sum(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim
        joint = block([self.ambient_dim], [self.dim, other.dim],
                      {(0, 0): self.basis, (0, 1): other.basis})
        return Subspace.spanned_by(self.ambient_dim, joint)


def intersect_all(ambient_dim, subspaces) -> Subspace:
    out = Subspace.full(ambient_dim)
    for s in subspaces:
        out = out.intersect(s)
    return out


def _column_echelon(m: QMat) -> QMat:
    red, pivots = m.transpose().rref()
    rows = [red.frac_rows()[i] for i in range(len(pivots))]
    return QMat.from_rows(rows, m.nrows).transpose() if rows else QMat.zeros(m.nrows, 0)


def solve_exact(a: QMat, rhs: QMat) -> QMat:
    """The unique-on-column-space X with a X = rhs; raises if inconsistent."""
    assert a.nrows == rhs.nrows
    aug = block([a.nrows], [a.ncols, rhs.ncols], {(0, 0): a, (0, 1): rhs})
    red, pivots = aug.rref()
    if any(p >= a.ncols for p in pivots):
        raise RestrictionError("right-hand side not in the column space")
    sol = [[Fraction(0)] * rhs.ncols for _ in range(a.ncols)]
    for r, p in enumerate(pivots):
        for j in range(rhs.ncols):
            sol[p][j] = red.entry(r, a.ncols + j)
    return QMat.from_rows(sol, rhs.ncols)


def restrict(m: QMat, dom: Subspace, cod: Subspace) -> QMat:
    """Matrix of m between the given subspaces, in their basis coordinates.

    Requires m . dom to lie inside cod; a failure here means the map does not
    actually restrict and is reported, never patched.
    """
    assert m.ncols == dom.ambient_dim and m.nrows == cod.ambient_dim
    image = m.mul(dom.basis)
    if not cod.contains_columns(image):
        raise RestrictionError(
            f"map of shape {m.shape} does not carry the domain subspace "
            f"(dim {dom.dim}) into the codomain subspace (dim {cod.dim})"
        )
    return solve_exact(cod.basis, image)


# -- idempotent calculus ----------------------------------------------------


def is_idempotent(a: QMat) -> bool:
    return a.nrows == a.ncols and a.mul(a) == a


def below(x: QMat, y: QMat) -> bool:
    """x is below y when y x = x (the absorption order used throughout)."""
    return y.mul(x) == x


def check_idempotent_chain(idems) -> None:
    """Check a_i a_j below a_j for i <= j; raise PreconditionViolated if not."""
    for i, a in enumerate(idems):
        if not is_idempotent(a):
            raise PreconditionViolated(i, i, f"matrix {i} is not idempotent")
    for i in range(len(idems)):
        for j in range(i, len(idems)):
            prod = idems[i].mul(idems[j])
            if not below(prod, idems[j]):
                raise PreconditionViolated(
                    i, j, f"a[{i}] a[{j}] is not below a[{j}]"
                )


def orthogonal_idempotents(idems) -> list[QMat]:
    """Complete orthogonal list refining a chain-compatible idempotent list.

    Input: idempotents a_1..a_n with a_i a_j below a_j for i <= j (checked).
    Output: e_0 = a_1...a_n, e_i = (1 - a_i) a_{i+1}...a_n, e_n = 1 - a_n,
    with the completeness and orthogonality of the output asserted.  An
    empty list or matrices not all square of one size raise ValueError.
    """
    idems = list(idems)
    if not idems:
        raise ValueError("need at least one idempotent")
    n = idems[0].nrows
    if any(a.shape != (n, n) for a in idems):
        raise ValueError(f"idempotents must all be {n} x {n} matrices")
    check_idempotent_chain(idems)
    one = QMat.identity(n)
    suffix = [one] * (len(idems) + 1)
    for k in range(len(idems) - 1, -1, -1):
        suffix[k] = idems[k].mul(suffix[k + 1])
    out = [suffix[0]]
    for i, a in enumerate(idems):
        out.append((one - a).mul(suffix[i + 1]))
    total = QMat.zeros(n, n)
    for e in out:
        total = total + e
    assert total == one, "orthogonal list does not sum to the identity"
    for i in range(len(out)):
        for j in range(len(out)):
            if i != j:
                assert out[i].mul(out[j]).is_zero(), f"e_{i} e_{j} != 0"
    return out


def meet_of_idempotents(idems) -> QMat:
    """Meet of a chain-compatible idempotent list: their ordered product."""
    idems = list(idems)
    assert idems
    check_idempotent_chain(idems)
    prod = idems[0]
    for a in idems[1:]:
        prod = prod.mul(a)
    assert is_idempotent(prod), "product of the list is not idempotent"
    for i, a in enumerate(idems):
        if not below(prod, a):
            raise PreconditionViolated(i, i, f"meet is not below input {i}")
    return prod
