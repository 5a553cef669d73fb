"""Exact rational matrices and subspaces.

Everything here is over Q with zero tolerance: a matrix stores only its
nonzero entries, as integers over one positive common denominator, in a
canonical reduced form so that equality of values is equality of the
representation.  Every operation, elimination included, reads and writes
only stored entries.  Degenerate shapes (0 x n, n x 0) are legal everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm


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
    """x as a Fraction; bools, floats and other types raise TypeError.

    A string is "n", "n/d" or a decimal.  One with an exponent raises
    ValueError before Fraction sees it: Fraction("1e2000000") builds a
    6.6M-bit integer, and a few more digits of exponent exhaust the memory.
    """
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(f"matrix entry {x!r}: exponents are not accepted")
    if isinstance(x, (Fraction, str)) or type(x) is int:
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QMat:
    """Immutable exact rational matrix: sparse integer rows over one denominator.

    sparse[i] holds row i's nonzero entries as (column, integer) pairs by
    ascending column, over den > 0, with gcd(den, entries) = 1: a unique form.
    """

    __slots__ = ("nrows", "ncols", "den", "sparse")

    def __init__(self, nrows, ncols, sparse, den=1):
        assert nrows >= 0 and ncols >= 0 and den > 0
        self.nrows, self.ncols = nrows, ncols
        sparse, g = tuple(sparse), den
        for row in sparse:
            if g == 1:
                break
            g = gcd(g, *[x for _, x in row])
        if g > 1:
            sparse = tuple(tuple((j, x // g) for j, x in row) for row in sparse)
            den //= g
        self.sparse = sparse
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, ncols=None):
        """The matrix of dense rows of ints, Fractions or fraction strings."""
        rows = [[_as_fraction(x) for x in row] for row in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError(f"rows of a matrix with {ncols} columns differ in length")
        den = lcm(*(x.denominator for row in rows for x in row))
        return cls(len(rows), ncols, [
            tuple((j, x.numerator * (den // x.denominator))
                  for j, x in enumerate(row) if x) for row in rows
        ], den)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols, ((),) * nrows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [((i, 1),) for i in range(n)])

    # -- basic access ------------------------------------------------------

    @property
    def rows(self):
        """Dense read-only view: rows of ncols integers over den.  It builds
        every zero, so no operation here reads it."""
        cols, zeros = range(self.ncols), (0,) * self.ncols
        return tuple(tuple(map(dict(row).get, cols, zeros)) for row in self.sparse)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return not any(self.sparse)

    def is_identity(self):
        """The canonical identity has den 1 and row i equal to ((i, 1),)."""
        return self.nrows == self.ncols and self.den == 1 and all(
            row == ((i, 1),) for i, row in enumerate(self.sparse))

    def __eq__(self, other):
        if not isinstance(other, QMat):
            return NotImplemented
        return (self.shape, self.den, self.sparse) == (
            other.shape, other.den, other.sparse)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, self.sparse))

    def __repr__(self):
        if self.nrows * self.ncols == 0:
            return f"QMat({self.nrows}x{self.ncols})"
        return f"QMat[{'; '.join(' '.join(row) for row in self.to_jsonable())}]"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        """[1 1] times self stacked on other: mul and block sum them."""
        assert self.shape == other.shape, "shape mismatch"
        n, one = self.nrows, QMat.identity(self.nrows)
        ones = block([n], [n, n], {(0, 0): one, (0, 1): one})
        return ones.mul(block([n, n], [self.ncols], {(0, 0): self, (1, 0): other}))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        rows = [tuple((j, -x) for j, x in row) for row in self.sparse]
        return QMat(self.nrows, self.ncols, rows, self.den)

    def mul(self, other: "QMat") -> "QMat":
        """The product, touching only stored entries.

        Row i of the dense product sums a_ik times row k of other over every
        k, so over the stored (k, a) of row i alone: no entry gives the empty
        row; one gives row k of other times a != 0, with no zero; more are
        summed in a dict, dropping the sums that cancel.  All is over
        self.den * other.den, which QMat() reduces to the canonical form.
        """
        assert self.ncols == other.nrows, (
            f"cannot compose {self.shape} with {other.shape}")
        right = other.sparse
        rows = []
        for row in self.sparse:
            if not row:
                rows.append(())
            elif len(row) == 1:
                k, a = row[0]
                rows.append(right[k] if a == 1
                            else tuple((j, a * y) for j, y in right[k]))
            else:
                acc = {}
                for k, a in row:
                    for j, y in right[k]:
                        acc[j] = acc.get(j, 0) + a * y
                rows.append(tuple(sorted(kv for kv in acc.items() if kv[1])))
        return QMat(self.nrows, other.ncols, rows, self.den * other.den)

    def transpose(self):
        """Rows walked in order fill each column by ascending row; same den."""
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                cols[j].append((i, x))
        return QMat(self.ncols, self.nrows, map(tuple, cols), self.den)

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row echelon form, returned as (QMat, pivot column list).

        Gauss-Jordan on sparse integer rows, one {column: int} dict for
        each nonzero row of the matrix: each row is divided by the gcd of
        its entries; at column c, with P the least row that is not yet a
        pivot row and has an entry there and p = P[c], every other row R
        with f = R[c] != 0 becomes p R - f P, divided by its gcd; at the
        end the pivot rows, in pivot order, are each divided by its pivot,
        over the lcm of the pivots as the one denominator.  Only stored
        entries are read or written: p R - f P is R scaled by p with f P
        subtracted entry by entry, and an entry that cancels leaves the
        dict.  holders maps each column to the places of the rows with an
        entry there, so neither the pivot search nor the clearing scans the
        other rows.  No row is moved: the RREF is unique, so any choice of
        pivot row gives the same result.

        This is the Fraction algorithm on the same rows (divide the pivot
        row by its pivot, subtract F_i[c] times it from every other row
        F_i), step for step.  Invariant: each integer row R_i = l_i F_i with
        l_i != 0, and R_i is primitive or zero.  For a cleared row, with
        P = R_r, p = l_r F_r[c] and f = l_i F_i[c],
            p R_i - f P = l_i l_r F_r[c] (F_i - F_i[c] F_r / F_r[c]),
        a nonzero multiple of the new Fraction row, made primitive by the
        gcd division.  So the zero entries agree at every step, the pivots
        are the same, and R_r / R_r[c] = F_r for each pivot row at the end.
        Size: the primitive multiple of (n_j / d_j)_j has |entry j| <= |n_j|
        times the other d_k, so no integer outgrows the Fraction row it
        stands for.

        The rows that are zero at the start are set aside, and empty rows
        pad the result back to nrows.  That is the RREF of the whole matrix:
        row operations keep the row space, the nonzero rows of an RREF are
        the one reduced echelon basis of its row space and its other rows
        are zero, and the nonzero rows alone span the same row space.  (Kept
        in place, a zero row would never be a pivot and never change, its
        f being 0.)  No row but the pivot rows keeps an entry: one in
        column c would have given a pivot when c was reached, and every
        row subtracted from it later is zero in column c.
        """
        rows = []
        for row in self.sparse:
            if row:
                g = gcd(*[x for _, x in row])
                rows.append({j: x // g for j, x in row})
        n = len(rows)
        holders = {}  # column -> positions of the rows with an entry there
        for i, row in enumerate(rows):
            for j in row:
                holders.setdefault(j, set()).add(i)
        pivot_at = {}  # place of each pivot row -> its column, in pivot order
        for c in range(self.ncols):
            if len(pivot_at) == n:
                break
            at_c = holders.get(c, ())
            pr = min((i for i in at_c if i not in pivot_at), default=None)
            if pr is None:
                continue
            prow = rows[pr]
            p = prow[c]
            for i in [i for i in at_c if i != pr]:
                row = rows[i]
                f = row[c]
                new = {j: p * x for j, x in row.items()} if p != 1 else row
                for j, y in prow.items():
                    x = new.get(j, 0) - f * y
                    if x:
                        if j not in new:
                            holders[j].add(i)
                        new[j] = x
                    else:
                        del new[j]
                        holders[j].remove(i)
                g = gcd(*new.values())
                rows[i] = {j: x // g for j, x in new.items()} if g > 1 else new
            pivot_at[pr] = c
        den = lcm(*(rows[i][c] for i, c in pivot_at.items()))
        out = [()] * self.nrows
        for k, (i, c) in enumerate(pivot_at.items()):
            scale = den // rows[i][c]
            out[k] = tuple(sorted((j, x * scale) for j, x in rows[i].items()))
        return QMat(self.nrows, self.ncols, out, den), list(pivot_at.values())

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "QMat":
        assert self.nrows == self.ncols, "inverse of non-square matrix"
        try:
            return solve_exact(self, QMat.identity(self.nrows))
        except RestrictionError:
            raise SingularMatrixError(
                f"singular {self.nrows}x{self.ncols} matrix") from None

    def kernel(self) -> "Subspace":
        """Subspace {x : m x = 0} of the column-index space: column k, for
        the k-th free column fc, is den e_fc minus column fc of the RREF."""
        red, pivots = self.rref()
        free = {fc: k for k, fc in enumerate(
            c for c in range(self.ncols) if c not in pivots)}
        rows = [((free[i], red.den),) if i in free else () for i in range(self.ncols)]
        for p, row in zip(pivots, red.sparse):
            rows[p] = tuple((free[j], -x) for j, x in row if j in free)
        return Subspace(self.ncols, QMat(self.ncols, len(free), rows, red.den))

    # -- serialization -----------------------------------------------------

    def to_jsonable(self):
        """Rows of str(Fraction) of every entry: "0" where none is stored,
        and x / den in lowest terms, with "/den" only when den is not 1."""
        den = self.den
        out = [["0"] * self.ncols for _ in self.sparse]
        for line, row in zip(out, self.sparse):
            for j, x in row:
                g = gcd(x, den)
                line[j] = str(x // g) if g == den else f"{x // g}/{den // g}"
        return out

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

    Row r of block row i joins, by ascending j, row r of each nonzero block
    (i, j), its columns shifted by the widths before j and its integers
    scaled from b.den to den, the lcm of the dens; zero blocks store nothing.
    """
    row0, col0 = [0, *accumulate(heights)], [0, *accumulate(widths)]
    den = lcm(*{b.den for b in blocks.values()})
    parts = {}
    for (i, j), b in sorted(blocks.items()):
        assert b.shape == (heights[i], widths[j]), (
            f"block ({i},{j}) has shape {b.shape}, expected {(heights[i], widths[j])}")
        if any(b.sparse):
            c0, f = col0[j], den // b.den
            parts.setdefault(i, []).append(b.sparse if c0 == 0 and f == 1 else [
                tuple([(c0 + k, x * f) for k, x in row]) for row in b.sparse])
    rows = [()] * row0[-1]
    for i, part in parts.items():
        rows[row0[i]:row0[i + 1]] = [sum(r, ()) for r in zip(*part)]
    return QMat(row0[-1], col0[-1], rows, den)


def direct_sum(*mats: QMat) -> QMat:
    """The block-diagonal matrix of mats; direct_sum() is 0 x 0."""
    return block([m.nrows for m in mats], [m.ncols for m in mats],
                 {(i, i): m for i, m in enumerate(mats)})


class Subspace:
    """Subspace of Q^n given by a basis in reduced column echelon form.

    The canonical form makes subspace equality plain matrix equality.
    pivots[i] is the pivot row of basis column i.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis: QMat):
        assert basis.nrows == ambient_dim
        self.ambient_dim = ambient_dim
        self.basis, self.pivots = _column_echelon(basis)

    @classmethod
    def full(cls, n):
        return cls(n, QMat.identity(n))

    @property
    def dim(self):
        return self.basis.ncols

    def coordinates(self, v: QMat) -> QMat:
        """The X with basis X = v, read off at the pivot rows; raises
        RestrictionError when v is not in the subspace.

        Basis column i holds 1 at pivot row p_i and every other column 0
        there, so if v = basis Y, row p_i of v is row i of Y; Y is unique,
        the columns being independent.  So X, rows p_i of v, is that Y
        when v is in the subspace, and basis X != v when it is not.
        """
        assert v.nrows == self.ambient_dim
        x = QMat(self.dim, v.ncols, [v.sparse[p] for p in self.pivots], v.den)
        if self.basis.mul(x) != v:
            raise RestrictionError("vector not in the subspace")
        return x

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _column_echelon(m: QMat):
    """A basis of the column space of m in reduced column echelon form, with
    the pivot row of each of its columns.

    Its columns are independent by construction, so no rank check follows:
    they are the nonzero rows of the RREF of m^T, which span the row space
    of m^T (row operations keep it), that is the column space of m.  Row i
    of them has a 1 in pivot column p_i where every other row has a 0, so
    in a vanishing combination the coefficient of row i is its entry at
    p_i, which is 0.
    """
    red, pivots = m.transpose().rref()
    basis = QMat(len(pivots), m.nrows, red.sparse[:len(pivots)], red.den)
    return basis.transpose(), pivots


def solve_exact(a: QMat, rhs: QMat) -> QMat:
    """The unique-on-column-space X with a X = rhs; raises if inconsistent."""
    assert a.nrows == rhs.nrows
    aug = block([a.nrows], [a.ncols, rhs.ncols], {(0, 0): a, (0, 1): rhs})
    red, pivots = aug.rref()
    if any(p >= a.ncols for p in pivots):
        raise RestrictionError("right-hand side not in the column space")
    sol = [()] * a.ncols
    for row, p in zip(red.sparse, pivots):
        sol[p] = tuple((j - a.ncols, x) for j, x in row if j >= a.ncols)
    return QMat(a.ncols, rhs.ncols, sol, red.den)


def restrict(m: QMat, dom: Subspace, cod: Subspace) -> QMat:
    """Matrix of m between the given subspaces, in their basis coordinates.

    Requires m . dom to lie inside cod; a failure here means the map does not
    actually restrict and is reported, never patched.
    """
    assert m.ncols == dom.ambient_dim and m.nrows == cod.ambient_dim
    try:
        return cod.coordinates(m.mul(dom.basis))
    except RestrictionError:
        raise RestrictionError(
            f"map of shape {m.shape} does not carry the domain subspace "
            f"(dim {dom.dim}) into the codomain subspace (dim {cod.dim})"
        ) from None


# -- idempotent calculus ----------------------------------------------------


def is_idempotent(a: QMat) -> bool:
    return a.nrows == a.ncols and a.mul(a) == a


def below(x: QMat, y: QMat) -> bool:
    """x is below y when y x = x (the absorption order used throughout)."""
    return y.mul(x) == x


def orthogonal_idempotents(idems) -> list[QMat]:
    """Complete orthogonal list refining a chain-compatible idempotent list.

    Input: idempotents a_1..a_n with a_i a_j below a_j for i <= j (checked).
    Output: e_0 = a_1...a_n, e_i = (1 - a_i) a_{i+1}...a_n, e_n = 1 - a_n,
    with the completeness and orthogonality of the output asserted.  An
    empty list or matrices not all square of one size raise ValueError, never
    an assert; a failed chain condition raises PreconditionViolated.
    """
    idems = list(idems)
    if not idems:
        raise ValueError("need at least one idempotent")
    n = idems[0].nrows
    if any(a.shape != (n, n) for a in idems):
        raise ValueError(f"idempotents must all be {n} x {n} matrices")
    for i, a in enumerate(idems):
        if not is_idempotent(a):
            raise PreconditionViolated(i, i, f"matrix {i} is not idempotent")
    for i in range(len(idems)):
        for j in range(i, len(idems)):
            if not below(idems[i].mul(idems[j]), idems[j]):
                raise PreconditionViolated(i, j, f"a[{i}] a[{j}] is not below a[{j}]")
    one = QMat.identity(n)
    suffix = [one] * (len(idems) + 1)
    for k in range(len(idems) - 1, -1, -1):
        suffix[k] = idems[k].mul(suffix[k + 1])
    out = [suffix[0]]
    for i, a in enumerate(idems):
        out.append((one - a).mul(suffix[i + 1]))
    total = sum(out[1:], out[0])
    assert total == one, "orthogonal list does not sum to the identity"
    for i in range(len(out)):
        for j in range(len(out)):
            if i != j:
                assert out[i].mul(out[j]).is_zero(), f"e_{i} e_{j} != 0"
    return out
