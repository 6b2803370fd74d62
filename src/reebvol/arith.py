"""Exact rational linear algebra on immutable tuples.

Scalars are ints or `fractions.Fraction`s (reduced, denominator positive),
vectors are tuples of scalars, matrices are tuples of row tuples.  All
operations are pure and exact, so equality of results is structural.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, SingularSystemError

Scalar = Fraction
Vector = tuple
Matrix = tuple


def rat(value):
    """An exact rational from an int, a Fraction or a string "p/q", "p" or
    "0.5", "1e3" (optional sign and surrounding whitespace): an int for ints
    and integer strings, else a Fraction.  Underscores and inner whitespace
    ("2 / 3") are refused, as ``Fraction`` refuses them before Python 3.11
    and 3.12.  Floats are rejected: every quantity here is exact.
    """
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str) and "_" not in value and len(value.split()) == 1:
        try:
            return int(value)
        except ValueError:
            return Fraction(value.strip())
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def fmt(q: Fraction) -> str:
    """Serialize as "p/q" or "p", sign on the numerator only."""
    return str(Fraction(q))


def decimal_str(q: Fraction, digits: int = 6) -> str:
    """Fixed-point decimal rendering (round half away from zero).

    Presentation only; never used in comparisons.
    """
    q = Fraction(q)
    scaled = abs(q) * 10**digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    sign = "-" if q < 0 and units else ""
    if digits == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def vec(entries: Iterable) -> tuple:
    return tuple(map(rat, entries))


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def mat(rows: Iterable[Iterable]) -> tuple:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatchError("matrix rows have unequal length")
    return m


def transpose(m):
    return tuple(zip(*m))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def _require_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise DimensionMismatchError("matrix is not square")
    return n


def _integer_row(row):
    """Clear a row's denominators; returns (integer entries, the scale)."""
    if all(type(x) is int for x in row):
        return list(row), 1
    fr = [rat(x) for x in row]
    d = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (d // x.denominator) for x in fr], d


def bareiss_det(a) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    a = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det(m) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    _require_square(m)
    rows, scale = [], 1
    for row in m:
        ints, d = _integer_row(row)
        rows.append(ints)
        scale *= d
    return Fraction(bareiss_det(rows), scale)


def _cleared(row, pivot_row, col):
    """``row`` with column ``col`` eliminated against ``pivot_row`` by an
    integer combination, divided by the gcd of its entries."""
    f, g = pivot_row[col], row[col]
    out = [f * x - g * y for x, y in zip(row, pivot_row)]
    d = math.gcd(*out)
    return [x // d for x in out] if d > 1 else out


def _eliminate(rows, width, count=None, augment=False):
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Rows are taken in input order.  A row independent, in its first
    ``width`` entries, of the rows kept so far is kept (until ``count`` are
    kept); its first nonzero entry becomes its pivot, and that column is
    cleared from every other kept row.  With ``augment`` the s-th kept row
    carries the unit vector e_s in ``count`` extra columns, which then hold
    each reduced row as a combination of the kept input rows.  Returns the
    kept (input index, pivot column, reduced row) triples.
    """
    kept = []
    for i, row in enumerate(rows):
        r = list(row)
        if augment:
            r += [0] * count
            r[width + len(kept)] = 1
        for _, c, k in kept:
            if r[c]:
                r = _cleared(r, k, c)
        c = next((j for j in range(width) if r[j]), None)
        if c is None:
            continue
        kept = [(i2, c2, _cleared(k, r, c) if k[c] else k) for i2, c2, k in kept]
        kept.append((i, c, r))
        if len(kept) == count:
            break
    return kept


def solve(a, b) -> tuple:
    """Exact solution of a square nonsingular system a @ x = b, by one
    fraction-free Gauss-Jordan elimination of the augmented matrix."""
    n = _require_square(a)
    if len(b) != n:
        raise DimensionMismatchError("right-hand side length does not match")
    rows = [_integer_row(tuple(row) + (bi,))[0] for row, bi in zip(a, vec(b))]
    kept = _eliminate(rows, n)
    if len(kept) < n:
        raise SingularSystemError("matrix is singular")
    x = [None] * n
    for _, c, r in kept:
        x[c] = Fraction(r[n], r[c])
    return tuple(x)


def inverse(a) -> tuple:
    """Exact inverse of a square nonsingular matrix, by one fraction-free
    Gauss-Jordan elimination of [a | identity]."""
    n = _require_square(a)
    scaled = [_integer_row(row) for row in a]
    kept = _eliminate([ints for ints, _ in scaled], n, n, augment=True)
    if len(kept) < n:
        raise SingularSystemError("matrix is singular")
    inv = [None] * n
    for _, c, r in kept:
        inv[c] = tuple(Fraction(r[n + j] * d, r[c]) for j, (_, d) in enumerate(scaled))
    return tuple(inv)


def basis_inverse(rows, n):
    """The first n linearly independent integer rows, taken in input order,
    and the inverse of the matrix they form, from one fraction-free
    elimination.

    Returns (indices, columns): ``columns[j]`` is the primitive integer
    vector x with <rows[indices[i]], x> = 0 for i != j and > 0 for i == j, a
    positive multiple of column j of the inverse.  None when the rows span
    less than n-space.
    """
    kept = _eliminate(rows, n, n, augment=True)
    if len(kept) < n:
        return None
    scale = math.lcm(*(r[c] for _, c, r in kept))
    columns = []
    for j in range(n):
        x = [0] * n
        for _, c, r in kept:
            x[c] = r[n + j] * (scale // r[c])
        g = math.gcd(*x)
        columns.append(tuple(v // g for v in x))
    return [i for i, _, _ in kept], columns


def rank_of(vectors) -> int:
    """Rank of a list of equal-length vectors, by exact elimination."""
    rows = [_integer_row(v)[0] for v in vectors]
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0])))


def primitive(v) -> tuple:
    """Scale a nonzero rational vector to its primitive integer representative,
    preserving direction."""
    ints = _integer_row(v)[0]
    g = math.gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def unimodular_completion(w) -> tuple:
    """(V, W), as rows, for a primitive integer vector w of length n: integer
    matrices with V W = I and w V = e_n, so the last row of W is w (Cohen
    1993, section 2.4).  The column operations of the extended Euclidean
    algorithm reduce w to e_n in V; their inverse row operations build W."""
    a, n = list(w), len(w)
    cols = [[int(i == j) for j in range(n)] for i in range(n)]  # of V
    rows = [c[:] for c in cols]  # of W
    while sum(map(bool, a)) > 1:  # the least nonzero entry reduces the others
        p = min((i for i in range(n) if a[i]), key=lambda i: abs(a[i]))
        for j in range(n):
            k = a[j] // a[p]
            if j != p and k:  # column j -= k * column p
                a[j] -= k * a[p]
                cols[j] = [x - k * y for x, y in zip(cols[j], cols[p])]
                rows[p] = [x + k * y for x, y in zip(rows[p], rows[j])]
    p = next(i for i in range(n) if a[i])
    cols[p], cols[-1] = cols[-1], [a[p] * x for x in cols[p]]  # a[p] = +-1
    rows[p], rows[-1] = rows[-1], [a[p] * x for x in rows[p]]
    return transpose(cols), tuple(map(tuple, rows))


def nullspace(rows, width) -> list:
    """A basis of the integer vectors x with <row, x> = 0 for every integer
    row of length ``width``: one primitive vector per free column of the
    reduced rows, in column order, from one fraction-free elimination."""
    kept = _eliminate(rows, width)
    scale = math.lcm(*(r[c] for _, c, r in kept))
    basis = []
    for f in sorted(set(range(width)) - {c for _, c, _ in kept}):
        x = [0] * width
        x[f] = scale
        for _, c, r in kept:
            x[c] = -r[f] * (scale // r[c])
        basis.append(primitive(x))
    return basis


def orthogonal_complement_vector(rows) -> tuple:
    """For n-1 independent vectors in n-space, a primitive integer vector
    orthogonal to all of them (their nullspace); the zero vector if the
    input is dependent."""
    n = len(rows) + 1
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("need n-1 vectors of length n")
    basis = nullspace([_integer_row(r)[0] for r in rows], n)
    return basis[0] if len(basis) == 1 else (0,) * n
