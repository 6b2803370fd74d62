import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import permutation_det
from reebvol.arith import (
    basis_inverse,
    decimal_str,
    det,
    dot,
    fmt,
    inverse,
    mat_vec,
    orthogonal_complement_vector,
    primitive,
    rank_of,
    rat,
    solve,
    unimodular_completion,
    vec,
)
from reebvol.errors import DimensionMismatchError, SingularSystemError


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat("-2/4") == F(-1, 2)
    assert rat("7") == F(7)
    assert rat(5) == F(5)
    assert rat(F(1, 3)) == F(1, 3)
    with pytest.raises(ValueError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat(True)


def test_fmt_reduced_with_sign_on_numerator():
    assert fmt(F(-2, 4)) == "-1/2"
    assert fmt(F(6, 3)) == "2"
    assert fmt(F(0)) == "0"


def test_decimal_rendering():
    assert decimal_str(F(1, 3), 6) == "0.333333"
    assert decimal_str(F(-1, 2), 3) == "-0.500"
    assert decimal_str(F(2, 3), 2) == "0.67"
    assert decimal_str(F(5), 0) == "5"
    assert decimal_str(F(1, 200), 2) == "0.01"
    assert decimal_str(F(-1, 10**9), 6) == "0.000000"  # no negative zero


def test_det_identity():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert det(ident) == 1


def test_det_hand_value():
    # 0*(-1) - 1*2 by cofactor expansion
    assert det(((0, 1), (2, -1))) == -2


def test_det_repeated_row_vanishes():
    assert det(((1, 2, 3), (4, 5, 6), (1, 2, 3))) == 0


def test_det_non_square_rejected():
    with pytest.raises(DimensionMismatchError):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = tuple(
            tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
        assert det(rows) == permutation_det(rows)


def test_solve_identity():
    ident = ((1, 0), (0, 1))
    assert solve(ident, (F(3), F(-7, 2))) == (F(3), F(-7, 2))


def test_solve_hand_value():
    assert solve(((1, 1), (1, 2)), (1, 1)) == (F(1), F(0))


def test_solve_singular_rejected():
    with pytest.raises(SingularSystemError):
        solve(((1, 2), (2, 4)), (1, 1))


def test_solve_roundtrip_random():
    rng = random.Random(11)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        a = tuple(tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n))
        if det(a) == 0:
            continue
        x = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        b = mat_vec(a, x)
        assert solve(a, b) == x
        done += 1


def test_inverse():
    a = ((2, 1), (1, 1))
    inv = inverse(a)
    assert mat_vec(inv, mat_vec(a, (F(3), F(4)))) == (F(3), F(4))


def test_inverse_rational_roundtrip():
    rng = random.Random(13)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)) for _ in range(n))
        if det(a) == 0:
            with pytest.raises(SingularSystemError):
                inverse(a)
            continue
        inv = inverse(a)
        ident = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
        assert tuple(mat_vec(a, col) for col in zip(*inv)) == tuple(zip(*ident))
        done += 1


def test_basis_inverse_skips_dependent_rows():
    rows = [(1, 1, 0), (2, 2, 0), (0, 1, 0), (1, 0, 0), (0, 0, 3)]
    indices, columns = basis_inverse(rows, 3)
    assert indices == [0, 2, 4]
    for j, x in enumerate(columns):
        assert [dot(rows[i], x) > 0 if k == j else dot(rows[i], x) == 0
                for k, i in enumerate(indices)] == [True] * 3
        assert primitive(x) == x
    assert basis_inverse(rows[:4], 3) is None


def test_rank():
    assert rank_of([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert rank_of([(F(1, 2), F(1, 3))]) == 1
    assert rank_of([]) == 0


def test_primitive():
    assert primitive((F(2, 3), F(4, 3))) == (1, 2)
    assert primitive((-2, 4)) == (-1, 2)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_orthogonal_complement():
    n = orthogonal_complement_vector([(1, 1, 0), (0, 0, 1)])
    assert dot(n, (1, 1, 0)) == 0 and dot(n, (0, 0, 1)) == 0
    assert n != (0, 0, 0)


def test_vec_demands_exact_input():
    with pytest.raises(ValueError):
        vec([0.25, 1])


@st.composite
def primitive_vectors(draw):
    """A primitive integer vector of length 1-8 with zeros and negative
    entries."""
    n = draw(st.integers(1, 8))
    w = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 6, 10, -15, 35]), min_size=n, max_size=n))
    g = math.gcd(*w)
    if not g:
        w[draw(st.integers(0, n - 1))], g = draw(st.sampled_from([1, -1])), 1
    return [x // g for x in w]


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(primitive_vectors())
def test_unimodular_completion(w):
    """V W = I, and w is e_n in the columns of V: <w, V e_i> = 0 for i < n
    and <w, V e_n> = 1."""
    v, w_inv = unimodular_completion(w)
    n = len(w)
    assert [[dot(row, col) for col in zip(*w_inv)] for row in v] == [
        [int(i == j) for j in range(n)] for i in range(n)]
    assert [dot(w, col) for col in zip(*v)] == [0] * (n - 1) + [1]
    assert list(w_inv[-1]) == w
