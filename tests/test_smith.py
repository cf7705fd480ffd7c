from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from hypothesis import given, strategies as st

from posetbundle.smith import RowLattice, smith_normal_form


def det(matrix):
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def matmul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
        for row in A
    ]


def determinantal_divisors(A):
    """For k = 1 .. columns, the gcd of the k x k minors of A (0 when
    there are none, or all vanish)."""
    cols = len(A[0])
    return [
        gcd(*(int(det([[A[r][c] for c in cs] for r in rs]))
              for rs in combinations(range(len(A)), k)
              for cs in combinations(range(cols), k)))
        for k in range(1, cols + 1)
    ]


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrices)
def test_smith_normal_form_properties(A):
    D, V = smith_normal_form(A)
    assert abs(det(V)) == 1
    rows, cols = len(A), len(A[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    diag = [D[t][t] for t in range(min(rows, cols))]
    for d, d_next in zip(diag, diag[1:]):
        if d == 0:
            assert d_next == 0
        else:
            assert d_next % d == 0
    assert all(d >= 0 for d in diag)
    # D = U A V for some unimodular U, checked without U: d1...dk is the
    # k-th determinantal divisor of A, and the rows of A V lie in the row
    # lattice of D.
    for k, divisor in enumerate(determinantal_divisors(A)[:len(diag)], 1):
        assert prod(diag[:k]) == divisor
    moduli = diag + [0] * (cols - len(diag))
    for row in matmul(A, V):
        assert all((x % d if d else x) == 0 for x, d in zip(row, moduli))


def test_known_invariants():
    assert RowLattice([], 3).invariant_factors() == [0, 0, 0]
    assert RowLattice([[2]], 1).invariant_factors() == [2]
    assert RowLattice([[1, 0], [0, 2]], 3).invariant_factors() == [2, 0]
    # Z^2 / <(2,0),(0,3)> = Z/6
    assert RowLattice([[2, 0], [0, 3]], 2).invariant_factors() == [6]
    assert RowLattice([[2, 0], [0, 3]], 2).divisors == [1, 6]
    assert RowLattice([[0, 0], [0, 0]], 2).divisors == []


def test_row_lattice_membership():
    rows = [[2, 0], [0, 2]]
    assert [2, 2] in RowLattice(rows, 2)
    assert [0, 0] in RowLattice(rows, 2)
    assert [-4, 2] in RowLattice(rows, 2)
    assert [1, 0] not in RowLattice(rows, 2)
    assert [2, 1] not in RowLattice(rows, 2)
    assert [0, 0] in RowLattice([], 2)
    assert [1] not in RowLattice([], 1)
    assert [3, 3] in RowLattice([[1, 1]], 2)
    assert [1, 0] not in RowLattice([[1, 1]], 2)


@given(
    small_matrices,
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_integer_row_combinations_are_members(A, coeffs):
    coeffs = (coeffs + [0] * len(A))[: len(A)]
    vector = [
        sum(c * row[j] for c, row in zip(coeffs, A))
        for j in range(len(A[0]))
    ]
    assert vector in RowLattice(A, len(vector))


@given(
    small_matrices,
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.integers(-1, 1), min_size=4, max_size=4),
)
def test_membership_matches_determinantal_divisors(A, coeffs, offset):
    """v is in the row lattice of A exactly when appending v to A keeps
    every determinantal divisor: a differential for both verdicts."""
    vector = [
        sum(c * row[j] for c, row in zip(coeffs, A)) + offset[j]
        for j in range(len(A[0]))
    ]
    expected = determinantal_divisors(A) == determinantal_divisors(A + [vector])
    assert (vector in RowLattice(A, len(vector))) == expected
