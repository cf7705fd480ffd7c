"""Integer Smith normal form and lattice membership.

Used for first homology: of a poset, from its order complex's lattice
of chain boundaries (`paths._nerve`, `paths.homology_invariants`), and
of a presentation a caller builds, as the cokernel of its relator
exponent matrix (`Presentation.abelian_invariants`).  Membership in a
lattice decides whether a 1-cycle bounds, or two words abelianize equal.

The Smith form of A is D = U A V with U and V unimodular.  Both
questions read only D and V, so U, a rows x rows matrix, exists but is
never built: a presentation with thousands of relators would need
millions of entries for it.
"""

from __future__ import annotations

from operator import mul


def _add_row(m, src, dst, factor):
    m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_col(m, src, dst, factor):
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(matrix):
    """Return (D, V): D = U A V is diagonal with d1 | d2 | ... and every
    d >= 0, V is unimodular, and the unimodular U is not built.
    Accepts a list of rows (possibly empty)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    D = [list(map(int, row)) for row in matrix]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        pivot = min(((abs(D[i][j]), i, j) for i in range(t, rows)
                     for j in range(t, cols) if D[i][j]), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        D[t], D[i] = D[i], D[t]
        _swap_cols(D, t, j)
        _swap_cols(V, t, j)
        p = D[t][t]
        for i in range(t + 1, rows):
            q = D[i][t] // p
            if q:
                _add_row(D, t, i, -q)
        for j in range(t + 1, cols):
            q = D[t][j] // p
            if q:
                _add_col(D, t, j, -q)
                _add_col(V, t, j, -q)
        # A remainder is left where p did not divide: pivot on it next.
        if any(D[i][t] for i in range(t + 1, rows)) or any(D[t][t + 1:]):
            continue
        # Enforce p | D[i][j] below and right of p by adding an
        # offending row into row t, which the next round reduces.
        offending = next((i for i in range(t + 1, rows)
                          if any(x % p for x in D[i][t + 1:])), None)
        if offending is not None:
            _add_row(D, offending, t, 1)
            continue
        D[t][t] = abs(p)
        t += 1
    return D, V


class RowLattice:
    """The sublattice of Z^n spanned by the rows of an integer matrix,
    factorised once by its Smith form.

    `divisors` holds the nonzero d1 | d2 | ...; their count is the rank.
    """

    def __init__(self, matrix, n):
        # A zero row spans the zero lattice and gives the form its width.
        D, V = smith_normal_form(matrix or [[0] * n])
        self.divisors = [D[t][t] for t in range(min(len(D), len(D[0])))
                         if D[t][t]]
        self._moduli = self.divisors + [0] * (n - len(self.divisors))
        self._columns = list(zip(*V))

    def invariant_factors(self):
        """Z^n / lattice: the torsion factors (> 1), then one 0 per free
        rank."""
        return [d for d in self._moduli if d != 1]

    def __contains__(self, vector):
        # x A = v  <=>  (x U^-1) D = v V;  solvable over Z iff each
        # coordinate of v V is a multiple of its modulus (0 past the rank).
        for column, d in zip(self._columns, self._moduli):
            w = sum(map(mul, vector, column))
            if (w % d if d else w) != 0:
                return False
        return True

