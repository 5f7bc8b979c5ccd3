"""Exact integer matrix algebra: Smith normal form with unimodular certificates.

Everything here works on plain Python ints (arbitrary precision), stored as
lists of lists.  The Smith normal form routine uses a smallest-nonzero-pivot
rule, which both bounds entry growth in practice and makes the computation
deterministic.  Correctness is certified by the returned transforms rather
than by the algorithm: ``u @ a @ v == diag(divisors)`` with ``u`` and ``v``
unimodular, and callers are expected to check that product when they care.

Ranks, torsion and integer solves share one sparse elimination of
``{row: value}`` columns with +-1 pivots; only the residual block, the
columns left without a +-1 entry, goes to a dense Smith normal form.  Each
step subtracts an integer multiple of one column from another, a unimodular
column operation, so pivots and residual span the input's column lattice.
The pivot block is unit triangular on its rows and the residual is zero
there.  So the Smith form of the whole is the identity on the pivots plus
that of the residual (:func:`rank_and_torsion`), and for a ``b`` reduced
against the pivots, hence zero on their rows, b is in the column lattice of
A iff the reduced b is in that of the residual (:func:`solve_columns`): the
pivot part of a solution is forced, and the integer combination of input
columns each column carries turns the residual's solution into one for A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Exact product of two integer matrices (lists of lists)."""
    if not a:
        return []
    inner = len(a[0])
    if inner != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{inner} times {len(b)}x{len(b[0]) if b else 0}")
    cols = len(b[0]) if b else 0
    bt = [[b[i][j] for i in range(inner)] for j in range(cols)]
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def bareiss_determinant(a):
    """Fraction-free Gaussian elimination; exact determinant of a square
    integer matrix.  Independent of the SNF code paths, so it can audit them.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form ``u @ a @ v == d`` of an integer matrix.

    ``divisors`` are the nonneg diagonal entries d_1 | d_2 | ... (zeros
    trailing), ``rank`` the number of nonzero ones.  ``u`` and ``v`` are the
    unimodular row/column transforms, kept for audit.
    """

    divisors: tuple
    rank: int
    u: tuple
    v: tuple
    nrows: int
    ncols: int

    def diagonal_matrix(self):
        d = [[0] * self.ncols for _ in range(self.nrows)]
        for i, x in enumerate(self.divisors):
            d[i][i] = x
        return d

    def check(self, a):
        """True iff u*a*v reproduces the diagonal exactly."""
        u = [list(r) for r in self.u]
        v = [list(r) for r in self.v]
        return mat_mul(mat_mul(u, [list(r) for r in a]), v) == self.diagonal_matrix()


def _pivot_position(m, t, nrows, ncols):
    """Smallest |entry| > 0 in the trailing block, row-major tie-break."""
    best = None
    best_abs = None
    for i in range(t, nrows):
        row = m[i]
        for j in range(t, ncols):
            x = row[j]
            if x != 0:
                ax = -x if x < 0 else x
                if best_abs is None or ax < best_abs:
                    best, best_abs = (i, j), ax
                    if ax == 1:
                        return best
    return best


def smith_normal_form(a):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns an :class:`SNFResult`.  Divisors are normalized nonnegative and
    satisfy the divisibility chain d_1 | d_2 | ...; the transforms are
    accumulated alongside so that ``result.check(a)`` holds.

    >>> r = smith_normal_form([[2, 0], [0, 3]])
    >>> r.divisors
    (1, 6)
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    m = [[int(x) for x in row] for row in a]
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        mdst, msrc = m[dst], m[src]
        for j in range(ncols):
            mdst[j] += q * msrc[j]
        udst, usrc = u[dst], u[src]
        for j in range(nrows):
            udst[j] += q * usrc[j]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    bound = min(nrows, ncols)
    while t < bound:
        pos = _pivot_position(m, t, nrows, ncols)
        if pos is None:
            break
        i, j = pos
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        if m[t][t] < 0:
            negate_row(t)

        # Clear row/column t; remainders may force a smaller pivot, so loop.
        while True:
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    add_row(i, t, -(m[i][t] // pivot))
                    if m[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    add_col(j, t, -(m[t][j] // pivot))
                    if m[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            pos = _pivot_position(m, t, nrows, ncols)
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if m[t][t] < 0:
                negate_row(t)

        # Divisibility: fold any non-multiple of the pivot into row t and redo.
        pivot = m[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    divisors = tuple(m[i][i] for i in range(bound))
    rank = sum(1 for d in divisors if d != 0)
    return SNFResult(
        divisors=divisors,
        rank=rank,
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
        nrows=nrows,
        ncols=ncols,
    )


def _reduce(column, pivots, combo=None):
    """``column`` minus multiples of pivot columns, zero on every pivot row.

    ``pivots`` maps a row to ``(creation index, column, combination)``; a
    pivot column is zero on the rows of older pivots, so eliminating in
    creation order never brings back a row already cleared.  A given
    ``combo`` takes the same multiples of the pivots' combinations, in place.
    """
    col = dict(column)
    heap = [(pivots[r][0], r) for r in col if r in pivots]
    heapify(heap)
    while heap:
        _, r = heappop(heap)
        x = col.get(r)
        if not x:
            continue
        _, p, pc = pivots[r]
        q = x * p[r]
        for s, y in p.items():
            old = col.get(s, 0)
            new = old - q * y
            if new:
                col[s] = new
                if not old and s in pivots:
                    heappush(heap, (pivots[s][0], s))
            elif old:
                del col[s]
        if combo is not None:
            for s, y in pc.items():
                combo[s] = combo.get(s, 0) - q * y
    return col


def _eliminate(columns, track):
    """Unit-pivot elimination: ``(pivots, rows, residual, combinations)``.

    A reduced column with a +-1 entry becomes the pivot of its largest such
    row; the others are reduced again against every pivot at the end, and
    the nonzero ones form the dense ``residual`` on the sorted ``rows`` they
    touch.  With ``track`` every column carries its combination, the
    ``{input column: multiplier}`` sum it equals; without it, None.
    """
    pivots = {}
    deferred = []
    for j, column in enumerate(columns):
        combo = {j: 1} if track else None
        col = _reduce(column, pivots, combo)
        units = [r for r, x in col.items() if x == 1 or x == -1]
        if units:
            pivots[max(units)] = (len(pivots), col, combo)
        elif col:
            deferred.append((col, combo))
    residual, combos = [], []
    for col, combo in deferred:
        if col := _reduce(col, pivots, combo):
            residual.append(col)
            combos.append(combo)
    rows = sorted({r for c in residual for r in c})
    return pivots, rows, [[c.get(r, 0) for c in residual] for r in rows], combos


def rank_and_torsion(columns):
    """``(rank, torsion)`` of the integer matrix with the given sparse columns.

    Each column is a ``{row: value}`` dict.  Each unit pivot adds one to the
    rank; the Smith normal form of the residual gives the rest of the rank
    and the divisors > 1.

    >>> rank_and_torsion([{0: 2, 1: 1}, {0: 2, 1: -1}])
    (2, [4])
    """
    pivots, _, residual, _ = _eliminate(columns, track=False)
    divisors = smith_normal_form(residual).divisors
    return len(pivots) + sum(1 for d in divisors if d), [d for d in divisors if d > 1]


def solve_columns(columns, b):
    """One integer solution of ``A @ x == b``, or None when none exists.

    ``A`` is given by its sparse ``{row: value}`` columns and ``b`` is a
    ``{row: value}`` dict; the solution is the ``{column index: value}`` dict
    of its nonzero entries, in column order.  ``b`` is reduced against the
    unit pivots while tracking the multiples taken; only the residual block
    and what is left of ``b`` go to a dense Smith normal form solve.

    >>> solve_columns([{0: 2, 1: 1}, {0: 2, 1: -1}], {0: 4})
    {0: 1, 1: 1}
    >>> solve_columns([{0: 2, 1: 1}, {0: 2, 1: -1}], {0: 2}) is None
    True
    """
    pivots, rows, residual, combos = _eliminate(columns, track=True)
    shift = {}
    rest = _reduce(b, pivots, shift)  # rest == b + A @ shift
    rhs = [rest.pop(r, 0) for r in rows]
    if any(rest.values()) or (z := _snf_solve(residual, rhs)) is None:
        return None
    x = {j: -y for j, y in shift.items()}
    for combo, zi in zip(combos, z):
        for j, y in combo.items():
            x[j] = x.get(j, 0) + zi * y
    return {j: x[j] for j in sorted(x) if x[j]}


def solve_integer_system(a, b):
    """One integer solution x of a @ x == b, or None when none exists.

    ``a`` is a list of rows; it is split into sparse columns and solved by
    :func:`solve_columns`, so no Smith normal form of the whole of ``a`` is
    taken.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError("right-hand side length mismatch")
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    columns = [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(ncols)]
    x = solve_columns(columns, dict(enumerate(b)))
    return None if x is None else [x.get(j, 0) for j in range(ncols)]


def _snf_solve(a, b):
    """One integer solution of the dense system ``a @ x == b`` from the
    Smith form of ``a``, free coordinates zero; None when none exists."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    res = smith_normal_form(a)
    ub = [sum(res.u[i][j] * b[j] for j in range(nrows)) for i in range(nrows)]
    y = [0] * ncols
    for i in range(nrows):
        d = res.divisors[i] if i < len(res.divisors) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            if i < ncols:
                y[i] = ub[i] // d
    return [sum(res.v[i][j] * y[j] for j in range(ncols)) for i in range(ncols)]


def fraction_matrix_det(a):
    """Determinant over Q, for small audit matrices."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det
