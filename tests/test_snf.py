import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex.snf import (
    bareiss_determinant,
    fraction_matrix_det,
    mat_mul,
    rank_and_torsion,
    smith_normal_form,
    solve_columns,
    solve_integer_system,
)


def assert_certified(a):
    """Full audit: U A V = D, transforms unimodular, divisor chain."""
    res = smith_normal_form(a)
    assert res.check(a)
    assert abs(bareiss_determinant([list(r) for r in res.u])) == 1
    assert abs(bareiss_determinant([list(r) for r in res.v])) == 1
    nonzero = [d for d in res.divisors if d]
    assert all(d > 0 for d in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros only trail
    seen_zero = False
    for d in res.divisors:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return res


def test_diag_2_3_normalizes():
    res = assert_certified([[2, 0], [0, 3]])
    assert res.divisors == (1, 6)


def test_identity():
    res = assert_certified([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res.divisors == (1, 1, 1)
    assert res.rank == 3


def test_zero_matrix():
    res = assert_certified([[0, 0], [0, 0], [0, 0]])
    assert res.rank == 0
    assert res.divisors == (0, 0)


def test_rectangular_and_empty():
    assert_certified([[4, 6, 10]])
    assert_certified([[4], [6], [10]])
    res = smith_normal_form([])
    assert res.rank == 0 and res.divisors == ()


def test_known_invariant_factors():
    # classical exercise matrix with invariant factors 2, 6, 12
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    res = assert_certified(a)
    assert res.divisors == (2, 6, 12)
    # cross-check the product of divisors against the determinant
    det = bareiss_determinant(a)
    prod = 1
    for d in res.divisors:
        prod *= d
    assert abs(det) == prod


def test_rank_matches_numpy_on_small_entries():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        res = assert_certified(a)
        assert res.rank == np.linalg.matrix_rank(np.array(a, dtype=float))


def test_deterministic():
    rng = random.Random(11)
    a = [[rng.randint(-50, 50) for _ in range(8)] for _ in range(6)]
    r1 = smith_normal_form(a)
    r2 = smith_normal_form(a)
    assert r1 == r2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
)
def test_random_certificates(a):
    assert_certified(a)


def test_bareiss_against_fraction_elimination():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(a) == fraction_matrix_det(a)


def test_solve_integer_system():
    a = [[2, 0, 1], [0, 3, 1]]
    x = solve_integer_system(a, [5, 7])
    assert x is not None
    assert mat_mul(a, [[v] for v in x]) == [[5], [7]]
    # 2x = 1 has no integer solution
    assert solve_integer_system([[2]], [1]) is None
    # inconsistent system
    assert solve_integer_system([[1], [1]], [0, 1]) is None


def test_solve_random_consistent_systems():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x0 = [[rng.randint(-4, 4)] for _ in range(n)]
        b = [row[0] for row in mat_mul(a, x0)]
        x = solve_integer_system(a, b)
        assert x is not None
        assert mat_mul(a, [[v] for v in x]) == [[v] for v in b]


def test_entry_growth_tripwire():
    # growth regression guard: the smallest-pivot rule keeps this 12x12
    # case within ~140 digits; a pivot-rule regression would blow past it
    rng = random.Random(1)
    a = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)]
    res = assert_certified(a)
    assert max(abs(x) for row in res.u for x in row) < 10 ** 200


# -- sparse unit-pivot rank and torsion --------------------------------------------

def columns_of(a, ncols):
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(ncols)]


def snf_rank_and_torsion(a):
    res = smith_normal_form(a)
    return res.rank, [d for d in res.divisors if d > 1]


def test_rank_and_torsion_small_cases():
    assert rank_and_torsion([]) == (0, [])
    assert rank_and_torsion([{}, {}]) == (0, [])
    assert rank_and_torsion([{0: 2}]) == (1, [2])
    assert rank_and_torsion([{0: -1, 3: 2}, {0: 1, 3: -2}]) == (1, [])
    # the non-unit column meets the later pivot's row: only the final
    # re-reduction turns it into the 2 of diag(1, 2)
    assert rank_and_torsion([{0: 2, 1: 3}, {1: 1}]) == (2, [2])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda m: st.integers(0, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.one_of(st.just(0), st.integers(-4, 4)), min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                ),
            )
        )
    )
)
def test_rank_and_torsion_matches_snf(shape):
    n, a = shape
    assert rank_and_torsion(columns_of(a, n)) == snf_rank_and_torsion(a)


# -- integer solves against the dense Smith-form oracle ----------------------------

def dense_snf_solve(a, b):
    """The one-shot solve the sparse path replaced: Smith form of all of ``a``
    with both transforms, free coordinates zero."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
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


def product(a, x):
    return [sum(v * w for v, w in zip(row, x)) for row in a]


def test_solve_residual_meets_later_pivot_row():
    # a = [[2, 0], [3, 1]]: the first column has no unit, the second is the
    # pivot of row 1; only after the final re-reduction is the residual the
    # 2 on row 0, and the answer needs the residual's combination {0: 1, 1: -3}
    a = [[2, 0], [3, 1]]
    assert solve_integer_system(a, [2, 4]) == [1, 1]
    assert solve_columns([{0: 2, 1: 3}, {1: 1}], {0: 2, 1: 4}) == {0: 1, 1: 1}
    assert solve_integer_system(a, [1, 0]) is None
    assert solve_integer_system(a, [0, 5]) == [0, 5]


def test_solve_columns_edge_cases():
    assert solve_columns([], {}) == {}
    assert solve_columns([], {0: 1}) is None
    assert solve_columns([{}, {}], {}) == {}
    # b has support on a row no column touches
    assert solve_columns([{0: 1}, {0: 2, 1: 2}], {2: 1}) is None
    # a unit pivot alone forces the answer
    assert solve_columns([{0: -1, 1: 2}], {0: 3, 1: -6}) == {0: -3}


def test_solve_integer_system_input_checks():
    with pytest.raises(ValueError, match="length mismatch"):
        solve_integer_system([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="ragged"):
        solve_integer_system([[1, 2], [3]], [1, 2])
    assert solve_integer_system([], []) == []
    assert solve_integer_system([[]], [0]) == []
    assert solve_integer_system([[]], [1]) is None


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda m: st.integers(0, 8).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.one_of(st.just(0), st.integers(-4, 4)), min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                ),
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                st.lists(st.one_of(st.just(0), st.integers(-2, 2)), min_size=m, max_size=m),
            )
        )
    )
)
def test_solve_matches_dense_oracle(system):
    a, x0, noise = system
    planted = product(a, x0)
    for b in (planted, [v + e for v, e in zip(planted, noise)]):
        x = solve_integer_system(a, b)
        assert (x is None) == (dense_snf_solve(a, b) is None)
        if x is not None:
            assert product(a, x) == b
    assert solve_integer_system(a, planted) is not None
