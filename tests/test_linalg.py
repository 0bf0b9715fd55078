import random

import pytest
from sympy import Matrix

from conftest import (dense_smith, int_identity, int_mat_mul, mat_from_int,
                      mat_vec, row_spaces_equal)
from torushom import fields, snf
from torushom.errors import CoefficientError
from torushom.fields import GF, QQ, ZZ, coefficient_system


def is_diagonal(m):
    return all(m[i][j] == 0 for i in range(len(m))
               for j in range(len(m[0])) if i != j)


def is_inverse_pair(u, w):
    """U @ W = W @ U = I."""
    identity = int_identity(len(u))
    return int_mat_mul(u, w) == identity == int_mat_mul(w, u)


class TestSmithNormalForm:
    def test_small_example(self):
        m = [[2, 4], [6, 8]]
        u, d, v, w = dense_smith(snf.smith_normal_form(m))
        assert int_mat_mul(int_mat_mul(u, m), v) == d
        assert [d[0][0], d[1][1]] == [2, 4]
        assert is_diagonal(d)
        assert Matrix(u).det() in (1, -1)
        assert Matrix(v).det() in (1, -1)
        assert is_inverse_pair(u, w)

    def test_divisibility_fixup(self):
        # diag(2, 3) is not in Smith form; its invariant factors are 1, 6
        assert snf.invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_identity(self):
        assert snf.invariant_factors(int_identity(3)) == [1, 1, 1]

    def test_zero_matrix(self):
        u, d, v, w = dense_smith(snf.smith_normal_form([[0, 0], [0, 0]]))
        assert d == [[0, 0], [0, 0]]
        assert w == int_identity(2)
        assert snf.invariant_factors([[0, 0], [0, 0]]) == []

    def test_rectangular(self):
        m = [[1, 2, 3], [4, 5, 6]]
        u, d, v, w = dense_smith(snf.smith_normal_form(m))
        assert int_mat_mul(int_mat_mul(u, m), v) == d
        assert is_inverse_pair(u, w)
        assert snf.invariant_factors(m) == [1, 3]

    def test_inverse_transform_without_rows_or_columns(self):
        assert dense_smith(snf.smith_normal_form([]))[3] == []
        u, d, v, w = dense_smith(snf.smith_normal_form([[], []]))
        assert (u, d, v, w) == ([[1, 0], [0, 1]], [[], []], [],
                                [[1, 0], [0, 1]])

    @pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 0]],
                                   [[], [0]]])
    def test_ragged_rows_are_refused(self, m):
        """Rows of unequal length raise, as the dense ``fields`` helpers
        do, instead of losing the entries past the first row's width."""
        with pytest.raises(ValueError, match="dimension mismatch"):
            snf.smith_normal_form(m)

    def test_random_matrices_satisfy_contract(self):
        rng = random.Random(20240917)
        for _ in range(40):
            nr = rng.randint(1, 5)
            nc = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            result = snf.smith_normal_form(m)
            u, d, v, w = dense_smith(result)
            assert int_mat_mul(int_mat_mul(u, m), v) == d
            assert is_diagonal(d)
            assert Matrix(u).det() in (1, -1)
            assert Matrix(v).det() in (1, -1)
            assert is_inverse_pair(u, w)
            diag = result[0]
            assert all(x > 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0


class TestIntegerSolvers:
    def test_kernel_is_saturated(self):
        basis = snf.int_kernel([[2, 4]])
        assert len(basis) == 1
        vec = basis[0]
        assert 2 * vec[0] + 4 * vec[1] == 0
        assert sorted(abs(x) for x in vec) == [1, 2]

    def test_kernel_of_full_rank_map(self):
        assert snf.int_kernel([[1, 0], [0, 1]]) == []

    def test_solve(self):
        assert snf.int_solve([[2, 0], [0, 3]], [4, 9]) == [2, 3]
        assert snf.int_solve([[2, 0], [0, 3]], [1, 3]) is None
        assert snf.int_solve([[1, 1]], [5]) is not None

    def test_solve_inconsistent_rows(self):
        assert snf.int_solve([[1, 0], [1, 0]], [1, 2]) is None

    def test_inverse(self):
        m = [[2, 1], [1, 1]]
        inv = snf.int_inverse(m)
        assert int_mat_mul(m, inv) == int_identity(2)

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="invariant factors 2 are not 1"):
            snf.int_inverse([[2, 0], [0, 1]])
        with pytest.raises(ValueError, match="invariant factors 0 are not 1"):
            snf.int_inverse([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="not square"):
            snf.int_inverse([[1, 0]])


class TestFieldLinearAlgebra:
    def test_rref_rationals(self):
        m = mat_from_int([[1, 2, 3], [2, 4, 7]], QQ)
        ech, pivots = fields.rref(m, QQ)
        assert pivots == [0, 2]
        assert ech[0][:3] == [1, 2, 0]

    def test_rank_mod_p(self):
        m = [[1, 1], [1, 1]]
        assert fields.rank(mat_from_int(m, GF(2)), GF(2)) == 1
        m2 = [[2, 0], [0, 1]]
        assert fields.rank(mat_from_int(m2, GF(2)), GF(2)) == 1
        assert fields.rank(mat_from_int(m2, GF(3)), GF(3)) == 2

    def test_nullspace(self):
        m = mat_from_int([[1, 2, 3]], QQ)
        basis = fields.nullspace(m, QQ)
        assert len(basis) == 2
        for v in basis:
            assert sum(c * x for c, x in zip([1, 2, 3], v)) == 0

    def test_solve(self):
        m = mat_from_int([[2, 0], [0, 4]], QQ)
        x = fields.solve(m, [QQ.from_int(1), QQ.from_int(2)], QQ)
        assert x is not None
        assert mat_vec(m, x, QQ) == [QQ.from_int(1), QQ.from_int(2)]
        bad = fields.solve(mat_from_int([[1, 1], [1, 1]], QQ),
                           [QQ.from_int(0), QQ.from_int(1)], QQ)
        assert bad is None

    def test_row_space_predicates(self):
        f = QQ
        a = mat_from_int([[1, 0], [0, 1]], f)
        b = mat_from_int([[1, 1], [1, -1]], f)
        assert row_spaces_equal(a, b, f)
        assert fields.row_space_contains(b, [f.from_int(3), f.from_int(5)], f)
        c = mat_from_int([[1, 1]], f)
        assert not row_spaces_equal(a, c, f)

    def test_gf2_inverse(self):
        f = GF(2)
        assert f.inv(1) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_prime_check(self):
        with pytest.raises(CoefficientError):
            GF(6)

    def test_primality_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(2001)
                if fields.is_prime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize(
        "n", [561, 41041, 3215031751, 3825123056546413051],
        ids=["carmichael-561", "carmichael-41041",
             "strong-pseudoprime-2-to-7", "strong-pseudoprime-2-to-31"])
    def test_pseudoprimes_are_composite(self, n):
        assert not fields.is_prime(n)
        with pytest.raises(CoefficientError, match="not prime"):
            GF(n)

    def test_large_moduli(self):
        assert GF(2 ** 61 - 1).inv(2) * 2 % (2 ** 61 - 1) == 1
        assert fields.is_prime(2 ** 64 + 13)
        with pytest.raises(CoefficientError, match="not below 2\\^64"):
            GF(2 ** 64 + 13)


class TestCoefficientSelector:
    def test_parse(self):
        assert coefficient_system("q") is QQ
        assert coefficient_system("Z") is ZZ
        assert coefficient_system("f7") == GF(7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(CoefficientError):
            coefficient_system("r2")
