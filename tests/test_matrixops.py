"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest

from coopreg.errors import DimensionError, NumericalError
from coopreg.matrixops import (
    SCHUR_MARGIN,
    as_matrix,
    block_diag,
    companion_pair,
    controllability_matrix,
    detectable,
    eigenvalues,
    kron,
    minimal_polynomial,
    numeric_rank,
    on_unit_circle,
    spectral_radius,
    stabilizable,
)

from conftest import horner_polyval, real_embedding

C1, S1 = np.cos(1.0), np.sin(1.0)
ROT1 = np.array([[C1, S1], [-S1, C1]])


class TestValidation:
    def test_as_matrix_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2) and m.dtype == float

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_3d(self):
        with pytest.raises(DimensionError, match="expected a 2-D array, got 3-D"):
            as_matrix(np.zeros((2, 2, 2)), "stack")

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(DimensionError, match="non-finite"):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_as_matrix_rejects_strings(self):
        with pytest.raises(DimensionError):
            as_matrix([["a", "b"]])


class TestEigenvalues:
    def test_rotation_matches_quadratic_formula(self):
        # Independent oracle: the characteristic polynomial of a plane
        # rotation is l**2 - 2 cos(1) l + 1, so by the quadratic formula
        # the roots are cos(1) +/- i sin(1).
        w = eigenvalues(ROT1)
        expected = np.array([complex(C1, -S1), complex(C1, S1)])  # (real, imag) sorted
        assert np.allclose(w, expected, atol=1e-12)

    def test_sorted_and_deterministic(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            w1 = eigenvalues(m)
            w2 = eigenvalues(m.copy())
            assert np.array_equal(w1, w2)
            order = np.lexsort((w1.imag, w1.real))
            assert np.array_equal(order, np.arange(5))

    def test_conjugate_pairs_adjacent(self):
        w = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.isclose(w[0], np.conj(w[1]))

    def test_triangular_spectral_radius(self):
        m = np.array([[0.5, 3.0, 1.0], [0.0, -0.25, 2.0], [0.0, 0.0, 0.8]])
        assert np.isclose(spectral_radius(m), 0.8, atol=1e-12)


def is_schur(m):
    """The Schur rule of ``certify_closed_loop`` at its default margin."""
    return spectral_radius(m) < 1.0 - SCHUR_MARGIN


class TestSchur:
    def test_contractive_is_schur(self):
        assert is_schur(np.diag([0.5, -0.9]))

    def test_margin_is_strict(self):
        # radius exactly 1 - margin must NOT pass the strict inequality
        assert not is_schur(np.diag([1.0 - 1e-9]))
        assert not is_schur(np.eye(2))
        assert is_schur(np.diag([1.0 - 1e-6]))


class TestRank:
    def test_numeric_rank_outer_product(self):
        u = np.array([[1.0], [2.0], [3.0]])
        m = u @ u.T
        assert numeric_rank(m) == 1
        assert numeric_rank(m + 1e-12 * np.ones((3, 3))) == 1
        assert numeric_rank(np.eye(4)) == 4

    def test_complex_rank_matches_numpy_svd(self):
        # Dual route: numpy's own complex SVD rank.
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows, cols = rng.integers(1, 6, 2)
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            if rng.random() < 0.4 and min(rows, cols) > 1:
                m[:, -1] = m[:, 0] * (1.0 + 0.5j)  # force a rank drop
            assert numeric_rank(m) == np.linalg.matrix_rank(m, tol=1e-9)

    def test_complex_rank_is_half_the_real_embedding_rank(self):
        # Oracle: the real embedding [[Re, -Im], [Im, Re]] doubles every
        # singular value's multiplicity, so its real rank is twice the
        # complex one; over rank-deficient matrices scaled 1e-6 to 1e6.
        rng = np.random.default_rng(3)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        checked = 0
        for _ in range(400):
            rows, cols = rng.integers(1, 7, 2)
            rank = int(rng.integers(0, min(rows, cols) + 1))
            m = draw((rows, rank)) @ draw((rank, cols)) * 10.0 ** rng.uniform(-6, 6)
            assert numeric_rank(m) == numeric_rank(real_embedding(m)) // 2
            checked += numeric_rank(m) < min(rows, cols)
        assert numeric_rank(real_embedding(np.array([[1.0 + 1.0j, 2.0], [0.0, 3.0j]]))) == 4
        assert checked > 50

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
    def test_empty_matrix_has_rank_zero(self, shape):
        assert numeric_rank(np.zeros(shape)) == 0
        assert numeric_rank(np.zeros(shape, dtype=complex)) == 0


class TestEmptyMatrix:
    def test_no_eigenvalue_is_off_the_unit_circle(self):
        assert on_unit_circle(np.zeros((0, 0))) is True

    def test_minimal_polynomial_has_no_coefficients(self):
        coeffs = minimal_polynomial(np.zeros((0, 0)))
        assert coeffs.shape == (0,)
        assert coeffs.dtype == float


class TestMinimalPolynomial:
    def test_rotation_coefficients(self):
        # Oracle: Cayley-Hamilton by substitution — S^2 - 2 cos(1) S + I = 0.
        assert np.allclose(
            ROT1 @ ROT1 - 2.0 * C1 * ROT1 + np.eye(2), 0.0, atol=1e-12
        )
        coeffs = minimal_polynomial(ROT1)
        assert np.allclose(coeffs, [1.0, -2.0 * C1], atol=1e-9)

    def test_identity_degree_one(self):
        # minimal polynomial of I_3 is l - 1 even though char poly has degree 3
        coeffs = minimal_polynomial(np.eye(3))
        assert coeffs.shape == (1,)
        assert np.allclose(coeffs, [-1.0], atol=1e-9)

    def test_repeated_block_minimality(self):
        # diag(1, 1, -1): minimal polynomial l**2 - 1; oracle M^2 - I = 0
        m = np.diag([1.0, 1.0, -1.0])
        assert np.allclose(m @ m - np.eye(3), 0.0)
        coeffs = minimal_polynomial(m)
        assert np.allclose(coeffs, [-1.0, 0.0], atol=1e-9)

    def test_polyval_annihilates(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        coeffs = minimal_polynomial(m)
        assert np.allclose(horner_polyval(coeffs, m), 0.0, atol=1e-8)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
        m = np.linalg.solve(t, ROT1 @ t)
        assert np.allclose(minimal_polynomial(m), [1.0, -2.0 * C1], atol=1e-8)


class TestCompanion:
    def test_charpoly_of_companion(self):
        # Oracle: determinant expansion of l I - beta for the bottom-row
        # companion of l**2 + c1 l + c0 gives back the same coefficients;
        # np.poly provides the independent numeric route.
        coeffs = np.array([1.0, -2.0 * C1])  # l**2 - 2 cos(1) l + 1
        beta, sigma = companion_pair(coeffs)
        assert beta.shape == (2, 2) and sigma.shape == (2, 1)
        desc = np.poly(beta)  # [1, c1, c0] descending
        assert np.allclose(desc, [1.0, -2.0 * C1, 1.0], atol=1e-12)
        assert np.allclose(eigenvalues(beta), eigenvalues(ROT1), atol=1e-9)

    def test_companion_controllable(self):
        rng = np.random.default_rng(9)
        for deg in (1, 2, 3, 5):
            coeffs = rng.uniform(-2, 2, deg)
            beta, sigma = companion_pair(coeffs)
            assert numeric_rank(controllability_matrix(beta, sigma)) == deg

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            companion_pair([])

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, 1e10], [0.0, 1e30]])
    def test_badly_scaled_polynomial_fails_the_controllability_check(self, coeffs):
        # [sigma, beta sigma, ...] has a unit anti-diagonal, but powers of
        # a huge coefficient fill the rest, so its singular values spread
        # past the rank tolerance.
        with pytest.raises(NumericalError, match="canonical pair failed the controllability check"):
            companion_pair(coeffs)

    def test_controllability_matrix_rejects_a_row_mismatch(self):
        with pytest.raises(DimensionError, match="controllability_matrix: A has 2 rows but B has 3"):
            controllability_matrix(np.eye(2), np.ones((3, 1)))


class TestStabilizableDetectable:
    def test_unstable_mode_reachable(self):
        a = np.diag([2.0, 0.5])
        assert stabilizable(a, np.array([[1.0], [0.0]]))
        assert not stabilizable(a, np.array([[0.0], [1.0]]))

    def test_marginal_mode_counts_as_unstable(self):
        # |lambda| = 1 must be controlled, so B = 0 fails
        assert not stabilizable(np.array([[1.0]]), np.array([[0.0]]))
        assert stabilizable(np.array([[1.0]]), np.array([[1.0]]))

    def test_strictly_stable_always_stabilizable(self):
        assert stabilizable(np.diag([0.3, -0.8]), np.zeros((2, 1)))

    def test_detectable_is_dual(self):
        a = np.diag([2.0, 0.5])
        assert detectable(np.array([[1.0, 0.0]]), a)
        assert not detectable(np.array([[0.0, 1.0]]), a)


class TestPencilRank:
    def test_benchmark_pencil_full_rank_at_exosystem_mode(self):
        # Double integrator with position output against the rotation
        # mode lam = cos(1) + i sin(1).  Oracle: numpy's complex SVD
        # rank of the 3x3 pencil [[A - lam I, B], [C, 0]].
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([[1.0], [1.0]])
        c = np.array([[1.0, 0.0]])
        lam = complex(C1, S1)
        pencil = np.block([[a - lam * np.eye(2), b], [c.astype(complex), np.zeros((1, 1))]])
        assert np.linalg.matrix_rank(pencil, tol=1e-9) == 3
        assert numeric_rank(pencil) == 3

    def test_detects_rank_drop(self):
        # A = I2 with a single input reaching only one state: the pencil
        # at lam = 1 is [[0, 0, 1], [0, 0, 0], [1, 0, 0]] -> rank 2.
        a = np.eye(2)
        b = np.array([[1.0], [0.0]])
        c = np.array([[1.0, 0.0]])
        pencil = np.block(
            [[a - 1.0 * np.eye(2), b], [c.astype(complex), np.zeros((1, 1))]]
        )
        assert numeric_rank(pencil) == 2


class TestKron:
    def test_identity_blocks(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = kron(np.eye(2), m)
        assert np.array_equal(k[:2, :2], m)
        assert np.array_equal(k[2:, 2:], m)
        assert np.all(k[:2, 2:] == 0)

    def test_rejects_vectors(self):
        with pytest.raises(DimensionError):
            kron(np.ones(2), np.eye(2))

    def test_rejects_stacks(self):
        with pytest.raises(DimensionError):
            kron(np.ones((3, 2, 2)), np.eye(2))

    def test_equals_numpy_kron_bitwise(self):
        # Each entry is one product a_ij * b_kl, so the reshaped outer
        # product must match numpy's kron exactly, complex and empty too.
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=tuple(rng.integers(0, 4, 2)))
            b = rng.normal(size=tuple(rng.integers(0, 4, 2)))
            if rng.random() < 0.5:
                a = a + 1j * rng.normal(size=a.shape)
            got, want = kron(a, b), np.kron(a, b)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_block_diag_places_blocks():
    a, b = np.array([[1.0, 2.0]]), np.array([[3.0], [4.0j]])
    out = block_diag([a, b])
    assert out.shape == (3, 3) and np.iscomplexobj(out)
    assert np.array_equal(out, [[1, 2, 0], [0, 0, 3], [0, 0, 4j]])


def test_eigenvalues_requires_square():
    with pytest.raises(DimensionError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        spectral_radius(np.ones((4, 2, 3)))


def test_stacked_spectral_radius_is_per_matrix():
    # one eigensolve over a stack gives each matrix's own radius, to the bit
    rng = np.random.default_rng(12)
    for stack in (rng.normal(size=(5, 6, 6)), rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))):
        got = spectral_radius(stack)
        assert got.shape == (5,)
        assert np.array_equal(got, [spectral_radius(m) for m in stack])
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    with pytest.raises(NumericalError):
        spectral_radius(np.full((2, 3, 3), np.nan))


def test_minimal_polynomial_rejects_nonsquare():
    with pytest.raises(DimensionError):
        minimal_polynomial(np.ones((2, 3)))
