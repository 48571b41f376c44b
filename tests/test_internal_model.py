"""Tests for exosystem handling and internal-model construction."""

import numpy as np
import pytest

from coopreg import Exosystem, build_internal_model
from coopreg.errors import ConfigurationError, DimensionError
from coopreg.internal_model import char_poly
from coopreg.matrixops import controllability_matrix, eigenvalues, numeric_rank
from coopreg.reference import reference_beta_override, reference_exosystem

C1, S1 = np.cos(1.0), np.sin(1.0)


class TestExosystem:
    def test_shapes_validated(self):
        with pytest.raises(DimensionError):
            Exosystem(s=[[1.0, 0.0]], f=[[1.0]])
        with pytest.raises(DimensionError, match="exosystem.f"):
            Exosystem(s=[[1.0]], f=[[1.0, 2.0]])
        with pytest.raises(DimensionError, match="v0"):
            Exosystem(s=[[1.0]], f=[[1.0]], v0=[1.0, 2.0])

    @pytest.mark.parametrize(
        "v0",
        [[np.inf], [-np.inf], [np.nan], ["a"], [[1.0], [1.0, 2.0]]],
        ids=["inf", "-inf", "nan", "string", "ragged"],
    )
    def test_v0_must_be_numeric_and_finite(self, v0):
        # a non-finite v0 used to pass and trip the divergence guard at the first step
        with pytest.raises(DimensionError, match=r"^exosystem\.v0: "):
            Exosystem(s=[[1.0]], f=[[1.0]], v0=v0)

    def test_default_v0_zero(self):
        exo = Exosystem(s=np.eye(2), f=np.ones((1, 2)))
        assert np.array_equal(exo.v0, np.zeros(2))

    def test_unit_circle_predicate(self):
        assert reference_exosystem().modes_on_unit_circle()
        assert Exosystem(s=[[-1.0]], f=[[1.0]]).modes_on_unit_circle()
        assert not Exosystem(s=[[0.5]], f=[[1.0]]).modes_on_unit_circle()
        assert not Exosystem(s=[[1.1]], f=[[1.0]]).modes_on_unit_circle()


class TestTrajectory:
    @pytest.mark.parametrize("horizon", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("v0", [(1.0, 0.0), (0.3, -0.8)])
    def test_follows_the_step_recursion(self, v0, horizon):
        exo = reference_exosystem(v0=v0)
        v = exo.trajectory(horizon)
        stepped = np.empty((horizon, exo.q))
        stepped[:1] = exo.v0
        for t in range(1, horizon):
            stepped[t] = exo.s @ stepped[t - 1]
        assert v.shape == (horizon, exo.q)
        assert np.max(np.abs(v - stepped), initial=0.0) <= 1e-14
        assert np.array_equal(v[: min(horizon, 64)], stepped[:64])  # the cached rows are the stepped ones

    def test_each_call_returns_a_fresh_writable_array(self):
        exo = reference_exosystem()
        first, second = exo.trajectory(130), exo.trajectory(130)
        assert first is not second and first.flags.writeable
        first[:] = 7.0
        assert np.array_equal(exo.trajectory(130), second)
        head, power = exo._trajectory_head
        assert not head.flags.writeable and not power.flags.writeable

    @pytest.mark.parametrize("horizon", [-1, True, 2.0, None])
    def test_refuses_a_horizon_that_is_not_a_non_negative_integer(self, horizon):
        with pytest.raises(ConfigurationError, match=r"^Exosystem\.trajectory: "):
            reference_exosystem().trajectory(horizon)

    def test_accepts_a_numpy_integer(self):
        exo = reference_exosystem()
        assert np.array_equal(exo.trajectory(np.int64(70)), exo.trajectory(70))


class TestDefaultBuild:
    def test_scalar_constant_exosystem(self):
        # S = [1]: minimal polynomial l - 1, so beta = [1], sigma = [1].
        im = build_internal_model(Exosystem(s=[[1.0]], f=np.zeros((1, 1))))
        assert np.array_equal(im.beta, [[1.0]])
        assert np.array_equal(im.sigma, [[1.0]])
        assert np.array_equal(im.g1, [[1.0]])
        assert np.array_equal(im.g2, [[1.0]])
        assert im.dim == 1

    def test_rotation_companion(self):
        # minpoly of the 1-rad rotation is l**2 - 2 cos(1) l + 1
        # (verified by direct substitution in the matrixops tests), so
        # the bottom-row companion is [[0, 1], [-1, 2 cos(1)]].
        exo = reference_exosystem()
        im = build_internal_model(exo)
        assert np.allclose(im.beta, [[0.0, 1.0], [-1.0, 2.0 * C1]], atol=1e-9)
        assert np.array_equal(im.sigma, [[0.0], [1.0]])
        assert im.p == 1 and im.degree == 2 and im.dim == 2
        # same spectrum as S itself
        assert np.allclose(eigenvalues(im.beta), eigenvalues(exo.s), atol=1e-9)

    def test_two_channel_replication(self):
        # S = diag(1, -1): minimal polynomial l**2 - 1 (oracle: S @ S = I).
        s = np.diag([1.0, -1.0])
        assert np.array_equal(s @ s, np.eye(2))
        im = build_internal_model(Exosystem(s=s, f=np.zeros((2, 2))))
        assert im.degree == 2 and im.dim == 4
        # G1 = I_2 (x) beta: two identical diagonal blocks, zero off-diagonal
        assert np.array_equal(im.g1[:2, :2], im.beta)
        assert np.array_equal(im.g1[2:, 2:], im.beta)
        assert np.all(im.g1[:2, 2:] == 0) and np.all(im.g1[2:, :2] == 0)
        assert im.g2.shape == (4, 2)
        assert np.array_equal(im.g2[:2, 0:1], im.sigma)
        assert np.array_equal(im.g2[2:, 1:2], im.sigma)

    def test_minimality_under_repeated_blocks(self):
        # two copies of the same rotation: minpoly degree stays 2
        s = np.zeros((4, 4))
        s[:2, :2] = [[C1, S1], [-S1, C1]]
        s[2:, 2:] = [[C1, S1], [-S1, C1]]
        im = build_internal_model(Exosystem(s=s, f=np.zeros((1, 4))))
        assert im.degree == 2

    def test_exosystem_without_error_channels_rejected(self):
        # an F with zero rows leaves nothing to replicate; the exosystem
        # refuses it where it is given, naming the field
        with pytest.raises(DimensionError, match="^exosystem.f: needs at least one row"):
            Exosystem(s=np.eye(2), f=np.zeros((0, 2)))


class TestOverride:
    def test_benchmark_override_accepted(self):
        # the rotation is cyclic, so S itself together with (0, 1)' is a
        # valid realization of its own minimal polynomial
        exo = reference_exosystem()
        beta, sigma = reference_beta_override()
        im = build_internal_model(exo, beta_override=(beta, sigma))
        assert np.array_equal(im.g1, beta)
        assert np.array_equal(im.g2, sigma)

    def test_wrong_charpoly_rejected(self):
        exo = reference_exosystem()
        with pytest.raises(ConfigurationError, match="characteristic polynomial"):
            build_internal_model(exo, beta_override=(np.eye(2), [[0.0], [1.0]]))

    def test_uncontrollable_pair_rejected(self):
        exo = reference_exosystem()
        beta, _ = reference_beta_override()
        with pytest.raises(ConfigurationError, match="not controllable"):
            build_internal_model(exo, beta_override=(beta, [[0.0], [0.0]]))

    def test_wrong_degree_rejected(self):
        exo = reference_exosystem()
        with pytest.raises(ConfigurationError, match="degree"):
            build_internal_model(exo, beta_override=(np.eye(3), [[0.0], [0.0], [1.0]]))

    @pytest.mark.parametrize("override", [(np.eye(2),), 3.0], ids=["one-entry", "scalar"])
    def test_override_that_is_not_a_pair_rejected(self, override):
        with pytest.raises(ConfigurationError, match=r"expected a \(beta, sigma\) pair"):
            build_internal_model(reference_exosystem(), beta_override=override)

    def test_wrong_sigma_shape_rejected(self):
        exo = reference_exosystem()
        beta, _ = reference_beta_override()
        with pytest.raises(ConfigurationError, match="sigma"):
            build_internal_model(exo, beta_override=(beta, [[0.0, 1.0]]))


class TestRandomizedConstruction:
    def test_random_unit_circle_exosystems(self):
        from conftest import random_exosystem_with_known_minpoly

        rng = np.random.default_rng(2024)
        for trial in range(12):
            s, poly_desc = random_exosystem_with_known_minpoly(rng)
            p = int(rng.integers(1, 3))
            im = build_internal_model(Exosystem(s=s, f=np.zeros((p, s.shape[0]))))
            deg = poly_desc.size - 1
            assert im.degree == deg
            # characteristic polynomial of beta vs the factor-product oracle
            assert np.allclose(np.poly(im.beta), poly_desc, atol=1e-8)
            # controllability of the canonical pair
            assert numeric_rank(controllability_matrix(im.beta, im.sigma)) == deg
            # spectrum of G1 = p copies of the minpoly roots
            roots = np.sort_complex(np.roots(poly_desc))
            g1_eigs = np.sort_complex(eigenvalues(im.g1))
            expected = np.sort_complex(np.tile(roots, p))
            assert np.allclose(g1_eigs, expected, atol=1e-7)


def test_char_poly_ascending_convention():
    # char_poly returns ascending non-leading coefficients: for the
    # rotation, [c0, c1] = [1, -2 cos(1)].
    beta, _ = reference_beta_override()
    assert np.allclose(char_poly(beta), [1.0, -2.0 * C1], atol=1e-12)
