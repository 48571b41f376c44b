"""Synthesis-layer tests: Riccati solver, gain formulas, certificates.

Every numeric expectation is either a hand-derived closed form (scalar
cases, quadratic/cubic characteristic roots), an independent solver
route (scipy's Riccati solver on the scaled system, the matrix-inversion
form of the equation), or a frozen regression value stated in the test.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from coopreg import (
    DelaySpec,
    Digraph,
    Exosystem,
    GainSet,
    NominalPlant,
    build_internal_model,
    certify_closed_loop,
    check_assumptions,
    auto_tune_gamma,
    observer_gain,
    solve_parametric_dare,
    state_feedback_gain,
    synthesize_gains,
)
from coopreg.errors import (
    ConfigurationError,
    DimensionError,
    NumericalError,
    SynthesisError,
)
from coopreg import synthesis
from coopreg.graphs import connectivity_spectral_check, h_matrix
from coopreg.matrixops import eigenvalues, spectral_radius
from coopreg.synthesis import (
    _slice_radii,
    build_augmented,
    closed_loop_blocks,
    delay_lift,
    network_blocks,
    transmission_zeros_ok,
)
from coopreg import reference as ref

from conftest import (
    NET12,
    fixed_point_dare,
    quadratic_coupling_slices,
    random_connected_digraph,
    random_digraph,
    random_unit_circle_pair,
)


def unit_chain(n):
    """Leader -> 1 -> 2 -> ... -> n: H is lower bidiagonal, every eigenvalue 1."""
    return Digraph(n_followers=n, edges=tuple((i, i + 1, 1.0) for i in range(n)))


def random_tree(n):
    """Leader -> 1, then each follower i >= 2 hears one uniformly drawn earlier node."""
    rng = np.random.default_rng(0)
    edges = [(0, 1, 1.0)] + [(int(rng.integers(0, i)), i, float(rng.uniform(0.5, 2.0))) for i in range(2, n + 1)]
    return Digraph(n_followers=n, edges=tuple(edges))


def slice_radius(plant, h, im, gains, r, mode):
    """Largest lifted radius over the 1 x 1 slices at every eigenvalue of ``h``."""
    return max(
        spectral_radius(delay_lift(*closed_loop_blocks(plant, np.array([[lam]]), im, gains, mode), r))
        for lam in eigenvalues(h, "H")
    )


def dense_radius(plant, h, im, gains, r, mode):
    """Radius of the network-sized lift: the dense oracle of the certificate."""
    return spectral_radius(delay_lift(*closed_loop_blocks(plant, h, im, gains, mode), r))


def parametric_residual(a, b, p, gamma):
    """Frobenius norm of the parametric Riccati residual at ``p``."""
    r = np.eye(b.shape[1]) + b.T @ p @ b
    res = a.T @ p @ a - p - a.T @ p @ b @ np.linalg.solve(r, b.T @ p @ a) + gamma * p
    return float(np.linalg.norm(res, "fro"))


# ---------------------------------------------------------------------------
# parametric Riccati equation


class TestParametricDare:
    @pytest.mark.parametrize("gamma", [0.08, 0.3, 0.5])
    def test_scalar_closed_form(self, gamma):
        # For a = b = 1 the equation reduces to p/(1+p) = gamma,
        # i.e. p = gamma / (1 - gamma).
        p = solve_parametric_dare([[1.0]], [[1.0]], gamma)
        assert abs(p[0, 0] - gamma / (1.0 - gamma)) <= 1e-12

    def test_benchmark_pair_residual_symmetry_definiteness(self):
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        p = solve_parametric_dare(a_c, b_c, ref.GAMMA)
        assert parametric_residual(a_c, b_c, p, ref.GAMMA) <= 1e-10
        assert np.max(np.abs(p - p.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(p)) > 0.0

    def test_random_pairs_residual_and_scipy_cross_check(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, min(n, 2) + 1))
            a, b = random_unit_circle_pair(rng, n, m, extra_stable=bool(rng.random() < 0.3))
            for gamma in (float(rng.uniform(0.05, 0.5)), 1e-3, 1e-4):
                p = solve_parametric_dare(a, b, gamma)
                assert parametric_residual(a, b, p, gamma) <= 1e-10

                # independent route: standard Riccati solver on the scaled matrix
                at = a / np.sqrt(1.0 - gamma)
                p_ref = sla.solve_discrete_are(at, b, np.zeros((n, n)), np.eye(m))
                scale = max(1.0, float(np.linalg.norm(p_ref, "fro")))
                assert np.linalg.norm(p - p_ref, "fro") <= 1e-9 * scale
                if gamma >= 0.05:
                    # second oracle: the fixed-point iteration, about 1/gamma steps
                    p_fix = fixed_point_dare(a, b, gamma, tol=1e-13)
                    assert np.linalg.norm(p - p_fix, "fro") <= 1e-9 * scale

    @pytest.mark.parametrize("gamma, bound", [(1e-3, 2e-9), (1e-4, 1e-7)])
    def test_benchmark_pair_small_gamma_gain_against_scipy(self, gamma, bound):
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        at = a_c / np.sqrt(1.0 - gamma)
        p_ref = sla.solve_discrete_are(at, b_c, np.zeros((4, 4)), np.eye(1))
        k_ref = -np.linalg.solve(np.eye(1) + b_c.T @ p_ref @ b_c, b_c.T @ p_ref @ a_c)
        k = state_feedback_gain(a_c, b_c, gamma, 1.0, 0)
        assert np.linalg.norm(k - k_ref) <= bound * np.linalg.norm(k_ref)

    @pytest.mark.parametrize("gamma, reason", [(1e-6, "accuracy estimate"), (1e-9, "gamma=1e-09")])
    def test_benchmark_pair_too_small_gamma_raises(self, gamma, reason):
        # Double precision cannot resolve P this close to the unit circle
        # (K is about 3e-4 off at 1e-6): refuse instead of returning a guess.
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        with pytest.raises(NumericalError, match=reason):
            solve_parametric_dare(a_c, b_c, gamma)

    @pytest.mark.parametrize("a", [0.5, -0.5])
    def test_unit_circle_scaled_matrix_raises(self, a):
        # a / sqrt(1 - 0.75) = +-1: no stabilizing solution exists.
        with pytest.raises(NumericalError, match="no stabilizing solution"):
            solve_parametric_dare([[a]], [[1.0]], 0.75)

    def test_inverse_form_identity(self):
        # When p is invertible the equation is equivalent to
        # A' (p^{-1} + B B')^{-1} A = (1 - gamma) p  (matrix-inversion form).
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            a, b = random_unit_circle_pair(rng, n, 1)
            gamma = float(rng.uniform(0.1, 0.4))
            p = solve_parametric_dare(a, b, gamma)
            lhs = a.T @ np.linalg.solve(np.linalg.inv(p) + b @ b.T, a)
            scale = max(1.0, float(np.linalg.norm(p, "fro")))
            assert np.linalg.norm(lhs - (1.0 - gamma) * p, "fro") <= 1e-9 * scale

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ConfigurationError, match="gamma"):
            solve_parametric_dare([[1.0]], [[1.0]], gamma)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_parametric_dare(np.eye(2), np.ones((3, 1)), 0.1)


# ---------------------------------------------------------------------------
# feedback gain


class TestStateFeedbackGain:
    def test_scalar_closed_form(self):
        # a = b = 1, gamma = 0.5 gives p = 1 and K = -(1+1)^{-1} * 1 = -0.5
        # for any delay power because a^{r+1} = 1.
        k = state_feedback_gain([[1.0]], [[1.0]], 0.5, 1.0, 0)
        assert abs(k[0, 0] + 0.5) <= 1e-12
        k2 = state_feedback_gain([[1.0]], [[1.0]], 0.5, 2.0, 3)
        assert abs(k2[0, 0] + 0.25) <= 1e-12

    def test_delay_power_identity(self):
        # K_r = K_0 A^r: the delay enters only through the trailing power.
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        k0 = state_feedback_gain(a_c, b_c, ref.GAMMA, ref.NU, 0)
        for r in (1, 2, 3):
            kr = state_feedback_gain(a_c, b_c, ref.GAMMA, ref.NU, r)
            expect = k0 @ np.linalg.matrix_power(a_c, r)
            assert np.max(np.abs(kr - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    def test_calibrated_gamma_reproduces_benchmark_gain(self):
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        k = state_feedback_gain(a_c, b_c, ref.CALIBRATED_GAMMA, ref.NU, ref.reference_delays().r)
        assert np.max(np.abs(k - ref.CALIBRATED_K)) <= 5e-4

    def test_gain_norm_shrinks_with_gamma(self):
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        norms = [
            np.linalg.norm(state_feedback_gain(a_c, b_c, gamma, 1.0, 2))
            for gamma in (0.4, 0.2, 0.1, 0.05)
        ]
        assert norms[0] > norms[1] > norms[2] > norms[3] > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="nu"):
            state_feedback_gain([[1.0]], [[1.0]], 0.1, 0.0, 0)
        with pytest.raises(ConfigurationError, match="r must"):
            state_feedback_gain([[1.0]], [[1.0]], 0.1, 1.0, -1)


# ---------------------------------------------------------------------------
# observer gain


class TestObserverGain:
    def test_scalar_closed_form(self):
        # a = c = 1: dual solution p = gamma/(1-gamma), so
        # L = p / (1 + p) / nu = gamma / nu.
        l_obs = observer_gain([[1.0]], [[1.0]], 0.3, 0.5)
        assert abs(l_obs[0, 0] - 0.6) <= 1e-12

    def test_benchmark_observer_values(self):
        plant = ref.reference_plant()
        l_obs = observer_gain(plant.a, plant.c, ref.GAMMA_L, ref.NU_L, ref.OBSERVER_R)
        assert l_obs.shape == (2, 1)
        assert np.max(np.abs(l_obs - ref.EXPECTED_L)) <= 5e-4

    def test_duality_with_state_feedback(self):
        # L(A, C) = -K(A', C')' entry for entry, for any delay power.
        rng = np.random.default_rng(11)
        cases = [(ref.reference_plant().a, ref.reference_plant().c)]
        for _ in range(3):
            a, bt = random_unit_circle_pair(rng, int(rng.integers(2, 5)), 1)
            cases.append((a.T, bt.T))
        for a, c in cases:
            for r in (0, 2):
                l_obs = observer_gain(a, c, 0.2, 0.7, r)
                k_dual = state_feedback_gain(a.T, c.T, 0.2, 0.7, r)
                assert np.max(np.abs(l_obs + k_dual.T)) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="nu_l"):
            observer_gain([[1.0]], [[1.0]], 0.1, -1.0)
        with pytest.raises(DimensionError):
            observer_gain(np.eye(2), np.ones((1, 3)), 0.1, 1.0)
        # a negative r would apply A^-1 (L[0] 0.72 -> 0.5904 on the benchmark at r = -2)
        for r in (-2, -1, 1.0, 0.5):
            with pytest.raises(ConfigurationError) as info:
                observer_gain([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0]], 0.18, 0.5, r)
            assert str(info.value) == f"observer_gain: r must be a non-negative integer, got {r!r}"


# ---------------------------------------------------------------------------
# augmented cascade and assumptions


class TestBuildAugmented:
    def test_benchmark_blocks(self):
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        a_c, b_c = build_augmented(plant, im)
        expect_a = np.block(
            [
                [plant.a, np.zeros((2, 2))],
                [im.g2 @ plant.c, im.g1],
            ]
        )
        expect_b = np.vstack([plant.b, np.zeros((2, 1))])
        assert np.array_equal(a_c, expect_a)
        assert np.array_equal(b_c, expect_b)

    def test_unstabilizable_cascade_rejected(self):
        # A zero output matrix disconnects the internal model, whose
        # marginally stable modes then fail the PBH test.
        plant = NominalPlant(a=[[0.5]], b=[[1.0]], c=[[0.0]])
        exo = Exosystem(s=[[1.0]], f=[[1.0]], v0=[1.0])
        im = build_internal_model(exo)
        with pytest.raises(SynthesisError, match="not stabilizable"):
            build_augmented(plant, im)

    def test_channel_mismatch(self):
        plant = NominalPlant(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((2, 2)))
        exo = Exosystem(s=[[1.0]], f=[[1.0]], v0=[1.0])
        im = build_internal_model(exo)  # single error channel
        with pytest.raises(DimensionError, match="error channels"):
            build_augmented(plant, im)


class TestCheckAssumptions:
    def test_benchmark_all_pass(self):
        rep = check_assumptions(
            ref.reference_plant(), ref.reference_exosystem(), ref.reference_graph()
        )
        assert len(rep.entries) == 6
        assert rep.all_ok
        assert all(line.startswith("PASS") for line in rep.lines())

    def _entry(self, rep, name):
        return {n: ok for n, ok, _ in rep.entries}[name]

    def test_detects_unrooted_graph(self):
        g = Digraph(n_followers=2, edges=((1, 2, 1.0),))
        rep = check_assumptions(ref.reference_plant(), ref.reference_exosystem(), g)
        assert not self._entry(rep, "connectivity")
        assert not rep.all_ok

    def test_detects_unstabilizable_pair(self):
        plant = NominalPlant(a=[[1.1, 0.0], [0.0, 0.5]], b=[[0.0], [1.0]], c=[[1.0, 0.0]])
        rep = check_assumptions(plant, ref.reference_exosystem(), ref.reference_graph())
        assert not self._entry(rep, "stabilizability")

    def test_detects_undetectable_pair(self):
        plant = NominalPlant(a=[[1.1, 0.0], [0.0, 0.5]], b=[[1.0], [1.0]], c=[[0.0, 1.0]])
        rep = check_assumptions(plant, ref.reference_exosystem(), ref.reference_graph())
        assert not self._entry(rep, "detectability")

    def test_detects_resonant_transmission_zero(self):
        # C (zI - A)^{-1} B = (1 - z) / z^2 has a zero at z = 1, which
        # collides with the constant exosystem mode.
        plant = NominalPlant(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], c=[[1.0, -1.0]])
        exo = Exosystem(s=[[1.0]], f=[[1.0]], v0=[1.0])
        ok, lam = transmission_zeros_ok(plant, exo)
        assert not ok
        assert abs(lam - 1.0) <= 1e-9
        rep = check_assumptions(plant, exo, ref.reference_graph())
        assert not self._entry(rep, "transmission zeros")

    def test_detects_exosystem_off_circle(self):
        exo = Exosystem(s=[[0.5]], f=[[1.0]], v0=[1.0])
        rep = check_assumptions(ref.reference_plant(), exo, ref.reference_graph())
        assert not self._entry(rep, "exosystem modes")

    def test_detects_unstable_open_loop(self):
        plant = NominalPlant(a=[[1.2]], b=[[1.0]], c=[[1.0]])
        rep = check_assumptions(plant, ref.reference_exosystem(), ref.reference_graph())
        assert not self._entry(rep, "open-loop spectrum")


# ---------------------------------------------------------------------------
# closed-loop blocks and delay lift


class TestClosedLoopBlocks:
    def test_state_mode_structure(self, target_gains):
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        h, _ = h_matrix(ref.reference_graph())
        a0, a1 = closed_loop_blocks(plant, h, im, target_gains, "state")
        nfoll, n, nz = 4, 2, 2
        dim = nfoll * (n + nz)
        assert a0.shape == a1.shape == (dim, dim)

        expect_a0 = np.block(
            [
                [np.kron(np.eye(nfoll), plant.a), np.zeros((8, 8))],
                [np.kron(h, im.g2 @ plant.c), np.kron(np.eye(nfoll), im.g1)],
            ]
        )
        expect_a1 = np.block(
            [
                [
                    np.kron(h, plant.b @ target_gains.k_x),
                    np.kron(np.eye(nfoll), plant.b @ target_gains.k_z),
                ],
                [np.zeros((8, 16))],
            ]
        )
        assert np.max(np.abs(a0 - expect_a0)) <= 1e-15
        assert np.max(np.abs(a1 - expect_a1)) <= 1e-15

    def test_output_mode_structure(self, target_gains):
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        h, _ = h_matrix(ref.reference_graph())
        a0, a1 = closed_loop_blocks(plant, h, im, target_gains, "output")
        nfoll, n, nz = 4, 2, 2
        dim = nfoll * (2 * n + nz)
        assert a0.shape == a1.shape == (dim, dim)

        eye = np.eye(nfoll)
        lc = target_gains.l_obs @ plant.c
        expect_a0 = np.block(
            [
                [np.kron(eye, plant.a), np.zeros((8, 8)), np.zeros((8, 8))],
                [np.kron(h, im.g2 @ plant.c), np.kron(eye, im.g1), np.zeros((8, 8))],
                [np.kron(h, lc), np.zeros((8, 8)), np.kron(eye, plant.a) - np.kron(h, lc)],
            ]
        )
        bk1 = np.kron(eye, plant.b @ target_gains.k_z)
        bk2 = np.kron(h, plant.b @ target_gains.k_x)
        expect_a1 = np.block(
            [
                [np.zeros((8, 8)), bk1, bk2],
                [np.zeros((8, 24))],
                [np.zeros((8, 8)), bk1, bk2],
            ]
        )
        assert np.max(np.abs(a0 - expect_a0)) <= 1e-15
        assert np.max(np.abs(a1 - expect_a1)) <= 1e-15

    def test_complex_eigenvalue_slice(self, target_gains):
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        lam = 0.8 + 0.3j
        a0, a1 = closed_loop_blocks(plant, np.array([[lam]]), im, target_gains, "state")
        assert a0.shape == (4, 4)
        assert np.iscomplexobj(a0)
        assert np.max(np.abs(a0[2:, :2] - lam * (im.g2 @ plant.c))) <= 1e-15
        assert np.max(np.abs(a1[:2, :2] - lam * (plant.b @ target_gains.k_x))) <= 1e-15

    def test_output_mode_needs_observer(self):
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        gains = GainSet(k_x=np.zeros((1, 2)), k_z=np.zeros((1, 2)), gamma=0.1, nu=1.0)
        with pytest.raises(ConfigurationError, match="observer"):
            closed_loop_blocks(plant, np.eye(4), im, gains, "output")

    def test_unknown_mode(self, target_gains):
        with pytest.raises(ConfigurationError, match="mode"):
            closed_loop_blocks(
                ref.reference_plant(), np.eye(4), ref.reference_internal_model(),
                target_gains, "both",
            )


class TestNetworkBlocks:
    """The one builder of the networked loop, on per-follower stacks."""

    @pytest.mark.parametrize("mode", ["state", "output"])
    @pytest.mark.parametrize("lam", [None, 0.8 + 0.3j])
    def test_nominal_stack_reproduces_closed_loop_blocks(self, mode, lam, target_gains):
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        h = h_matrix(ref.reference_graph())[0] if lam is None else np.array([[lam]])
        a0, b_u, u_map, drive = network_blocks(
            plant, h, im, target_gains, mode, [(plant.a, plant.b, plant.c)] * h.shape[0]
        )
        n0, n1 = closed_loop_blocks(plant, h, im, target_gains, mode)
        assert np.array_equal(a0, n0)
        assert np.array_equal(b_u @ u_map, n1)
        # the virtual error (H (x) I_p) (I (x) C) x enters w only through D
        nx = h.shape[0] * plant.n
        c_bar = np.kron(h, plant.c)
        assert np.max(np.abs(a0[nx:, :nx] - (drive @ c_bar)[nx:])) <= 1e-15
        assert not np.any(drive[:nx])

    @pytest.mark.parametrize(
        "mode, scale, rho",
        [
            ("state", 1.0, 0.933189),
            ("state", 3.0, 0.992503),
            ("state", 3.4, 1.007180),
            ("output", 1.0, 0.961790),
            ("output", 1.4, 0.994223),
            ("output", 1.6, 1.008794),
        ],
    )
    def test_uncertain_reference_loop(self, mode, scale, rho, target_gains):
        # The benchmark's perturbed followers: Schur at scale 3.0 but not
        # 3.4 in state mode, at 1.4 but not 1.6 in output mode.
        sc = ref.reference_scenario(mode=mode, uncertainty_scale=scale)
        h, _ = h_matrix(sc.graph)
        a0, b_u, u_map, _ = network_blocks(
            sc.plant, h, sc.im, target_gains, mode, sc.agent_matrices()
        )
        got = spectral_radius(delay_lift(a0, b_u @ u_map, sc.delays.r))
        assert abs(got - rho) <= 1e-6
        assert (got < 1.0) == (rho < 1.0)

    def test_stack_length_must_match_h(self, target_gains):
        plant = ref.reference_plant()
        with pytest.raises(DimensionError, match="network_blocks"):
            network_blocks(
                plant, np.eye(4), ref.reference_internal_model(), target_gains, "state",
                [(plant.a, plant.b, plant.c)] * 3,
            )

    def test_gain_shapes_are_checked(self, target_gains):
        plant = ref.reference_plant()
        wide = replace(target_gains, k_z=np.zeros((1, 3)))
        with pytest.raises(DimensionError) as info:
            network_blocks(
                plant, np.eye(1), ref.reference_internal_model(), wide, "output",
                [(plant.a, plant.b, plant.c)],
            )
        assert str(info.value) == "gains.k_z: expected shape (1, 2), got (1, 3)"

    def test_unknown_mode(self, target_gains):
        plant = ref.reference_plant()
        with pytest.raises(ConfigurationError, match="network_blocks: unknown mode"):
            network_blocks(
                plant, np.eye(1), ref.reference_internal_model(), target_gains, "both",
                [(plant.a, plant.b, plant.c)],
            )


class TestDelayLift:
    def test_zero_delay_is_sum(self):
        rng = np.random.default_rng(3)
        a0 = rng.uniform(-1, 1, (3, 3))
        a1 = rng.uniform(-1, 1, (3, 3))
        assert np.array_equal(delay_lift(a0, a1, 0), a0 + a1)

    def test_scalar_lift_characteristic_roots(self):
        # Companion lift of w+ = 0.5 w + 0.3 w(t-r) has characteristic
        # polynomial lam^{r+1} - 0.5 lam^r - 0.3.
        lift1 = delay_lift([[0.5]], [[0.3]], 1)
        expect = (0.5 + np.sqrt(0.25 + 1.2)) / 2.0
        assert abs(spectral_radius(lift1) - expect) <= 1e-12

        lift2 = delay_lift([[0.5]], [[0.3]], 2)
        roots = np.roots([1.0, -0.5, 0.0, -0.3])
        assert abs(spectral_radius(lift2) - np.max(np.abs(roots))) <= 1e-12

    def test_lift_matches_delayed_recursion(self):
        # Iterating the lift must reproduce the literal two-term
        # recursion with constant-extension history, step for step.
        rng = np.random.default_rng(5)
        nb, r, steps = 2, 2, 60
        a0 = rng.uniform(-0.4, 0.4, (nb, nb))
        a1 = rng.uniform(-0.4, 0.4, (nb, nb))
        w0 = rng.uniform(-1, 1, nb)

        hist = [w0.copy() for _ in range(r + 1)]  # w(t), w(t-1), ..., w(t-r)
        direct = [w0.copy()]
        for _ in range(steps):
            w_next = a0 @ hist[0] + a1 @ hist[r]
            hist = [w_next] + hist[:r]
            direct.append(w_next)

        lift = delay_lift(a0, a1, r)
        stacked = np.concatenate([w0] * (r + 1))
        lifted = [w0.copy()]
        for _ in range(steps):
            stacked = lift @ stacked
            lifted.append(stacked[:nb].copy())

        assert np.max(np.abs(np.array(direct) - np.array(lifted))) <= 1e-12

    def test_validation(self):
        with pytest.raises(DimensionError):
            delay_lift(np.eye(2), np.eye(3), 1)
        with pytest.raises(DimensionError):
            delay_lift(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), 1)
        with pytest.raises(ConfigurationError):
            delay_lift(np.eye(2), np.eye(2), -1)


# ---------------------------------------------------------------------------
# certification


class TestCertifyClosedLoop:
    def test_benchmark_radius_frozen_state(self):
        gains = ref.reference_gains("state")
        stable, rho = certify_closed_loop(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            gains, ref.reference_delays(), "state",
        )
        assert stable
        assert abs(rho - 0.9515988) <= 1e-6

    def test_benchmark_radius_frozen_output(self):
        gains = ref.reference_gains("output")
        stable, rho = certify_closed_loop(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            gains, ref.reference_delays(), "output",
        )
        assert stable
        assert abs(rho - 0.9515988) <= 1e-6

    def test_benchmark_radius_target_gains(self, target_gains):
        for mode in ("state", "output"):
            stable, rho = certify_closed_loop(
                ref.reference_plant(), ref.reference_graph(),
                ref.reference_internal_model(), target_gains,
                ref.reference_delays(), mode,
            )
            assert stable
            assert abs(rho - 0.9385157) <= 1e-6

    def test_zero_gains_not_certified(self):
        # With no feedback the loop keeps the plant's and the internal
        # model's unit-circle modes: radius exactly 1, not Schur.
        gains = GainSet(k_x=np.zeros((1, 2)), k_z=np.zeros((1, 2)), gamma=0.1, nu=1.0)
        stable, rho = certify_closed_loop(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            gains, ref.reference_delays(), "state",
        )
        assert not stable
        # the retained plant mode is a Jordan pair at 1, whose computed
        # eigenvalue carries an O(sqrt(eps)) perturbation
        assert abs(rho - 1.0) <= 1e-7

    def test_zero_total_delay_equals_direct_radius(self, target_gains):
        # For r = 0 the lift is A0 + A1 itself.  The reference H has
        # eigenvalue 1 with 2 x 2 Jordan blocks, so the dense eigensolve
        # of the network-sized A0 + A1 is itself off by O(sqrt(eps));
        # the exact comparison is with the eigenvalue slices.
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        g = ref.reference_graph()
        h, _ = h_matrix(g)
        _, rho = certify_closed_loop(plant, g, im, target_gains, DelaySpec(0, 0), "state")
        rho_slices = 0.0
        for lam in eigenvalues(h, "H"):
            s0, s1 = closed_loop_blocks(plant, np.array([[lam]]), im, target_gains, "state")
            rho_slices = max(rho_slices, spectral_radius(s0 + s1))
        assert abs(rho - rho_slices) <= 1e-12
        a0, a1 = closed_loop_blocks(plant, h, im, target_gains, "state")
        assert abs(rho - spectral_radius(a0 + a1)) <= 1e-7

    def test_eigenwise_slices_match_full_radius_benchmark(self):
        # The coupling enters every block through I or H, so a Schur
        # triangularization of H block-triangularizes the loop: the
        # lifted spectrum is the union over 1 x 1 eigenvalue slices.
        # The certificate lifts one slice per distinct eigenvalue; the
        # dense network lift is the oracle.
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        g = ref.reference_graph()
        delays = ref.reference_delays()
        h, _ = h_matrix(g)
        for mode in ("state", "output"):
            gains = ref.reference_gains(mode)
            _, rho = certify_closed_loop(plant, g, im, gains, delays, mode)
            assert abs(rho - slice_radius(plant, h, im, gains, delays.r, mode)) <= 1e-12
            assert abs(rho - dense_radius(plant, h, im, gains, delays.r, mode)) <= 1e-8

    def test_eigenwise_slices_match_full_radius_random(self):
        rng = np.random.default_rng(42)
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        for _ in range(4):
            g = random_connected_digraph(rng, n_max=4)
            delays = DelaySpec(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            gains = auto_tune_gamma(plant, g, im, delays, 0.2)
            h, _ = h_matrix(g)
            _, rho = certify_closed_loop(plant, g, im, gains, delays, "state")
            assert abs(rho - slice_radius(plant, h, im, gains, delays.r, "state")) <= 1e-12
            assert abs(rho - dense_radius(plant, h, im, gains, delays.r, "state")) <= 1e-8

    @pytest.mark.parametrize(
        "graph",
        [ref.reference_graph(), NET12, random_tree(64), unit_chain(64)]
        + [random_digraph(np.random.default_rng(seed)) for seed in range(8)],
        ids=["reference", "net12", "tree64", "chain64"] + [f"random{seed}" for seed in range(8)],
    )
    def test_slices_match_the_quadratic_merge(self, graph):
        # The neighbour merge keeps exactly the slices of the all-pairs
        # merge, and the pencil gives each slice the radius of its own
        # builder lift, so every radius is the same to the bit.  With the
        # gamma = 1/8 design, a pencil taken as L(1) - L(0) is off by up
        # to 2e-14 in output mode on most of these graphs.
        plant, im, delays = ref.reference_plant(), ref.reference_internal_model(), ref.reference_delays()
        h, _ = h_matrix(graph)
        slices = quadratic_coupling_slices(h)
        real, cplx = graph._h_slices
        assert real.dtype == float and cplx.dtype == complex
        assert real.tolist() == [lam for lam in slices if type(lam) is float]
        assert cplx.tolist() == [lam for lam in slices if type(lam) is complex]
        for mode in ("state", "output"):
            eighth = synthesize_gains(plant, ref.reference_graph(), im, delays, 0.125, mode=mode)
            for gains in (ref.reference_gains(mode), eighth):
                radii = _slice_radii(plant, graph, im, gains, delays, mode)
                lifts = [
                    spectral_radius(delay_lift(*closed_loop_blocks(plant, [[lam]], im, gains, mode), delays.r))
                    for lam in [*real, *cplx]
                ]
                assert radii.tolist() == lifts
                assert certify_closed_loop(plant, graph, im, gains, delays, mode)[1] == max(lifts)

    @pytest.mark.parametrize("graph", [random_tree(64), NET12], ids=["tree64", "net12"])
    def test_one_eigensolve_per_slice_kind(self, graph, monkeypatch):
        # the real slices and the complex ones are each lifted as one stack
        # and eigensolved in one call
        plant, im, delays = ref.reference_plant(), ref.reference_internal_model(), ref.reference_delays()
        kinds = {kind for kind, lam in zip((float, complex), graph._h_slices) if lam.size}
        assert kinds == ({float} if graph is not NET12 else {float, complex})
        solve, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m.shape) or solve(m))
        for mode in ("state", "output"):
            gains = ref.reference_gains(mode)
            calls.clear()
            certify_closed_loop(plant, graph, im, gains, delays, mode)
            assert len(calls) <= len(kinds)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_non_finite_gain_raises_numerical_error(self, mode):
        # refused before any matrix product, so no RuntimeWarning comes
        # first; auto_tune_gamma counts on the NumericalError to record
        # the candidate as nan
        gains = ref.reference_gains(mode)
        for bad in (np.nan, np.inf, -np.inf):
            k_x = gains.k_x.copy()
            k_x[0, 1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError) as info:
                    certify_closed_loop(
                        ref.reference_plant(), NET12, ref.reference_internal_model(),
                        replace(gains, k_x=k_x), ref.reference_delays(), mode,
                    )
            assert str(info.value) == "gains.k_x: contains non-finite entries"

    def test_margin_is_strict(self, monkeypatch):
        # A radius exactly at 1 - SCHUR_MARGIN must NOT pass the strict inequality.
        args = (
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            ref.reference_gains("state"), ref.reference_delays(), "state",
        )
        stable, rho = certify_closed_loop(*args)
        assert stable and rho < 1.0
        monkeypatch.setattr(synthesis, "SCHUR_MARGIN", 1.0 - rho)
        assert certify_closed_loop(*args) == (False, rho)
        monkeypatch.setattr(synthesis, "SCHUR_MARGIN", 1.0 - rho - 1e-6)
        assert certify_closed_loop(*args) == (True, rho)

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_unit_chain_radius_is_the_unit_slice(self, n):
        # All N eigenvalues of a chain's H sit in one N x N Jordan block
        # at 1; the dense network lift drifts from the exact radius by
        # 4.5e-4 at N = 8 and 2.2e-2 at N = 64.
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        delays = ref.reference_delays()
        for mode in ("state", "output"):
            gains = ref.reference_gains(mode)
            stable, rho = certify_closed_loop(plant, unit_chain(n), im, gains, delays, mode)
            assert stable
            exact = slice_radius(plant, np.eye(1), im, gains, delays.r, mode)
            assert abs(rho - exact) <= 1e-12


# ---------------------------------------------------------------------------
# one-shot synthesis and parameter tuning


class TestSynthesizeGains:
    def test_benchmark_default_nu(self):
        gains = synthesize_gains(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            ref.reference_delays(), gamma=ref.GAMMA,
        )
        assert abs(gains.nu - ref.NU) <= 1e-12  # min Re eig(H) = 1 here
        assert gains.k_x.shape == (1, 2)
        assert gains.k_z.shape == (1, 2)
        assert gains.l_obs is None

    def test_default_nu_matches_coupling_spectrum(self):
        rng = np.random.default_rng(9)
        g = random_connected_digraph(rng, n_max=4)
        h, _ = h_matrix(g)
        re_min = float(np.min(np.real(np.linalg.eigvals(h))))
        gains = synthesize_gains(
            ref.reference_plant(), g, ref.reference_internal_model(),
            DelaySpec(0, 0), gamma=0.05,
        )
        assert abs(gains.nu - re_min) <= 1e-12

    def test_output_mode_populates_observer(self):
        gains = ref.reference_gains("output")
        assert gains.l_obs is not None
        assert gains.gamma_l == ref.GAMMA_L
        assert gains.nu_l == ref.NU_L
        assert gains.observer_r == 0

    def test_split_matches_full_gain(self):
        a_c, b_c = build_augmented(ref.reference_plant(), ref.reference_internal_model())
        k_full = state_feedback_gain(a_c, b_c, ref.GAMMA, ref.NU, 2)
        gains = ref.reference_gains("state")
        assert np.array_equal(np.hstack([gains.k_x, gains.k_z]), k_full)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError) as info:
            synthesize_gains(
                ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
                ref.reference_delays(), gamma=ref.GAMMA, mode="bogus",
            )
        assert str(info.value) == "synthesize_gains: unknown mode 'bogus'"


class TestAutoTuneGamma:
    def test_accepts_benchmark_gamma_directly(self):
        gains = auto_tune_gamma(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            ref.reference_delays(), ref.GAMMA, nu=ref.NU,
        )
        assert gains.gamma == ref.GAMMA

    def test_halves_until_certified(self):
        gains = auto_tune_gamma(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            ref.reference_delays(), 0.9, nu=ref.NU,
        )
        assert gains.gamma < 0.9
        stable, _ = certify_closed_loop(
            ref.reference_plant(), ref.reference_graph(), ref.reference_internal_model(),
            gains, ref.reference_delays(), "state",
        )
        assert stable

    def test_h_is_eigensolved_once_per_call(self, h_eigensolves):
        # Five designs are tried on TREE(64) from gamma = 0.5; each one's
        # default nu and certificate slices read one shared spectrum.
        plant, im, delays = ref.reference_plant(), ref.reference_internal_model(), ref.reference_delays()
        gains = auto_tune_gamma(plant, random_tree(64), im, delays, 0.5)
        assert gains.gamma == 0.03125
        assert h_eigensolves == [(64, 64)]

    def test_unit_chain64_accepts_first_stable_gamma(self):
        # On the unit slice gamma = 0.25 gives radius 1.094 and 0.125
        # gives 0.933, so halving from 0.5 must stop at 0.125.
        plant = ref.reference_plant()
        im = ref.reference_internal_model()
        delays = ref.reference_delays()
        g = unit_chain(64)
        for mode in ("state", "output"):
            gains = auto_tune_gamma(plant, g, im, delays, 0.5, mode=mode)
            assert gains.gamma == 0.125
            assert slice_radius(plant, np.eye(1), im, gains, delays.r, mode) < 1.0

    def test_reports_unresolvable_gammas_as_nan(self, monkeypatch):
        # A margin of 0.5 is out of reach, so all 40 halvings run; the last
        # ones fall below what double precision resolves and must be
        # recorded as failed solves, not as overflow warnings or guesses.
        monkeypatch.setattr(synthesis, "SCHUR_MARGIN", 0.5)
        sc = ref.reference_scenario("state")
        with pytest.raises(SynthesisError, match="after 40 halvings") as info:
            auto_tune_gamma(sc.plant, sc.graph, sc.im, sc.delays, 0.5)
        last = str(info.value).split("last candidates: ")[1].split(", ")
        assert len(last) == 5
        assert all(c.endswith("rho=nan") for c in last)

        # the smallest finite radius reached still shows, and is a local
        # minimum of the halving sequence
        def rho_at(gamma):
            gains = synthesize_gains(sc.plant, sc.graph, sc.im, sc.delays, gamma)
            return certify_closed_loop(sc.plant, sc.graph, sc.im, gains, sc.delays, "state")[1]

        best = str(info.value).split("smallest radius: ")[1].split(";")[0]
        assert best == f"rho={rho_at(0.125):.6f} at gamma=1.250e-01"
        assert rho_at(0.25) > rho_at(0.125) < rho_at(0.0625)

    def test_rejects_expansive_open_loop(self):
        plant = NominalPlant(a=[[1.05]], b=[[1.0]], c=[[1.0]])
        exo = Exosystem(s=[[1.0]], f=[[1.0]], v0=[1.0])
        im = build_internal_model(exo)
        with pytest.raises(SynthesisError, match="exceeds 1"):
            auto_tune_gamma(plant, ref.reference_graph(), im, DelaySpec(0, 0), 0.5)

    def test_rejects_unrooted_graph(self):
        # A leader edge of weight 5e-10 roots a tree, but min Re eig(H)
        # is not above the threshold that `check` applies, so no gain is
        # designed on it (nu = 5e-10 would give K_x of order 1e8).
        for edges, re_min in [(((1, 2, 1.0),), "0.0000e+00"), (((0, 1, 5e-10), (1, 2, 1.0)), "5.0000e-10")]:
            g = Digraph(n_followers=2, edges=edges)
            assert not connectivity_spectral_check(g)
            with pytest.raises(SynthesisError, match="spanning tree") as info:
                auto_tune_gamma(
                    ref.reference_plant(), g, ref.reference_internal_model(),
                    ref.reference_delays(), 0.1,
                )
            assert f"min Re eig(H) = {re_min}, not above the connectivity threshold 1e-09" in str(info.value)

    def test_rejects_bad_gamma0(self):
        with pytest.raises(ConfigurationError, match="gamma0"):
            auto_tune_gamma(
                ref.reference_plant(), ref.reference_graph(),
                ref.reference_internal_model(), ref.reference_delays(), 1.5,
            )
