"""Simulation-layer tests: scenarios, traces, simulators, cross-checks.

The agentwise simulators are held against the compact Kronecker-form
oracle (two independently coded routes), against hand-stepped small
recursions, and against each other across the transformed/delayed law
pair with matched initial histories.
"""

from dataclasses import replace

import numpy as np
import pytest

from coopreg import (
    DelaySpec,
    Digraph,
    Exosystem,
    FollowerUncertainty,
    GainSet,
    NominalPlant,
    Scenario,
    build_internal_model,
    edgewise_virtual_errors,
    exo_step,
    load_trace_csv,
    simulate_compact_oracle,
    simulate_output_feedback,
    simulate_state_feedback,
)
from coopreg.errors import ConfigurationError, DimensionError, DivergenceError
from coopreg.graphs import h_matrix
from coopreg.matrixops import kron
from coopreg import reference as ref

from conftest import (
    NET12,
    SCHUR_SEEDS,
    random_digraph,
    random_scenario,
    uncertain_lifted_radius,
)


def case_scenario(case, mode, horizon):
    """A seed draws a small :func:`random_scenario`; ``"net12"`` puts a
    random plant and gains on the twelve-follower ``NET12`` with
    ``r_con = 1``, ``r_com = 2``."""
    if case == "net12":
        rng = np.random.default_rng(12)
        return random_scenario(rng, mode, horizon, graph=NET12, delays=DelaySpec(1, 2))
    return random_scenario(np.random.default_rng(case), mode, horizon)


def check_schur_case(case, sc, gains, *traces):
    """A :data:`SCHUR_SEEDS` case must have a Schur uncertain loop and
    traces that stay below 1e3; other cases are not checked."""
    if case not in SCHUR_SEEDS:
        return
    assert uncertain_lifted_radius(sc, gains) < 1.0
    for trace in traces:
        for name in ("x", "z", "xi", "u", "y", "e", "e_v"):
            arr = getattr(trace, name)
            assert arr is None or np.max(np.abs(arr)) < 1e3, name


def zero_gains(mode="state"):
    return GainSet(
        k_x=np.zeros((1, 2)),
        k_z=np.zeros((1, 2)),
        gamma=0.1,
        nu=1.0,
        l_obs=np.zeros((2, 1)) if mode == "output" else None,
        gamma_l=0.1 if mode == "output" else None,
        nu_l=1.0 if mode == "output" else None,
    )


# ---------------------------------------------------------------------------
# exosystem and coupling primitives


class TestExoStep:
    def test_identity_keeps_state(self):
        exo = Exosystem(s=np.eye(2), f=np.zeros((1, 2)), v0=[0.3, -0.7])
        v = exo.v0
        for _ in range(5):
            v = exo_step(exo, v)
        assert np.array_equal(v, exo.v0)

    def test_benchmark_first_step(self):
        exo = ref.reference_exosystem()
        v1 = exo_step(exo, exo.v0)
        assert np.max(np.abs(v1 - np.array([np.cos(1.0), -np.sin(1.0)]))) <= 1e-15

    def test_rotation_preserves_norm(self):
        exo = ref.reference_exosystem()
        v = exo.v0
        for _ in range(1000):
            v = exo_step(exo, v)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


class TestEdgewiseVirtualErrors:
    def test_matches_kronecker_route(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_digraph(rng, n_max=6)
            p = int(rng.integers(1, 3))
            e_all = rng.uniform(-2, 2, (g.n_followers, p))
            h, _ = h_matrix(g)
            expect = (kron(h, np.eye(p)) @ e_all.reshape(-1)).reshape(g.n_followers, p)
            shuffled = Digraph(
                g.n_followers, tuple(g.edges[k] for k in rng.permutation(len(g.edges)))
            )
            for graph in (g, shuffled):
                got = edgewise_virtual_errors(graph, e_all)
                assert np.max(np.abs(got - expect)) <= 1e-12

    def test_leader_edge_only(self):
        # Single follower fed by the leader: e_v = a_10 * e_1.
        g = Digraph(n_followers=1, edges=((0, 1, 2.5),))
        got = edgewise_virtual_errors(g, np.array([[0.4]]))
        assert np.max(np.abs(got - np.array([[1.0]]))) <= 1e-15


# ---------------------------------------------------------------------------
# scenario assembly


class TestScenario:
    def test_validation_errors(self):
        plant = ref.reference_plant()
        exo = ref.reference_exosystem()
        g = ref.reference_graph()
        im = ref.reference_internal_model()
        base = dict(plant=plant, exo=exo, graph=g, delays=DelaySpec(0, 0), im=im)

        with pytest.raises(ConfigurationError, match="mode"):
            Scenario(**base, mode="both")
        with pytest.raises(ConfigurationError, match="horizon"):
            Scenario(**base, horizon=-1)
        with pytest.raises(ConfigurationError, match="per_agent_e"):
            Scenario(**base, per_agent_e=(np.zeros((2, 2)),) * 3)
        with pytest.raises(DimensionError, match="per_agent_e"):
            Scenario(**base, per_agent_e=(np.zeros((3, 2)),) * 4)
        with pytest.raises(ConfigurationError, match="uncertainties"):
            Scenario(**base, uncertainties=(FollowerUncertainty.zero(),) * 2)
        with pytest.raises(ConfigurationError, match="init_states"):
            Scenario(**base, init_states={"w": np.zeros(2)})
        with pytest.raises(DimensionError, match="outputs"):
            Scenario(
                plant=plant,
                exo=Exosystem(s=np.eye(2), f=np.zeros((2, 2)), v0=[0.0, 0.0]),
                graph=g,
                delays=DelaySpec(0, 0),
                im=im,
            )

    def test_e_list_fallbacks(self):
        exo = ref.reference_exosystem()
        g = ref.reference_graph()
        im = ref.reference_internal_model()

        # explicit per-agent matrices win
        sc = ref.reference_scenario(horizon=1)
        assert np.array_equal(sc.e_list()[2], np.array([[0.0, 0.0], [0.0, 3.0]]))

        # plant-level e replicated to all agents
        plant_e = NominalPlant(
            a=[[1.0, 1.0], [0.0, 1.0]], b=[[1.0], [1.0]], c=[[1.0, 0.0]],
            e=[[0.5, 0.0], [0.0, 0.5]],
        )
        sc2 = Scenario(plant=plant_e, exo=exo, graph=g, delays=DelaySpec(0, 0), im=im)
        assert len(sc2.e_list()) == 4
        assert all(np.array_equal(e, plant_e.e) for e in sc2.e_list())

        # neither given: zeros
        sc3 = Scenario(
            plant=ref.reference_plant(), exo=exo, graph=g, delays=DelaySpec(0, 0), im=im
        )
        assert all(np.array_equal(e, np.zeros((2, 2))) for e in sc3.e_list())

    def test_agent_matrices_apply_uncertainty(self):
        sc = ref.reference_scenario(horizon=1)
        mats = sc.agent_matrices()
        # follower 3 (index 2): A perturbed at (0,1) by 0.3, B at (0,0)
        # by 0.3, E = [[0,0],[0,3]] perturbed at (0,1) by 0.7
        a3, b3, c3, e3 = mats[2]
        assert np.array_equal(a3, np.array([[1.0, 1.3], [0.0, 1.0]]))
        assert np.array_equal(b3, np.array([[1.3], [1.0]]))
        assert np.array_equal(c3, np.array([[1.0, 0.0]]))
        assert np.array_equal(e3, np.array([[0.0, 0.7], [0.0, 3.0]]))

    def test_initial_state_overrides_keep_stream(self):
        sc = ref.reference_scenario(horizon=1)
        x0, z0, xi0 = sc.initial_states()
        sc_z = replace(sc, init_states={"z": np.ones((4, 2))})
        x0b, z0b, xi0b = sc_z.initial_states()
        assert np.array_equal(x0, x0b)
        assert np.array_equal(xi0, xi0b)
        assert np.array_equal(z0b, np.ones((4, 2)))
        assert not np.array_equal(z0, z0b)


# ---------------------------------------------------------------------------
# basic simulator behavior


class TestBasicRuns:
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_zero_scenario_stays_zero(self, mode):
        zeros = {"x": np.zeros((4, 2)), "z": np.zeros((4, 2)), "xi": np.zeros((4, 2))}
        sc = replace(
            ref.reference_scenario(mode=mode, horizon=50, v0=(0.0, 0.0)),
            init_states=zeros,
        )
        gains = zero_gains(mode)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        trace = run(sc, gains)
        for name in ("v", "x", "z", "u", "y", "e", "e_v"):
            assert np.all(getattr(trace, name) == 0.0)
        if mode == "output":
            assert np.all(trace.xi == 0.0)

    def test_trace_shapes_and_time_axis(self):
        sc = ref.reference_scenario(horizon=10)
        trace = simulate_state_feedback(sc, zero_gains())
        assert np.array_equal(trace.t, np.arange(10))
        assert trace.v.shape == (10, 2)
        assert trace.x.shape == (10, 4, 2)
        assert trace.z.shape == (10, 4, 2)
        assert trace.u.shape == (10, 4, 1)
        assert trace.y.shape == trace.e.shape == trace.e_v.shape == (10, 4, 1)
        assert trace.xi is None
        assert trace.horizon == 10

    def test_bitwise_determinism(self, target_gains):
        sc = ref.reference_scenario(mode="output", horizon=60, seed=123)
        t1 = simulate_output_feedback(sc, target_gains)
        t2 = simulate_output_feedback(sc, target_gains)
        for name in ("v", "x", "z", "xi", "u", "y", "e", "e_v"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_open_loop_first_step(self):
        # With zero gains the recursion is x(1) = A_i x(0) + E_i v(0)
        # and z(1) = G1 z(0) + G2 e_v(0); check row 1 entry for entry.
        sc = ref.reference_scenario(horizon=2)
        trace = simulate_state_feedback(sc, zero_gains())
        mats = sc.agent_matrices()
        im = sc.im
        for i in range(4):
            a_i, _, _, e_i = mats[i]
            expect_x = a_i @ trace.x[0, i] + e_i @ trace.v[0]
            assert np.max(np.abs(trace.x[1, i] - expect_x)) <= 1e-14
            expect_z = im.g1 @ trace.z[0, i] + im.g2 @ trace.e_v[0, i]
            assert np.max(np.abs(trace.z[1, i] - expect_z)) <= 1e-14

    def test_input_delay_prehistory(self):
        # r_con = 2: the plant consumes u(t-2), with the pre-history
        # frozen at u(0); so x(t+1) = A x(t) + B u(max(t-2, 0)) + E v(t).
        sc = replace(
            ref.reference_scenario(horizon=6, uncertain=False),
            delays=DelaySpec(r_con=2, r_com=0),
        )
        rng_gains = GainSet(
            k_x=np.array([[0.01, -0.02]]), k_z=np.array([[0.005, 0.015]]),
            gamma=0.1, nu=1.0,
        )
        trace = simulate_state_feedback(sc, rng_gains)
        a, b = sc.plant.a, sc.plant.b
        e_mats = sc.e_list()
        for t in range(5):
            u_eff = trace.u[max(t - 2, 0)]
            for i in range(4):
                expect = a @ trace.x[t, i] + b @ u_eff[i] + e_mats[i] @ trace.v[t]
                assert np.max(np.abs(trace.x[t + 1, i] - expect)) <= 1e-13

    def test_divergence_guard_raises(self):
        sc = ref.reference_scenario(horizon=50)
        wild = GainSet(
            k_x=np.array([[1e6, 1e6]]), k_z=np.array([[0.0, 0.0]]), gamma=0.1, nu=1.0
        )
        with pytest.raises(DivergenceError) as exc:
            simulate_state_feedback(sc, wild)
        assert exc.value.step is not None
        assert exc.value.norm > 1e12

    def test_law_and_history_validation(self, target_gains):
        sc = ref.reference_scenario(horizon=5)
        with pytest.raises(ConfigurationError, match="law"):
            simulate_state_feedback(sc, target_gains, law="direct")
        with pytest.raises(ConfigurationError, match="transformed law only"):
            simulate_state_feedback(
                sc, target_gains, law="delayed",
                controller_past=np.zeros((1, 4, 2)),
            )
        with pytest.raises(DimensionError, match="history"):
            simulate_state_feedback(sc, target_gains, controller_past=np.zeros((2, 4, 2)))

        sc_out = ref.reference_scenario(mode="output", horizon=5)
        with pytest.raises(ConfigurationError, match="observer gain"):
            simulate_output_feedback(sc_out, zero_gains("state"))
        with pytest.raises(ConfigurationError, match="transformed law only"):
            simulate_output_feedback(
                sc_out, target_gains, law="delayed", observer_past=np.zeros((1, 4, 2))
            )


class TestObserverConsistency:
    def test_estimates_track_true_state_exactly(self, target_gains):
        # Nominal followers, zero exogenous signal, and estimates
        # initialized at the true state: the estimation error dynamics
        # are autonomous and start at zero, so xi(t) == x(t) throughout.
        base = ref.reference_scenario(
            mode="output", horizon=200, uncertain=False, v0=(0.0, 0.0)
        )
        x0, _, _ = base.initial_states()
        sc = replace(base, init_states={"xi": x0})
        trace = simulate_output_feedback(sc, target_gains)
        assert np.max(np.abs(trace.xi - trace.x)) <= 1e-10


# ---------------------------------------------------------------------------
# cross-route agreement


class TestOracleAgreement:
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_benchmark_agreement(self, mode, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=400)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        agentwise = run(sc, target_gains)
        oracle = simulate_compact_oracle(sc, target_gains)
        assert agentwise.max_relative_deviation(oracle) <= 1e-9

    @pytest.mark.parametrize("seed", [101, 202, 303, "net12", *SCHUR_SEEDS])
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_random_scenario_agreement(self, seed, mode):
        sc, gains = case_scenario(seed, mode, horizon=150)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        agentwise = run(sc, gains)
        oracle = simulate_compact_oracle(sc, gains)
        assert agentwise.max_relative_deviation(oracle) <= 1e-9
        check_schur_case(seed, sc, gains, agentwise, oracle)


def matched_transformed_run(sc, gains, run, delayed_trace):
    """Re-run ``sc`` under the transformed law with histories matched to
    a delayed-law trace, so the two are related by the documented shift
    ``z_transformed(t) = z_delayed(t + r_com)``."""
    r_com = sc.delays.r_com
    overrides = {"z": delayed_trace.z[r_com]}
    kwargs = {"controller_past": delayed_trace.z[:r_com][::-1]}
    if delayed_trace.xi is not None:
        overrides["xi"] = delayed_trace.xi[r_com]
        kwargs["observer_past"] = delayed_trace.xi[:r_com][::-1]
    sc_tr = replace(sc, init_states=overrides)
    return run(sc_tr, gains, law="transformed", **kwargs)


class TestLawEquivalence:
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_benchmark_matched_histories(self, mode, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=120)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        delayed = run(sc, target_gains, law="delayed")
        transformed = matched_transformed_run(sc, target_gains, run, delayed)

        r_com = sc.delays.r_com
        for name in ("x", "u", "y", "e", "e_v"):
            a, b = getattr(transformed, name), getattr(delayed, name)
            assert np.max(np.abs(a - b)) <= 1e-9, name
        # controller states line up after the index shift
        T = sc.horizon
        assert np.max(np.abs(transformed.z[: T - r_com] - delayed.z[r_com:])) <= 1e-9
        if mode == "output":
            assert np.max(np.abs(transformed.xi[: T - r_com] - delayed.xi[r_com:])) <= 1e-9

    @pytest.mark.parametrize("seed", [11, 22, 33, "net12", *SCHUR_SEEDS])
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_random_matched_histories(self, seed, mode):
        sc, gains = case_scenario(seed, mode, horizon=80)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        delayed = run(sc, gains, law="delayed")
        transformed = matched_transformed_run(sc, gains, run, delayed)
        assert np.max(np.abs(transformed.e - delayed.e)) <= 1e-9
        r_com = sc.delays.r_com
        T = sc.horizon
        assert np.max(np.abs(transformed.z[: T - r_com] - delayed.z[r_com:])) <= 1e-9
        check_schur_case(seed, sc, gains, delayed, transformed)


# ---------------------------------------------------------------------------
# tracking performance


class TestTracking:
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_benchmark_converges_under_uncertainty(self, mode, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=2000, seed=1)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        trace = run(sc, target_gains)
        assert trace.tail_max_error(200) <= 1e-2

    def test_half_magnitude_uncertainty_converges(self, target_gains):
        sc = ref.reference_scenario(
            mode="state", horizon=2000, seed=2, uncertainty_scale=0.5
        )
        trace = simulate_state_feedback(sc, target_gains)
        assert trace.tail_max_error(200) <= 1e-2

    def test_tail_error_helpers(self):
        sc = ref.reference_scenario(horizon=30)
        trace = simulate_state_feedback(sc, zero_gains())
        assert trace.tail_max_error(0) == 0.0
        full = trace.tail_max_error(30)
        per_agent = trace.tail_max_error_per_agent(30)
        assert per_agent.shape == (4,)
        assert abs(full - float(np.max(per_agent))) <= 1e-15
        assert full == float(np.max(np.abs(trace.e)))


# ---------------------------------------------------------------------------
# trace file round-trip


class TestTraceCsv:
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_round_trip_exact(self, tmp_path, mode, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=25)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        trace = run(sc, target_gains)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = load_trace_csv(path)
        for name in ("v", "x", "z", "xi", "u", "y", "e", "e_v"):
            a, b = getattr(trace, name), getattr(loaded, name)
            if a is None:
                assert b is None
                continue
            assert np.array_equal(a, b), name
        assert np.array_equal(trace.t, loaded.t)

    def test_zero_horizon_header_only(self, tmp_path):
        sc = ref.reference_scenario(horizon=0)
        trace = simulate_state_feedback(sc, zero_gains())
        path = tmp_path / "empty.csv"
        trace.to_csv(path)
        loaded = load_trace_csv(path)
        assert loaded.horizon == 0
        assert loaded.x.shape == (0, 4, 2)

    @pytest.mark.parametrize("damage", ["truncated_row", "non_numeric_cell"])
    def test_malformed_trace_names_the_file(self, tmp_path, damage, target_gains):
        trace = simulate_state_feedback(ref.reference_scenario(horizon=5), target_gains)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
        if damage == "truncated_row":
            last = last[: len(last) // 2]
        else:
            last = "oops" + last[last.index(",") :]
        path.write_text(f"{head}\n{last}\n")
        with pytest.raises(ConfigurationError, match="trace.csv: malformed trace data"):
            load_trace_csv(path)

    def test_deviation_shape_mismatch(self):
        sc5 = simulate_state_feedback(ref.reference_scenario(horizon=5), zero_gains())
        sc6 = simulate_state_feedback(ref.reference_scenario(horizon=6), zero_gains())
        with pytest.raises(DimensionError):
            sc5.max_relative_deviation(sc6)
