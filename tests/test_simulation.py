"""Simulation-layer tests: scenarios, traces, simulators, cross-checks.

The agentwise simulators are held against the compact Kronecker-form
oracle (two independently coded routes), against hand-stepped small
recursions, and against each other across the transformed/delayed law
pair with matched initial histories.
"""

import os
import warnings
from dataclasses import replace
from pathlib import Path

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
    SimulationTrace,
    build_internal_model,
    edgewise_virtual_errors,
    load_trace_csv,
    simulate_compact_oracle,
    simulate_output_feedback,
    simulate_state_feedback,
)
from coopreg.errors import ConfigurationError, DimensionError, DivergenceError, NumericalError
from coopreg.graphs import h_matrix
from coopreg.matrixops import kron
from coopreg import reference as ref
from coopreg import simulation

from conftest import (
    NET12,
    SCHUR_SEEDS,
    random_digraph,
    random_scenario,
    reference_trace_csv,
    uncertain_lifted_radius,
)


def tree_graph(n):
    """TREE(n): follower 1 hears the leader, follower ``i`` an earlier node, weights U[0.5, 2]."""
    rng = np.random.default_rng(0)
    edges = [(0, 1, 1.0)] + [(int(rng.integers(0, i)), i, float(rng.uniform(0.5, 2.0))) for i in range(2, n + 1)]
    return Digraph(n, tuple(edges))


TREE16 = tree_graph(16)
# Cases of :func:`case_scenario` that run the bundled agent, and their
# graphs (``None``: the bundled one).
AGENT_CASES = {
    "nominal": None,
    "tree16": TREE16,
    "chain8": Digraph(8, tuple((i, i + 1, 1.0) for i in range(8))),
    "tree16_last": TREE16,
}


def case_scenario(case, mode, horizon):
    """A seed draws a small :func:`random_scenario`; ``"net12"`` puts a
    random plant and gains on the twelve-follower ``NET12`` with
    ``r_con = 1``, ``r_com = 2``.  A name of :data:`AGENT_CASES` runs
    identical followers, the bundled agent with ``target_gains``, which
    the kernel steps with one 2-D product: ``"nominal"`` on the bundled
    graph, ``"tree16"`` and ``"chain8"`` on TREE(16) and CHAIN(8);
    ``"tree16_last"`` makes only the last of the sixteen uncertain."""
    if case in AGENT_CASES:
        sc = ref.reference_scenario(mode=mode, horizon=horizon, uncertain=False)
        if AGENT_CASES[case] is not None:
            sc = replace(sc, graph=AGENT_CASES[case], per_agent_e=None)
        if case == "tree16_last":
            last = FollowerUncertainty(d_a=[[0.0, 0.05], [0.0, 0.0]], d_b=[[0.05], [0.0]], d_c=[[0.02, 0.0]])
            sc = replace(sc, uncertainties=(None,) * 15 + (last,))
        return sc, ref.target_gains()
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


# 60-step agentwise traces of ``reference_scenario`` with ``target_gains``,
# keyed ``<mode>-<law>-<signal>``, recorded from the kernel that stepped
# ``[x | z | xi]`` and formed ``e = y + F v`` each step.
GOLDEN_TRACES = Path(__file__).with_name("reference_traces_60.npz")


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
    """The exosystem rows ``trace.v`` of a simulation: ``v(t+1) = S v(t)``."""

    def test_identity_keeps_state(self):
        exo = Exosystem(s=np.eye(2), f=np.zeros((1, 2)), v0=[0.3, -0.7])
        im = build_internal_model(exo)
        sc = replace(ref.reference_scenario(horizon=6), exo=exo, im=im)
        gains = GainSet(k_x=np.zeros((1, 2)), k_z=np.zeros((1, im.dim)), gamma=0.1, nu=1.0)
        v = simulate_state_feedback(sc, gains).v
        assert np.array_equal(v, np.tile(exo.v0, (6, 1)))

    def test_benchmark_first_step(self):
        v = simulate_state_feedback(ref.reference_scenario(horizon=2), zero_gains()).v
        assert np.array_equal(v[0], [1.0, 0.0])
        assert np.max(np.abs(v[1] - np.array([np.cos(1.0), -np.sin(1.0)]))) <= 1e-15

    def test_rotation_preserves_norm(self):
        v = simulate_state_feedback(ref.reference_scenario(horizon=1001), zero_gains()).v
        assert abs(np.linalg.norm(v[-1]) - 1.0) <= 1e-9


def kronecker_virtual_errors(g, e_all):
    h, _ = h_matrix(g)
    p = e_all.shape[1]
    return (kron(h, np.eye(p)) @ e_all.reshape(-1)).reshape(g.n_followers, p)


def per_edge_scatter(g, rows):
    """The coupling as ``np.add.at`` over the edge list into zero rows."""
    src, dst, w = (np.array(col) for col in zip(*g.edges))
    padded = np.vstack([np.zeros((1, rows.shape[1])), rows])
    out = np.zeros_like(padded)
    np.add.at(out, dst, w[:, None] * (padded[dst] - padded[src]))
    return out[1:]


class TestEdgewiseVirtualErrors:
    def test_matches_kronecker_route(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_digraph(rng, n_max=6)
            p = int(rng.integers(1, 3))
            e_all = rng.uniform(-2, 2, (g.n_followers, p))
            expect = kronecker_virtual_errors(g, e_all)
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

    def test_empty_edge_list_gives_zero_rows(self):
        g = Digraph(n_followers=3)
        e_all = np.random.default_rng(3).uniform(-2, 2, (3, 2))
        got = edgewise_virtual_errors(g, e_all)
        assert np.array_equal(got, kronecker_virtual_errors(g, e_all))
        assert np.array_equal(got, np.zeros((3, 2)))

    def test_followers_without_in_edges_keep_zero_rows(self):
        # followers 2 and 4 receive nothing; 1 and 3 receive two edges each
        g = Digraph(4, ((4, 3, 2.0), (0, 1, 1.5), (2, 1, 0.3), (1, 3, 0.7)))
        e_all = np.random.default_rng(4).uniform(-2, 2, (4, 2))
        got = edgewise_virtual_errors(g, e_all)
        assert np.max(np.abs(got - kronecker_virtual_errors(g, e_all))) <= 1e-12
        assert np.array_equal(got[[1, 3]], np.zeros((2, 2)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_net12_bitwise_equals_per_edge_scatter(self, p):
        # several in-edges per follower, listed out of receiver order;
        # follower 1 hears only the leader, so its -0.0 error row makes a
        # -0.0 term, which a sum into zero rows turns into +0.0
        e_all = np.random.default_rng(12 + p).uniform(-2, 2, (12, p))
        e_all[0] = -0.0
        got = edgewise_virtual_errors(NET12, e_all)
        want = per_edge_scatter(NET12, e_all)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.signbit(got[0]).any()


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
        with pytest.raises(ConfigurationError) as info:
            Scenario(**base, seed=1.5)
        assert str(info.value) == "scenario.seed: must be an integer, got 1.5"
        two_channels = build_internal_model(Exosystem(s=exo.s, f=np.zeros((2, 2)), v0=[0.0, 0.0]))
        with pytest.raises(DimensionError) as info:
            Scenario(**{**base, "im": two_channels})
        assert str(info.value) == "scenario: internal model replicates 2 channels, plant has 1"
        with pytest.raises(ConfigurationError, match="per_agent_e"):
            Scenario(**base, per_agent_e=(np.zeros((2, 2)),) * 3)
        with pytest.raises(DimensionError, match="per_agent_e"):
            Scenario(**base, per_agent_e=(np.zeros((3, 2)),) * 4)
        with pytest.raises(ConfigurationError, match="uncertainties"):
            Scenario(**base, uncertainties=(FollowerUncertainty(),) * 2)
        with pytest.raises(ConfigurationError, match="init_states"):
            Scenario(**base, init_states={"w": np.zeros(2)})
        # overrides that initial_states() could not reshape are caught here
        for key, value, got in (
            ("x", [[1.0, 2.0]], "2"),
            ("z", np.zeros((4, 3)), "12"),
            ("xi", [[1.0], [1.0, 2.0]], "a ragged or non-numeric array"),
        ):
            with pytest.raises(ConfigurationError) as info:
                Scenario(**base, init_states={key: value})
            assert str(info.value) == f"scenario.init_states.{key}: expected 8 numbers for shape (4, 2), got {got}"
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
        sc = ref.reference_scenario(horizon=1, uncertain=False)
        assert np.array_equal(sc.agent_matrices()[2][3], np.array([[0.0, 0.0], [0.0, 3.0]]))

        # plant-level e replicated to all agents
        plant_e = NominalPlant(
            a=[[1.0, 1.0], [0.0, 1.0]], b=[[1.0], [1.0]], c=[[1.0, 0.0]],
            e=[[0.5, 0.0], [0.0, 0.5]],
        )
        sc2 = Scenario(plant=plant_e, exo=exo, graph=g, delays=DelaySpec(0, 0), im=im)
        assert len(sc2.agent_matrices()) == 4
        assert all(np.array_equal(mats[3], plant_e.e) for mats in sc2.agent_matrices())

        # neither given: zeros
        sc3 = Scenario(
            plant=ref.reference_plant(), exo=exo, graph=g, delays=DelaySpec(0, 0), im=im
        )
        assert all(np.array_equal(mats[3], np.zeros((2, 2))) for mats in sc3.agent_matrices())

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

    def test_init_state_override_is_reshaped_row_major(self):
        sc = replace(ref.reference_scenario(horizon=1), init_states={"x": np.arange(8.0)})
        assert np.array_equal(sc.initial_states()[0], np.arange(8.0).reshape(4, 2))

    def test_initial_states_are_resolved_once_read_only(self):
        sc = ref.reference_scenario(horizon=1, mode="output")
        first, again = sc.initial_states(), sc.initial_states()
        assert all(a is b for a, b in zip(first, again))
        # the same seeded draw, in the order x, z, xi
        rng = np.random.default_rng(sc.seed)
        for arr in first:
            assert np.array_equal(arr, rng.uniform(sc.init_low, sc.init_high, arr.shape))
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0

    def test_follower_stacks_and_edge_index_are_built_once_read_only(self, target_gains):
        sc = ref.reference_scenario(horizon=80)
        stacks, index = sc.agent_stacks(), sc.graph._edge_index
        for arr in (*stacks, *index):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0
        a_3, _, _, e_3 = sc.agent_matrices()[2]
        assert a_3.base is stacks[0] and e_3.base is stacks[3]
        first = simulate_state_feedback(sc, target_gains)
        second = simulate_state_feedback(sc, target_gains)
        assert all(a is b for a, b in zip(sc.agent_stacks(), stacks))
        assert sc.graph._edge_index is index
        for name in ("t", "v", "x", "z", "u", "y", "e", "e_v"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name

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
        mats = sc.agent_matrices()
        for t in range(5):
            u_eff = trace.u[max(t - 2, 0)]
            for i in range(4):
                expect = a @ trace.x[t, i] + b @ u_eff[i] + mats[i][3] @ trace.v[t]
                assert np.max(np.abs(trace.x[t + 1, i] - expect)) <= 1e-13

    @pytest.mark.parametrize(
        "case, law",
        [(case, law) for case in ("reference", "tree16") for law in ("transformed", "delayed")]
        + [("past", "transformed")],
    )
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_law_and_plant_hold_on_the_trace(self, mode, case, law, target_gains):
        # u(t) = K_x cfb(t - d_fb) + K_z z(t - d_z), where cfb is x (state)
        # or xi (output) coupled through H; a read before t = 0 takes the
        # given history, else the value at t = 0.  The plant receives
        # u(t - r_con), u before t = 0 being u(0).  The uncertain reference
        # followers take the per-follower path, TREE(16)'s the 2-D one.
        if case == "tree16":
            sc, gains = case_scenario(case, mode, horizon=60)
        else:
            sc, gains = ref.reference_scenario(mode=mode, horizon=60), target_gains
        r_con, r_com, T = sc.delays.r_con, sc.delays.r_com, sc.horizon
        past = {}
        if case == "past":
            rng = np.random.default_rng(7)
            past["controller_past"] = rng.uniform(-1.0, 1.0, (r_com, sc.n_agents, sc.im.dim))
            if mode == "output":
                past["observer_past"] = rng.uniform(-1.0, 1.0, (r_com, sc.n_agents, sc.plant.n))
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        trace = run(sc, gains, law=law, **past)

        def read(signal, given, delay):
            # signal(t - delay) for t = 0..T-1; ``given`` is newest first
            before = np.repeat(signal[:1], r_com, axis=0) if given is None else given[::-1]
            return np.concatenate([before, signal])[r_com - delay : r_com - delay + T]

        def relative(a, b):
            return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))

        d_z = r_com if law == "transformed" else 0
        d_fb = d_z if mode == "output" else r_com
        h, _ = h_matrix(sc.graph)
        fb = read(trace.x, None, d_fb) if mode == "state" else read(trace.xi, past.get("observer_past"), d_fb)
        u = np.einsum("ij,tjk,mk->tim", h, fb, gains.k_x)
        u += np.einsum("tik,mk->tim", read(trace.z, past.get("controller_past"), d_z), gains.k_z)
        assert relative(trace.u, u) <= 1e-12

        a, b, _, e = sc.agent_stacks()
        received = trace.u[np.maximum(np.arange(T - 1) - r_con, 0)]
        x_next = np.einsum("ijk,tik->tij", a, trace.x[:-1]) + np.einsum("ijk,tik->tij", b, received)
        x_next += np.einsum("ijk,tk->tij", e, trace.v[:-1])
        assert relative(trace.x[1:], x_next) <= 1e-12

    @pytest.mark.parametrize(
        "mode, law, step, norm",
        [
            ("state", "transformed", 4, 5.408456028852427e12),
            ("state", "delayed", 4, 5.408456028852427e12),
            ("output", "transformed", 4, 8.614752247812051e12),
            ("output", "delayed", 3, 8.61473922661937e12),
        ],
        ids=["state-transformed", "state-delayed", "output-transformed", "output-delayed"],
    )
    def test_divergence_guard_raises(self, mode, law, step, norm, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=50)
        wild = GainSet(
            k_x=np.array([[1e6, 1e6]]), k_z=np.array([[0.0, 0.0]]), gamma=0.1, nu=1.0,
            l_obs=target_gains.l_obs if mode == "output" else None,
        )
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        with pytest.raises(DivergenceError) as exc:
            run(sc, wild, law=law)
        assert exc.value.step == step
        assert exc.value.norm == pytest.approx(norm, rel=1e-9)
        assert str(exc.value) == (
            f"simulation diverged at step {step} (state magnitude {norm:.3e} exceeds guard 1.0e+12)"
        )

    @pytest.mark.parametrize(
        "mode, law, k_x, horizon, step, norm",
        [
            ("state", "transformed", 1e6, 50, 4, 5.408456028852427e12),
            ("output", "delayed", 1e6, 50, 3, 8.61473922661937e12),
            ("state", "transformed", 1e50, 64, 1, 2.2619972172846628e50),
            ("output", "delayed", 1e50, 64, 1, 3.2552967068802737e50),
            ("state", "transformed", 0.2, 90, 90, 1.2229157030854873e12),
            ("output", "delayed", 0.2, 100, 100, 1.214608353727484e12),
            ("state", "transformed", 0.2, 300, 90, 1.2229157030854873e12),
            ("output", "delayed", 0.2, 300, 100, 1.214608353727484e12),
        ],
        ids=["first-block-state", "first-block-output", "overflow-state", "overflow-output",
             "last-step-state", "last-step-output", "second-block-state", "second-block-output"],
    )
    def test_block_guard_stops_at_the_first_step_out(self, mode, law, k_x, horizon, step, norm, target_gains):
        # The guard checks blocks of steps.  A run that leaves it in the
        # first block, on its very last step (t = T - 1 makes step T), or
        # in a later block raises the step, norm and message a check after
        # every step gives.  The steps run after it inside the block stay
        # silent, also where they overflow (the 1e50 gains).
        sc = ref.reference_scenario(mode=mode, horizon=horizon)
        gains = GainSet(
            k_x=np.full((1, 2), k_x), k_z=np.zeros((1, 2)) if k_x > 1 else target_gains.k_z, gamma=0.1, nu=1.0,
            l_obs=target_gains.l_obs if mode == "output" else None,
        )
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                run(sc, gains, law=law)
        assert exc.value.step == step
        assert exc.value.norm == pytest.approx(norm, rel=1e-9)
        assert str(exc.value) == (
            f"simulation diverged at step {step} (state magnitude {norm:.3e} exceeds guard 1.0e+12)"
        )
        if step == horizon:  # one step shorter never leaves the guard
            run(replace(sc, horizon=horizon - 1), gains, law=law)

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
        with pytest.raises(ConfigurationError, match="observer gain"):
            simulate_compact_oracle(sc_out, zero_gains("state"))
        with pytest.raises(ConfigurationError, match="transformed law only"):
            simulate_output_feedback(
                sc_out, target_gains, law="delayed", observer_past=np.zeros((1, 4, 2))
            )

    @pytest.mark.parametrize(
        "mode, run, past",
        [("state", simulate_state_feedback, "controller_past"), ("output", simulate_output_feedback, "observer_past")],
    )
    def test_both_simulators_word_their_checks_alike(self, mode, run, past, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=5)
        with pytest.raises(ConfigurationError) as info:
            run(sc, target_gains, law="direct")
        assert str(info.value) == f"{run.__name__}: unknown law 'direct'"
        with pytest.raises(ConfigurationError) as info:
            run(sc, target_gains, law="delayed", **{past: np.zeros((1, 4, 2))})
        assert str(info.value) == f"{run.__name__}: history overrides apply to the transformed law only"
        with pytest.raises(DimensionError) as info:
            run(sc, replace(target_gains, k_x=np.zeros((1, 3))))
        assert str(info.value) == "gains.k_x: expected shape (1, 2), got (1, 3)"

    @pytest.mark.parametrize(
        "mode, run",
        [("state", simulate_state_feedback), ("output", simulate_output_feedback),
         ("state", simulate_compact_oracle), ("output", simulate_compact_oracle)],
        ids=["state", "output", "oracle-state", "oracle-output"],
    )
    def test_infinite_gain_is_refused_up_front(self, mode, run, target_gains):
        # Refused before the first step.  Left to run, it diverges at
        # step 1, and the oracle warns in a matrix product before that.
        k_x = target_gains.k_x.copy()
        k_x[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as info:
                run(ref.reference_scenario(mode=mode, horizon=5), replace(target_gains, k_x=k_x))
        assert str(info.value) == "gains.k_x: contains non-finite entries"

    @pytest.mark.parametrize(
        "mode, run, expected",
        [("state", simulate_output_feedback, "output"), ("output", simulate_state_feedback, "state")],
    )
    def test_scenario_of_the_other_mode_is_rejected(self, mode, run, expected, target_gains):
        # The two modes run different closed loops: an output-mode run of
        # the 2000-step state scenario left that scenario's oracle trace by
        # a relative deviation of 1.99.
        with pytest.raises(ConfigurationError) as info:
            run(ref.reference_scenario(mode=mode, horizon=5), target_gains)
        assert str(info.value) == f"{run.__name__}: scenario.mode is {mode!r}, expected {expected!r}"


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

    @pytest.mark.parametrize("seed", [101, 202, 303, "net12", *SCHUR_SEEDS, *AGENT_CASES])
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_random_scenario_agreement(self, seed, mode):
        sc, gains = case_scenario(seed, mode, horizon=150)
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        agentwise = run(sc, gains)
        oracle = simulate_compact_oracle(sc, gains)
        assert agentwise.max_relative_deviation(oracle) <= 1e-9
        check_schur_case(seed, sc, gains, agentwise, oracle)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_tree64_distinct_followers_agreement(self, mode, target_gains):
        # 64 followers on a random tree, each with its own small
        # uncertainty and disturbance matrix, so a follower stepped with
        # another's matrices shows up against the oracle.
        rng = np.random.default_rng(0)
        edges = tuple((int(rng.integers(0, i)), i, float(rng.uniform(0.5, 1.5))) for i in range(1, 65))
        uncertainties = tuple(
            FollowerUncertainty(
                d_a=rng.uniform(-0.01, 0.01, (2, 2)),
                d_b=rng.uniform(-0.01, 0.01, (2, 1)),
                d_e=rng.uniform(-0.01, 0.01, (2, 2)),
                d_c=rng.uniform(-0.01, 0.01, (1, 2)),
            )
            for _ in range(64)
        )
        per_agent_e = tuple(rng.uniform(-0.1, 0.1, (2, 2)) for _ in range(64))
        sc = replace(
            ref.reference_scenario(mode=mode, horizon=200),
            graph=Digraph(n_followers=64, edges=edges),
            uncertainties=uncertainties,
            per_agent_e=per_agent_e,
        )
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        agentwise = run(sc, target_gains)
        oracle = simulate_compact_oracle(sc, target_gains)
        assert np.max(np.abs(agentwise.x)) < 1e3
        assert agentwise.max_relative_deviation(oracle) <= 1e-9


class TestGoldenTraces:
    @pytest.mark.parametrize("law", ["transformed", "delayed"])
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_reference_traces_match_the_recorded_ones(self, mode, law, target_gains):
        run = simulate_state_feedback if mode == "state" else simulate_output_feedback
        trace = run(ref.reference_scenario(mode=mode, horizon=60), target_gains, law=law)
        with np.load(GOLDEN_TRACES) as golden:
            recorded = {name: golden.get(f"{mode}-{law}-{name}") for name in ("v", "x", "z", "xi", "u", "y", "e", "e_v")}
        assert (recorded["xi"] is None) == (mode == "state")
        assert trace.max_relative_deviation(SimulationTrace(t=trace.t, **recorded)) <= 1e-12


class TestOracleOutputs:
    """The oracle forms ``y``, ``e``, ``e_v`` and ``u`` in bulk after its loop."""

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_error_is_output_plus_exosystem_feed(self, mode, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=300)
        trace = simulate_compact_oracle(sc, target_gains)
        for t in range(trace.horizon):
            assert np.array_equal(trace.e[t], trace.y[t] + sc.exo.f @ trace.v[t])

    @pytest.mark.parametrize("case", ["reference", 101, "net12"])
    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_virtual_error_is_the_edgewise_coupling_of_e(self, case, mode, target_gains):
        if case == "reference":
            sc, gains = ref.reference_scenario(mode=mode, horizon=300), target_gains
        else:
            sc, gains = case_scenario(case, mode, horizon=150)
        trace = simulate_compact_oracle(sc, gains)
        for t in range(trace.horizon):
            edgewise = edgewise_virtual_errors(sc.graph, trace.e[t])
            scale = np.maximum(1.0, np.abs(edgewise))
            assert np.max(np.abs(trace.e_v[t] - edgewise) / scale) <= 1e-12

    @pytest.mark.parametrize(
        "mode, k_x, step, norm",
        [
            ("state", 1e6, 4, 5.408456028852428e12),
            ("output", 1e6, 4, 8.61475224781205e12),
            ("state", 1e50, 1, 2.261997217284663e50),
            ("output", 1e50, 1, 3.255296706880274e50),
        ],
    )
    def test_divergence_guard_raises(self, mode, k_x, step, norm, target_gains):
        sc = ref.reference_scenario(mode=mode, horizon=64)
        wild = GainSet(
            k_x=np.full((1, 2), k_x), k_z=np.array([[0.0, 0.0]]), gamma=0.1, nu=1.0,
            l_obs=target_gains.l_obs if mode == "output" else None,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                simulate_compact_oracle(sc, wild)
        assert exc.value.step == step
        assert exc.value.norm == pytest.approx(norm, rel=1e-9)


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

    @pytest.mark.parametrize("seed", [11, 22, 33, "net12", *SCHUR_SEEDS, "nominal", "tree16", "chain8"])
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

    @pytest.mark.parametrize("steps", [0, -1, -29])
    def test_tail_of_no_rows_is_zero(self, steps):
        trace = simulate_state_feedback(ref.reference_scenario(horizon=30), zero_gains())
        assert np.max(np.abs(trace.e)) > 0.0
        assert trace.tail_max_error(steps) == 0.0
        assert np.array_equal(trace.tail_max_error_per_agent(steps), np.zeros(4))

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


# Whether this host splits a large trace over a forked child.
FORKS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def plant_special_values(trace, row=0):
    """Put signed zeros, infinities, nan, the smallest subnormal and
    values whose ``repr`` switches to exponent form in rows ``row`` to
    ``row + 2``; nan goes into ``xi``, or ``u`` in state mode."""
    trace.v[row, 1] = -0.0
    trace.x[row, 0, 0] = -0.0
    trace.x[row + 1, 2, 1] = np.inf
    trace.z[row + 2, 3, 0] = -np.inf
    (trace.u if trace.xi is None else trace.xi)[row + 1, 0, 0] = np.nan
    trace.u[row + 2, 1, 0] = 5e-324
    trace.y[row, 2, 0] = -5e-324
    trace.e[row + 1, 3, 0] = 1e16
    trace.e_v[row + 2, 0, 0] = 1e-5


def csv_case_trace(case, gains):
    """A reference run in either mode, a zero-horizon run, a short
    output-mode run holding :func:`plant_special_values`, or a
    3000-step run of either mode (``"large_<mode>"``), large enough for
    the writer and reader to fork, with those values in both halves."""
    if case == "zero_horizon":
        return simulate_state_feedback(ref.reference_scenario(horizon=0), zero_gains())
    mode = "state" if case in ("state", "large_state") else "output"
    horizon = 3000 if case.startswith("large") else 25 if case == mode else 3
    run = simulate_state_feedback if mode == "state" else simulate_output_feedback
    trace = run(ref.reference_scenario(mode=mode, horizon=horizon), gains)
    if case != mode:
        plant_special_values(trace)
    if case.startswith("large"):
        plant_special_values(trace, 1500)
    return trace


def assert_same_trace(a, b):
    """Every signal equal, nan for nan and sign bit for sign bit."""
    for name in ("v", "x", "z", "xi", "u", "y", "e", "e_v"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None:
            assert y is None
            continue
        assert np.array_equal(x, y, equal_nan=True), name
        assert np.array_equal(np.signbit(x), np.signbit(y)), name
    assert np.array_equal(a.t, b.t)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the calls of ``os.fork``."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


class TestTraceCsv:
    @pytest.mark.parametrize("case", ["state", "output", "special_values", "large_state", "large_output"])
    def test_round_trip_exact(self, tmp_path, case, target_gains, forks):
        trace = csv_case_trace(case, target_gains)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert_no_child()
        assert_same_trace(trace, load_trace_csv(path))
        assert_no_child()
        assert len(forks) == 2 * (FORKS and case.startswith("large"))

    def test_zero_horizon_header_only(self, tmp_path):
        sc = ref.reference_scenario(horizon=0)
        trace = simulate_state_feedback(sc, zero_gains())
        path = tmp_path / "empty.csv"
        trace.to_csv(path)
        loaded = load_trace_csv(path)
        assert loaded.horizon == 0
        assert loaded.x.shape == (0, 4, 2)

    @pytest.mark.parametrize(
        "case", ["state", "output", "zero_horizon", "special_values", "large_state", "large_output"]
    )
    def test_bytes_match_per_value_writer(self, tmp_path, case, target_gains, forks):
        trace = csv_case_trace(case, target_gains)
        trace.to_csv(tmp_path / "bulk.csv")
        assert len(forks) == (FORKS and case.startswith("large"))
        reference_trace_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated_row", "non_numeric_cell", "long_header", "short_rows", "no_t_column", "fractional_t",
            "comments_only",
        ],
    )
    def test_malformed_trace_names_the_file(self, tmp_path, damage, target_gains):
        trace = simulate_state_feedback(ref.reference_scenario(horizon=5), target_gains)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        top = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        if damage == "truncated_row":
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        elif damage == "non_numeric_cell":
            lines[-1] = "oops" + lines[-1][lines[-1].index(",") :]
        elif damage == "long_header":
            lines[top] += ",ev5_0"
        elif damage == "short_rows":
            lines[top + 1 :] = [line.rsplit(",", 1)[0] for line in lines[top + 1 :]]
        elif damage == "no_t_column":
            lines[top] = "s" + lines[top][1:]
        elif damage == "comments_only":
            lines = lines[:top]
        else:
            lines[-1] = "4.5" + lines[-1][lines[-1].index(",") :]
        path.write_text("\n".join(lines) + "\n")
        problem = "empty trace file" if damage == "comments_only" else "malformed trace data"
        with pytest.raises(ConfigurationError, match=f"trace.csv: {problem}"):
            load_trace_csv(path)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_one_cpu_writes_and_reads_the_same(self, tmp_path, mode, target_gains, forks, monkeypatch):
        trace = csv_case_trace(f"large_{mode}", target_gains)
        trace.to_csv(tmp_path / "forked.csv")
        forked = load_trace_csv(tmp_path / "forked.csv")
        one_cpu(monkeypatch)
        trace.to_csv(tmp_path / "serial.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()
        assert_same_trace(forked, load_trace_csv(tmp_path / "serial.csv"))
        assert len(forks) == 2 * FORKS

    @pytest.mark.parametrize("row", [10, 1500], ids=["parent_half", "child_half"])
    def test_malformed_row_gives_the_serial_message(self, tmp_path, row, target_gains, forks, monkeypatch):
        path = tmp_path / "trace.csv"
        csv_case_trace("large_state", target_gains).to_csv(path)
        lines = path.read_text().splitlines()
        top = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        lines[top + 1 + row] = lines[top + 1 + row].replace(",", ",oops", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=f"malformed trace data .* at row {row}, column 2") as forked:
            load_trace_csv(path)
        assert len(forks) == 2 * FORKS  # the writer's, then the reader's
        assert_no_child()
        one_cpu(monkeypatch)
        with pytest.raises(ConfigurationError) as serial:
            load_trace_csv(path)
        assert str(forked.value) == str(serial.value)

    @pytest.mark.parametrize(
        "case, row", [("large_state", 1500), ("large_output", None), ("one_step", None)],
        ids=["child_half", "trailing", "one_step"],
    )
    def test_blank_lines_are_skipped(self, tmp_path, case, row, target_gains, forks, monkeypatch):
        if case == "one_step":
            trace = simulate_state_feedback(ref.reference_scenario(horizon=1), target_gains)
        else:
            trace = csv_case_trace(case, target_gains)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_bytes().split(b"\n")
        top = next(k for k, line in enumerate(lines) if not line.startswith(b"#"))
        lines.insert(len(lines) if row is None else top + 1 + row, b"")
        path.write_bytes(b"\n".join(lines))
        assert_same_trace(trace, load_trace_csv(path))
        assert_no_child()
        one_cpu(monkeypatch)
        assert_same_trace(trace, load_trace_csv(path))
        assert len(forks) == 2 * (FORKS and case != "one_step")

    def test_failed_child_rows_are_written_again(self, tmp_path, target_gains, forks, monkeypatch):
        trace = csv_case_trace("large_output", target_gains)
        reference_trace_csv(trace, tmp_path / "reference.csv")
        parent = os.getpid()

        def repr_failing_in_a_child(value):
            if os.getpid() != parent:
                raise MemoryError
            return repr(value)

        monkeypatch.setattr(simulation, "repr", repr_failing_in_a_child, raising=False)
        trace.to_csv(tmp_path / "trace.csv")
        assert len(forks) == FORKS
        assert_no_child()
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_failed_fork_converts_every_row_here(self, tmp_path, target_gains, forks, monkeypatch):
        trace = csv_case_trace("large_output", target_gains)
        reference_trace_csv(trace, tmp_path / "reference.csv")

        def no_process_to_spare():
            forks.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process_to_spare)
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert_same_trace(trace, load_trace_csv(tmp_path / "trace.csv"))
        assert len(forks) == 2 * FORKS
        assert_no_child()

    def test_deviation_shape_mismatch(self):
        sc5 = simulate_state_feedback(ref.reference_scenario(horizon=5), zero_gains())
        sc6 = simulate_state_feedback(ref.reference_scenario(horizon=6), zero_gains())
        with pytest.raises(DimensionError):
            sc5.max_relative_deviation(sc6)
