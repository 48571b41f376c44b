"""Scenario-file and gain-file tests: parsing, validation, round-trips.

The YAML readers must reject malformed input with the dotted path of
the offending field and keep every value a file holds, floats at full
precision; the gain-file writer must be deterministic.
"""

import copy

import numpy as np
import pytest
import yaml

from coopreg import (
    GainSet,
    load_config,
    load_gains,
    save_gains,
)
from coopreg.config import config_from_dict
from coopreg.errors import ConfigurationError, DimensionError
from coopreg import reference as ref

from conftest import benchmark_config_dict

# Every file these tests read is also parsed by the pure-Python loader.
pytestmark = pytest.mark.usefixtures("yaml_parity")


@pytest.fixture
def bench_dict():
    return benchmark_config_dict()


# ---------------------------------------------------------------------------
# parsing


class TestConfigParsing:
    def test_benchmark_dict_parses(self, bench_dict):
        cfg = config_from_dict(bench_dict)
        sc = cfg.scenario
        assert sc.mode == "state"
        assert sc.n_agents == 4
        assert sc.delays.r_con == 1 and sc.delays.r_com == 1
        assert sc.horizon == 300
        assert np.array_equal(sc.plant.a, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.array_equal(sc.exo.v0, np.array([1.0, 0.0]))
        assert len(sc.per_agent_e) == 4
        assert np.array_equal(sc.per_agent_e[3], np.array([[0.0, 0.0], [0.0, 4.0]]))
        assert len(sc.uncertainties) == 4
        assert cfg.synthesis.gamma == 0.08
        assert cfg.synthesis.gamma_l == 0.18

    def test_beta_override_reaches_internal_model(self, bench_dict):
        cfg = config_from_dict(bench_dict)
        im = cfg.scenario.im
        # the override installs the rotation itself as the model block
        assert np.array_equal(im.g1, np.asarray(bench_dict["exosystem"]["s"]))
        assert np.array_equal(im.g2, np.array([[0.0], [1.0]]))

    def test_default_companion_when_no_override(self, bench_dict):
        del bench_dict["synthesis"]["beta_override"]
        cfg = config_from_dict(bench_dict)
        im = cfg.scenario.im
        # companion realization of lam^2 - 2 cos(1) lam + 1
        expect = np.array([[0.0, 1.0], [-1.0, 2.0 * np.cos(1.0)]])
        assert np.max(np.abs(im.g1 - expect)) <= 1e-12

    def test_missing_v0_defaults_to_zero(self, bench_dict):
        del bench_dict["exosystem"]["v0"]
        cfg = config_from_dict(bench_dict)
        assert np.array_equal(cfg.scenario.exo.v0, np.zeros(2))

    def test_defaults_for_optional_sections(self, bench_dict):
        for key in ("delays", "per_agent_e", "uncertainties", "simulation"):
            bench_dict.pop(key, None)
        cfg = config_from_dict(bench_dict)
        sc = cfg.scenario
        assert sc.delays.r == 0
        assert sc.per_agent_e is None
        assert sc.uncertainties is None
        assert sc.horizon == 100 and sc.seed == 0


class TestConfigValidation:
    def _expect(self, data, match):
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(data)

    def test_bad_mode(self, bench_dict):
        bench_dict["mode"] = "closed"
        self._expect(bench_dict, "mode")

    def test_missing_plant_section(self, bench_dict):
        del bench_dict["plant"]
        self._expect(bench_dict, "plant: missing required field")

    def test_ragged_matrix_rows(self, bench_dict):
        bench_dict["plant"]["a"] = [[1.0, 1.0], [0.0, 1.0, 2.0]]
        self._expect(bench_dict, r"plant\.a: row 1 has 3 entries, expected 2")

    def test_non_numeric_matrix_entry(self, bench_dict):
        bench_dict["plant"]["b"] = [[1.0], ["one"]]
        self._expect(bench_dict, r"plant\.b: row 1 contains a non-numeric entry")

    def test_boolean_rejected_as_number(self, bench_dict):
        bench_dict["synthesis"]["gamma"] = True
        self._expect(bench_dict, r"synthesis\.gamma")

    def test_missing_graph_size(self, bench_dict):
        del bench_dict["graph"]["n_followers"]
        self._expect(bench_dict, r"graph\.n_followers: missing")

    def test_malformed_edge(self, bench_dict):
        bench_dict["graph"]["edges"][2] = [1, 3]
        self._expect(bench_dict, r"graph\.edges\[2\]")

    def test_gamma_out_of_range(self, bench_dict):
        bench_dict["synthesis"]["gamma"] = 1.2
        self._expect(bench_dict, r"synthesis\.gamma: must lie in \(0, 1\)")

    def test_unknown_uncertainty_field(self, bench_dict):
        bench_dict["uncertainties"][1]["d_q"] = [[0.0, 0.0], [0.0, 0.0]]
        self._expect(bench_dict, r"uncertainties\[1\]: unknown fields")

    def test_horizon_type(self, bench_dict):
        bench_dict["simulation"]["horizon"] = "long"
        self._expect(bench_dict, r"simulation\.horizon: expected an integer")

    def test_top_level_not_mapping(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigurationError, match="top level"):
            load_config(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("plant: {a: [[1, 1]\n")
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_config(path)


DEL = object()  # marks a field to delete instead of set


def _mutate(data, path, value):
    """Set (or, with ``DEL``, delete) the entry at a dotted path; digits index lists."""
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    for key in parents:
        data = data[key]
    if value is DEL:
        del data[last]
    else:
        data[last] = value


CE, DE = ConfigurationError, DimensionError

# (id, dotted path, value, exception type, exact message).  Every field
# kind gets a missing, null, bool, string, ragged or flat value, and
# every section a value that is not a mapping or not a list.
MALFORMED_CONFIGS = [
    ("section-missing", "plant", DEL, CE, "plant: missing required field"),
    ("section-list", "plant", [], CE, "plant: expected a mapping"),
    ("section-null", "plant", None, CE, "plant: expected a mapping"),
    ("exosystem-missing", "exosystem", DEL, CE, "exosystem: missing required field"),
    ("graph-null", "graph", None, CE, "graph: expected a mapping"),
    ("graph-str", "graph", "g", CE, "graph: expected a mapping"),
    ("delays-list", "delays", [1, 1], CE, "delays: expected a mapping"),
    ("delays-null", "delays", None, CE, "delays: expected a mapping"),
    ("synthesis-str", "synthesis", "fast", CE, "synthesis: expected a mapping"),
    ("simulation-list", "simulation", [], CE, "simulation: expected a mapping"),
    ("synthesis-null", "synthesis", None, CE, "synthesis: expected a mapping"),
    ("simulation-null", "simulation", None, CE, "simulation: expected a mapping"),
    ("beta_override-list", "synthesis.beta_override", [], CE, "synthesis.beta_override: expected a mapping"),
    ("per_agent_e-dict", "per_agent_e", {}, CE, "per_agent_e: expected a list of matrices"),
    ("uncertainties-dict", "uncertainties", {}, CE, "uncertainties: expected a list of mappings"),
    ("uncertainty-int", "uncertainties.1", 3, CE, "uncertainties[1]: expected a mapping"),
    ("init_states-list", "simulation.init_states", [1], CE,
     "simulation.init_states: expected a mapping"),
    ("edges-dict", "graph.edges", {}, CE, "graph.edges: expected a list of [source, target, weight]"),
    ("edges-null", "graph.edges", None, CE,
     "graph.edges: expected a list of [source, target, weight]"),
    ("matrix-missing", "plant.a", DEL, CE, "plant.a: missing required matrix"),
    ("matrix-null", "exosystem.f", None, CE, "exosystem.f: missing required matrix"),
    ("matrix-flat", "plant.c", [1.0, 0.0], CE, "plant.c: expected a list of rows"),
    ("matrix-empty", "plant.a", [], CE, "plant.a: expected a list of rows"),
    ("matrix-str", "plant.a", "eye", CE, "plant.a: expected a list of rows"),
    ("matrix-row-not-list", "plant.a", [[1.0, 1.0], 3], CE, "plant.a: expected a list of rows"),
    ("matrix-ragged", "plant.a", [[1.0, 1.0], [0.0, 1.0, 2.0]], CE,
     "plant.a: row 1 has 3 entries, expected 2"),
    ("matrix-bool", "plant.b", [[1.0], [True]], CE,
     "plant.b: row 1 contains a non-numeric entry True"),
    ("matrix-str-entry", "plant.b", [[1.0], ["one"]], CE,
     "plant.b: row 1 contains a non-numeric entry 'one'"),
    ("matrix-null-entry", "plant.e", [[None, 0.0], [0.0, 0.0]], CE,
     "plant.e: row 0 contains a non-numeric entry None"),
    ("beta-missing", "synthesis.beta_override.beta", DEL, CE,
     "synthesis.beta_override.beta: missing required matrix"),
    ("per_agent_e-flat", "per_agent_e.1", [0.0, 1.0], CE, "per_agent_e[1]: expected a list of rows"),
    ("per_agent_e-null", "per_agent_e.2", None, CE, "per_agent_e[2]: expected a list of rows"),
    ("uncertainty-ragged", "uncertainties.1.d_a", [[0.0, 0.2], [0.0]], CE,
     "uncertainties[1].d_a: row 1 has 1 entries, expected 2"),
    ("init_state-null", "simulation.init_states", {"x": None}, CE,
     "simulation.init_states.x: missing required matrix"),
    ("init_state-flat", "simulation.init_states", {"x": [1.0, 2.0]}, CE,
     "simulation.init_states.x: expected a list of rows"),
    ("vector-str", "exosystem.v0", "zero", CE, "exosystem.v0: expected a flat list of numbers"),
    ("vector-nested", "exosystem.v0", [[1.0], [0.0]], CE,
     "exosystem.v0: expected a flat list of numbers"),
    ("vector-bool", "exosystem.v0", [True, 0.0], CE, "exosystem.v0: expected a flat list of numbers"),
    ("number-bool", "synthesis.gamma", True, CE, "synthesis.gamma: expected a number, got True"),
    ("number-str", "synthesis.nu", "1.0", CE, "synthesis.nu: expected a number, got '1.0'"),
    ("number-list", "simulation.init_low", [0.0], CE,
     "simulation.init_low: expected a number, got [0.0]"),
    ("integer-missing", "graph.n_followers", DEL, CE, "graph.n_followers: missing required value"),
    ("integer-null", "graph.n_followers", None, CE, "graph.n_followers: missing required value"),
    ("integer-bool", "graph.n_followers", True, CE,
     "graph.n_followers: expected an integer, got True"),
    ("integer-float", "delays.r_con", 1.0, CE, "delays.r_con: expected an integer, got 1.0"),
    ("integer-str", "simulation.horizon", "long", CE,
     "simulation.horizon: expected an integer, got 'long'"),
    ("integer-half", "synthesis.observer_r", 0.5, CE,
     "synthesis.observer_r: expected an integer, got 0.5"),
    ("integer-false", "simulation.seed", False, CE, "simulation.seed: expected an integer, got False"),
    ("gamma-range", "synthesis.gamma", 1.2, CE, "synthesis.gamma: must lie in (0, 1), got 1.2"),
    ("gamma_l-range", "synthesis.gamma_l", 0.0, CE, "synthesis.gamma_l: must lie in (0, 1), got 0.0"),
    ("nu-negative", "synthesis.nu", -1.0, CE, "synthesis.nu: must be finite and positive, got -1.0"),
    ("nu-nan", "synthesis.nu", float("nan"), CE, "synthesis.nu: must be finite and positive, got nan"),
    ("nu-inf", "synthesis.nu", float("inf"), CE, "synthesis.nu: must be finite and positive, got inf"),
    ("nu_l-zero", "synthesis.nu_l", 0.0, CE, "synthesis.nu_l: must be finite and positive, got 0.0"),
    ("nu_l-int", "synthesis.nu_l", -2, CE, "synthesis.nu_l: must be finite and positive, got -2.0"),
    ("observer_r-negative", "synthesis.observer_r", -2, CE,
     "synthesis.observer_r: must be a non-negative integer, got -2"),
    ("mode", "mode", "closed", CE, "mode: must be 'state' or 'output', got 'closed'"),
    ("uncertainty-unknown", "uncertainties.1.d_q", [[0.0]], CE, "uncertainties[1]: unknown fields ['d_q']"),
    ("edge-short", "graph.edges.2", [1, 3], CE,
     "graph.edges[2]: expected [source, target, weight], got [1, 3]"),
    ("edge-str", "graph.edges.2", "1->3", CE,
     "graph.edges[2]: expected [source, target, weight], got '1->3'"),
    ("edge-node-str", "graph.edges.2", [0, "x", 1.0], CE,
     "graph.edges[2]: node indices must be integers, got (0, 'x')"),
    ("edge-node-float", "graph.edges.2", [1.5, 3, 1.0], CE,
     "graph.edges[2]: node indices must be integers, got (1.5, 3)"),
    ("edge-node-bool", "graph.edges.2", [True, 3, 1.0], CE,
     "graph.edges[2]: node indices must be integers, got (True, 3)"),
    ("edge-weight-str", "graph.edges.2", [1, 3, "heavy"], CE,
     "graph.edges[2]: weight must be a real number, got 'heavy'"),
    ("edge-weight-bool", "graph.edges.2", [1, 3, True], CE,
     "graph.edges[2]: weight must be a real number, got True"),
    ("edge-into-leader", "graph.edges.2", [1, 0, 1.0], CE,
     "graph.edges[2]: edge into the leader (node 0) is not allowed"),
    ("edge-weight-zero", "graph.edges.2", [1, 3, 0.0], CE,
     "graph.edges[2]: weight must be finite and positive, got 0.0"),
    ("edge-range", "graph.edges.2", [1, 7, 1.0], CE,
     "graph.edges[2]: node index out of range 0..4: (1, 7)"),
    ("edge-duplicate", "graph.edges.2", [0, 1, 1.0], CE, "graph.edges[2]: duplicate edge (0, 1)"),
    ("delay-negative", "delays.r_con", -1, CE, "delays.r_con: must be a non-negative integer, got -1"),
    ("followers-zero", "graph.n_followers", 0, CE,
     "graph.n_followers: must be a positive integer, got 0"),
    ("uncertainty-count", "uncertainties.3", DEL, CE,
     "scenario.uncertainties: expected 4 entries, got 3"),
    ("uncertainty-shape", "uncertainties.1.d_a", [[0.1]], DE,
     "uncertainties[1].d_a: expected shape (2, 2), got (1, 1)"),
    ("per_agent_e-shape", "per_agent_e.1", [[1.0]], DE,
     "per_agent_e[1]: expected shape (2, 2), got (1, 1)"),
    ("init_states-key", "simulation.init_states", {"w": [[0.0]]}, CE,
     "simulation.init_states: unknown fields ['w']"),
    ("init_states-size", "simulation.init_states", {"x": [[1.0, 2.0]]}, CE,
     "scenario.init_states.x: expected 8 numbers for shape (4, 2), got 2"),
    ("plant-rows", "plant.b", [[1.0]], DE, "plant.b: expected 2 rows, got 1"),
    ("plant-cols", "plant.c", [[1.0]], DE, "plant.c: expected 2 columns, got 1"),
    ("v0-length", "exosystem.v0", [1.0], DE, "exosystem.v0: expected length 2, got 1"),
    ("v0-inf", "exosystem.v0", [float("inf"), 0.0], CE, "exosystem.v0: contains non-finite entries"),
    ("matrix-nan", "plant.a", [[1.0, float("nan")], [0.0, 1.0]], CE, "plant.a: contains non-finite entries"),
    ("horizon-negative", "simulation.horizon", -1, CE,
     "simulation.horizon: must be a non-negative integer, got -1"),
    ("seed-negative", "simulation.seed", -1, CE, "simulation.seed: must be a non-negative integer, got -1"),
    ("init-bounds", "simulation.init_low", 2.0, CE,
     "scenario.init_low/init_high: need finite low <= high, got (2.0, 1.0)"),
]


@pytest.mark.parametrize(
    "path, value, exc, message", [pytest.param(*case[1:], id=case[0]) for case in MALFORMED_CONFIGS]
)
def test_malformed_config_message(bench_dict, path, value, exc, message):
    _mutate(bench_dict, path, value)
    with pytest.raises(exc) as info:
        config_from_dict(bench_dict)
    assert type(info.value) is exc
    assert str(info.value) == message


GAIN_FILE = {
    "k_x": [[0.1, -0.2]], "k_z": [[0.3, 0.4]], "gamma": 0.05, "nu": 2.0,
    "l_obs": [[0.7], [0.2]], "gamma_l": 0.1, "nu_l": 0.5, "observer_r": 0,
}

CERTIFICATE = {"mode": "output", "stable": True, "spectral_radius": 0.9385157, "delay": 2}


def _certified(**fields):
    """A gain file whose certificate is CERTIFICATE with ``fields`` set (DEL deletes)."""
    cert = {k: v for k, v in dict(CERTIFICATE, **fields).items() if v is not DEL}
    return {"gains": GAIN_FILE, "certificate": cert}


# (id, top-level data or a field of GAIN_FILE, value, exact message); all
# raise ConfigurationError.  ``{path}`` stands for the file name.
MALFORMED_GAINS = [
    ("certificate-int", None, {"gains": GAIN_FILE, "certificate": 5}, "certificate: expected a mapping"),
    ("stable-str", None, _certified(stable="yes"), "certificate.stable: expected true or false, got 'yes'"),
    ("stable-int", None, _certified(stable=1), "certificate.stable: expected true or false, got 1"),
    ("stable-missing", None, _certified(stable=DEL), "certificate.stable: missing required value"),
    ("delay-negative", None, _certified(delay=-1), "certificate.delay: must be a non-negative integer, got -1"),
    ("delay-float", None, _certified(delay=2.0), "certificate.delay: expected an integer, got 2.0"),
    ("mode-closed", None, _certified(mode="closed"), "certificate.mode: must be 'state' or 'output', got 'closed'"),
    ("radius-str", None, _certified(spectral_radius="0.9"),
     "certificate.spectral_radius: expected a number, got '0.9'"),
    ("certificate-unknown", None, _certified(radius=0.9), "certificate: unknown fields ['radius']"),
    ("top-level-unknown", None, dict(_certified(), certficate={}), "top level: unknown fields ['certficate']"),
    ("top-level-list", None, [1], "{path}: missing top-level 'gains' section"),
    ("no-gains", None, {"certificate": {}}, "{path}: missing top-level 'gains' section"),
    ("gains-list", "gains", [], "gains: expected a mapping"),
    ("gains-null", "gains", None, "gains: expected a mapping"),
    ("matrix-missing", "k_x", DEL, "gains.k_x: missing required matrix"),
    ("matrix-ragged", "k_z", [[0.3], [0.4, 0.1]], "gains.k_z: row 1 has 2 entries, expected 1"),
    ("matrix-flat", "l_obs", [0.7, 0.2], "gains.l_obs: expected a list of rows"),
    ("number-missing", "gamma", DEL, "gains.gamma: missing required value"),
    ("number-null", "gamma", None, "gains.gamma: missing required value"),
    ("number-bool", "nu", True, "gains.nu: expected a number, got True"),
    ("number-str", "gamma_l", "x", "gains.gamma_l: expected a number, got 'x'"),
    ("number-list", "nu_l", [0.5], "gains.nu_l: expected a number, got [0.5]"),
    ("gamma-above-one", "gamma", 5.0, "gains.gamma: must lie in (0, 1), got 5.0"),
    ("nu-negative", "nu", -1.0, "gains.nu: must be finite and positive, got -1.0"),
    ("gamma_l-negative", "gamma_l", -3.0, "gains.gamma_l: must lie in (0, 1), got -3.0"),
    ("nu_l-zero", "nu_l", 0.0, "gains.nu_l: must be finite and positive, got 0.0"),
    ("integer-str", "observer_r", "2", "gains.observer_r: expected an integer, got '2'"),
    ("observer_r-negative", "observer_r", -1, "gains.observer_r: must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize(
    "field, value, message", [pytest.param(*case[1:], id=case[0]) for case in MALFORMED_GAINS]
)
def test_malformed_gain_file_message(tmp_path, field, value, message):
    path = tmp_path / "gains.yaml"
    if field is None:
        data = value
    elif field == "gains":
        data = {"gains": value}
    else:
        data = {"gains": copy.deepcopy(GAIN_FILE)}
        _mutate(data["gains"], field, value)
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    with pytest.raises(ConfigurationError) as info:
        load_gains(path)
    assert type(info.value) is ConfigurationError
    assert str(info.value) == message.format(path=path)


def test_observer_parameters_without_l_obs_are_not_read(tmp_path):
    # gamma_l and nu_l belong to the observer; a state-only file ignores them
    path = tmp_path / "gains.yaml"
    gains = {k: GAIN_FILE[k] for k in ("k_x", "k_z", "gamma", "nu")}
    path.write_text(yaml.safe_dump({"gains": dict(gains, gamma_l="x", nu_l=[1], observer_r=3)}))
    loaded, _ = load_gains(path)
    assert loaded.gamma_l is None and loaded.nu_l is None and loaded.observer_r == 3


# ---------------------------------------------------------------------------
# round-trips


def _dump(data, path):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


class TestConfigRoundTrip:
    def test_round_trip_preserves_values(self, tmp_path, bench_dict):
        cfg = config_from_dict(bench_dict)
        cfg2 = load_config(_dump(bench_dict, tmp_path / "c.yaml"))
        sc, sc2 = cfg.scenario, cfg2.scenario
        assert np.array_equal(sc.plant.a, sc2.plant.a)
        assert np.array_equal(sc.exo.s, sc2.exo.s)
        assert sc.graph == sc2.graph
        assert sc.delays == sc2.delays
        assert sc.horizon == sc2.horizon and sc.seed == sc2.seed
        for e1, e2 in zip(sc.per_agent_e, sc2.per_agent_e):
            assert np.array_equal(e1, e2)
        for u1, u2 in zip(sc.uncertainties, sc2.uncertainties):
            for key in ("d_a", "d_b", "d_e"):
                assert np.array_equal(getattr(u1, key), getattr(u2, key))
        assert cfg2.synthesis.gamma == cfg.synthesis.gamma
        assert np.array_equal(cfg2.scenario.im.beta, cfg.scenario.im.beta)

    def test_init_states_round_trip(self, tmp_path, bench_dict):
        x0 = [[0.1 * k, -0.2 * k] for k in range(4)]
        bench_dict["simulation"]["init_states"] = {"x": x0}
        path = _dump(bench_dict, tmp_path / "c.yaml")
        sc, sc2 = config_from_dict(bench_dict).scenario, load_config(path).scenario
        for s1, s2 in zip(sc.initial_states(), sc2.initial_states()):
            assert np.array_equal(s1, s2)
        assert np.array_equal(sc2.initial_states()[0], np.array(x0))

    @pytest.mark.parametrize(
        "path", ["mode", "per_agent_e", "uncertainties", "synthesis.beta_override", "simulation.init_states"]
    )
    def test_null_field_reads_as_absent(self, bench_dict, path):
        # a null leaf, or a null section or list without a default, is as if left out
        absent = copy.deepcopy(bench_dict)
        *parents, last = path.split(".")
        for key in parents:
            absent = absent[key]
        absent.pop(last, None)
        _mutate(bench_dict, path, None)
        sc = config_from_dict(bench_dict).scenario
        ref = config_from_dict(absent if not parents else {**bench_dict, parents[0]: absent}).scenario
        assert sc.mode == ref.mode == "state"
        assert np.array_equal(sc.im.beta, ref.im.beta) and np.array_equal(sc.im.sigma, ref.im.sigma)
        for got, want in zip(sc.agent_stacks() + sc.initial_states(), ref.agent_stacks() + ref.initial_states()):
            assert np.array_equal(got, want)

    def test_null_uncertainty_entry_round_trip(self, tmp_path, bench_dict):
        # a null entry means a nominal follower
        bench_dict["uncertainties"][1] = None
        cfg = load_config(_dump(bench_dict, tmp_path / "c.yaml"))
        nominal = cfg.scenario.agent_matrices()[1]
        assert np.array_equal(nominal[0], cfg.scenario.plant.a)
        assert np.array_equal(nominal[1], cfg.scenario.plant.b)
        assert np.array_equal(nominal[3], np.array(bench_dict["per_agent_e"][1]))
        assert cfg.scenario.uncertainties[1].d_a is None

    def test_full_precision_survives(self, tmp_path, bench_dict):
        # cos(1) is not exactly representable in short decimal form;
        # the round-trip must preserve it bit for bit.
        cfg2 = load_config(_dump(bench_dict, tmp_path / "c.yaml"))
        assert cfg2.scenario.exo.s[0, 0] == np.cos(1.0)


TARGET_GAIN_FILE = """\
gains:
  k_x:
  - - 0.1292
    - -0.1788
  k_z:
  - - -0.0659
    - -0.1597
  gamma: 0.11
  nu: 1.0
  l_obs:
  - - 0.72
  - - 0.0648
  gamma_l: 0.18
  nu_l: 0.5
  observer_r: 0
certificate:
  mode: output
  stable: true
  spectral_radius: 0.9385157
  delay: 2
"""

STATE_ONLY_GAIN_FILE = """\
gains:
  k_x:
  - - 0.1
    - -0.2
  k_z:
  - - 0.3
    - 0.4
  gamma: 0.05
  nu: 2.0
"""


class TestGainFiles:
    def test_golden_bytes(self, tmp_path):
        cert = {"mode": "output", "stable": True, "spectral_radius": 0.9385157, "delay": 2}
        path = tmp_path / "gains.yaml"
        save_gains(ref.target_gains(), path, certificate=cert)
        assert path.read_bytes() == TARGET_GAIN_FILE.encode()
        state_only = GainSet(
            k_x=np.array([[0.1, -0.2]]), k_z=np.array([[0.3, 0.4]]), gamma=0.05, nu=2.0, observer_r=2
        )
        save_gains(state_only, path)
        assert path.read_bytes() == STATE_ONLY_GAIN_FILE.encode()

    def test_round_trip_with_certificate(self, tmp_path, target_gains):
        path = tmp_path / "gains.yaml"
        cert = {"mode": "output", "stable": True, "spectral_radius": 0.9385157, "delay": 2}
        save_gains(target_gains, path, certificate=cert)
        gains, cert2 = load_gains(path)
        assert np.array_equal(gains.k_x, target_gains.k_x)
        assert np.array_equal(gains.k_z, target_gains.k_z)
        assert np.array_equal(gains.l_obs, target_gains.l_obs)
        assert gains.gamma == target_gains.gamma
        assert gains.gamma_l == target_gains.gamma_l
        assert gains.nu_l == target_gains.nu_l
        assert gains.observer_r == target_gains.observer_r
        assert cert2 == cert

        # deterministic rewrite
        path2 = tmp_path / "gains2.yaml"
        save_gains(gains, path2, certificate=cert2)
        assert path.read_bytes() == path2.read_bytes()

    def test_state_only_gains(self, tmp_path):
        gains = GainSet(
            k_x=np.array([[0.1, -0.2]]), k_z=np.array([[0.3, 0.4]]), gamma=0.05, nu=2.0
        )
        path = tmp_path / "gains.yaml"
        save_gains(gains, path)
        loaded, cert = load_gains(path)
        assert cert is None
        assert loaded.l_obs is None
        assert loaded.gamma_l is None and loaded.nu_l is None
        assert np.array_equal(loaded.k_x, gains.k_x)

    def test_null_certificate_reads_as_none(self, tmp_path):
        path = tmp_path / "gains.yaml"
        path.write_text(yaml.safe_dump({"gains": GAIN_FILE, "certificate": None}))
        assert load_gains(path)[1] is None

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param({"delay": DEL}, "certificate.delay: missing required value", id="partial"),
            pytest.param({"mode": "closed"}, "certificate.mode: must be 'state' or 'output', got 'closed'", id="mode"),
            pytest.param({"delay": -1}, "certificate.delay: must be a non-negative integer, got -1", id="delay"),
            pytest.param({"stable": 1}, "certificate.stable: expected true or false, got 1", id="stable"),
        ],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, target_gains, fields, message):
        path = tmp_path / "gains.yaml"
        with pytest.raises(ConfigurationError) as info:
            save_gains(target_gains, path, certificate=_certified(**fields)["certificate"])
        assert str(info.value) == message
        assert not path.exists()

    def test_missing_gains_section(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("certificate: {stable: true}\n")
        with pytest.raises(ConfigurationError, match="gains"):
            load_gains(path)

    def test_missing_gamma(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"gains": {"k_x": [[0.1]], "k_z": [[0.2]], "nu": 1.0}}))
        with pytest.raises(ConfigurationError, match=r"gains\.gamma"):
            load_gains(path)


# ---------------------------------------------------------------------------
# YAML backends


class TestYamlBackends:
    """Files go through libyaml where PyYAML has it, and the pure-Python
    scanner and emitter otherwise; values and bytes must not change."""

    def test_pure_python_fallback(self, tmp_path, monkeypatch, target_gains):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
        out = tmp_path / "c.yaml"
        cert = {"mode": "output", "stable": True, "spectral_radius": 0.9385157, "delay": 2}
        save_gains(target_gains, out, certificate=cert)
        assert out.read_bytes() == TARGET_GAIN_FILE.encode()
        assert load_gains(out)[1] == cert
        out.write_text("plant: {a: [[1, 1]\n")
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_config(out)
