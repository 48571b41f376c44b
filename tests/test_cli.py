"""Command-line interface tests, run in-process through ``cli.main``.

Exit-code contract: 0 success, 1 operation failure (failed assumption,
uncertified gains, divergence, selftest failure), 2 usage/configuration
errors.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import coopreg
from coopreg import cli, load_gains, load_trace_csv
from coopreg import reference as ref
from coopreg.config import save_gains
from coopreg.synthesis import GainSet

from conftest import benchmark_config_dict

# Every file these tests read is also parsed by the pure-Python loader.
pytestmark = pytest.mark.usefixtures("yaml_parity")


# Design-command output of the benchmark configuration, pinned byte for
# byte (``<out>`` stands for the output path).
SWEEP_STDOUT = """\
     gamma     ||K||_F      radius  stable
    0.3200      0.9494      1.1577  no
    0.1600      0.4195      0.9671  yes
    0.0800      0.2010      0.9516  yes
sweep table written to <out>
"""
SWEEP_CSV = b"""\
gamma,gain_norm,spectral_radius,stable
0.32,0.94935663620466,1.1576983122832951,0
0.16,0.41951382788121944,0.9671199554884704,1
0.08,0.2009757972285122,0.9515987612973066,1
"""
AUTO_TUNE_STDOUT = """\
mode: state   gamma = 0.1125   nu = 1.0000
K_x = [[ 0.1321 -0.1840]]
K_z = [[-0.0681 -0.1624]]
delay-lifted closed loop: stable (spectral radius 0.9378, delay 2)
gains written to <out>
"""
# Output mode from gamma = 0.9: gamma_l = 0.18 halves with gamma, three times.
AUTO_TUNE_OUTPUT_STDOUT = """\
mode: output   gamma = 0.1125   nu = 1.0000
K_x = [[ 0.1321 -0.1840]]
K_z = [[-0.0681 -0.1624]]
gamma_l = 0.0225   nu_l = 0.5000
L = [[0.0900]
     [0.0010]]
delay-lifted closed loop: stable (spectral radius 0.9868, delay 2)
"""
AUTO_TUNE_GAINS = b"""\
gains:
  k_x:
  - - 0.13212005350671766
    - -0.1840322660114746
  k_z:
  - - -0.06811294737810773
    - -0.16237348472835064
  gamma: 0.1125
  nu: 1.0
certificate:
  mode: state
  stable: true
  spectral_radius: 0.937778798533234
  delay: 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(benchmark_config_dict(horizon=300), fh, sort_keys=False)
    return path


def write_config(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


# ---------------------------------------------------------------------------
# check


class TestCheck:
    def test_benchmark_passes(self, config_path, capsys):
        assert cli.main(["check", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "all assumptions satisfied" in out

    def test_unrooted_graph_fails(self, tmp_path, capsys):
        data = benchmark_config_dict()
        data["graph"] = {"n_followers": 2, "edges": [[1, 2, 1.0]]}
        del data["per_agent_e"], data["uncertainties"]  # sized for 4 followers
        path = write_config(tmp_path, data)
        assert cli.main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "assumption(s) violated" in out

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        data = benchmark_config_dict()
        data["plant"]["a"] = [[1.0, 1.0], [0.0]]
        path = write_config(tmp_path, data)
        assert cli.main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, field, value, mode, message",
        [
            pytest.param("check", ("graph", "edges"), [[0, 1, 1.0], [0, "x", 1.0]], "state",
                         "graph.edges[1]: node indices must be integers", id="edge-node"),
            pytest.param("check", ("graph", "edges"), [[0, 1, "heavy"]], "state",
                         "graph.edges[0]: weight must be a real number", id="edge-weight"),
            pytest.param("check", ("simulation", "init_states"), {"x": [[1.0, 2.0]]}, "state",
                         "scenario.init_states.x: expected 8 numbers", id="init-state-size"),
            pytest.param("synthesize", ("synthesis", "observer_r"), -2, "output",
                         "synthesis.observer_r: must be a non-negative integer, got -2", id="observer-r"),
        ],
    )
    def test_malformed_input_exits_two_with_dotted_path(
        self, tmp_path, capsys, command, field, value, mode, message
    ):
        data = benchmark_config_dict(mode=mode)
        data[field[0]][field[1]] = value
        path = write_config(tmp_path, data)
        assert cli.main([command, str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["check", str(tmp_path / "nope.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    def test_wrong_shape_plant_e_is_usage_error(self, tmp_path, capsys, command):
        # Without per_agent_e every follower takes plant.e, so its shape
        # is checked when the file loads, not first by simulate.
        data = benchmark_config_dict()
        del data["per_agent_e"]
        data["plant"]["e"] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path = write_config(tmp_path, data)
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().err == "error: plant.e: expected shape (2, 2), got (2, 3)\n"

    def test_wrong_shape_plant_e_beside_per_agent_e_is_usage_error(self, tmp_path, capsys):
        # per_agent_e overrides plant.e for every follower, but a plant.e
        # that is given is still checked rather than silently ignored.
        data = benchmark_config_dict()
        data["plant"]["e"] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert cli.main(["check", str(write_config(tmp_path, data))]) == 2
        assert capsys.readouterr().err == "error: plant.e: expected shape (2, 2), got (2, 3)\n"

    def test_heavy_in_weights_pass(self, tmp_path, capsys):
        # A row sum of 133334.1 rounds off by 5.8e-12; the H row-sum
        # identity check scales its tolerance with the in-weights.
        data = benchmark_config_dict()
        data["graph"]["edges"] = [[0, 1, 0.1], [0, 2, 1.0], [2, 1, 1e5], [3, 1, 33334.0], [1, 3, 1.0], [1, 4, 1.0]]
        assert cli.main(["check", str(write_config(tmp_path, data))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("all assumptions satisfied\n")


# ---------------------------------------------------------------------------
# synthesize


class TestSynthesize:
    def test_benchmark_synthesis(self, config_path, tmp_path, capsys):
        out_path = tmp_path / "gains.yaml"
        assert cli.main(["synthesize", str(config_path), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "gamma = 0.0800" in out
        assert "K_x" in out and "K_z" in out and "L" not in out.split("K_z")[0]
        assert "stable (spectral radius 0.9516" in out

        gains, cert = load_gains(out_path)
        assert cert["stable"] is True
        assert abs(cert["spectral_radius"] - 0.9515988) <= 1e-6
        assert cert["delay"] == 2
        assert gains.gamma == 0.08

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        p1, p2 = tmp_path / "g1.yaml", tmp_path / "g2.yaml"
        assert cli.main(["synthesize", str(config_path), "--out", str(p1)]) == 0
        assert cli.main(["synthesize", str(config_path), "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_output_mode_prints_observer(self, tmp_path, capsys):
        data = benchmark_config_dict(mode="output")
        path = write_config(tmp_path, data)
        assert cli.main(["synthesize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gamma_l = 0.1800" in out
        assert "L =" in out

    def test_missing_gamma_is_usage_error(self, tmp_path, capsys):
        data = benchmark_config_dict()
        del data["synthesis"]["gamma"]
        path = write_config(tmp_path, data)
        assert cli.main(["synthesize", str(path)]) == 2
        assert "synthesis.gamma" in capsys.readouterr().err

    def test_uncertified_gains_fail(self, tmp_path, capsys):
        data = benchmark_config_dict()
        data["synthesis"]["gamma"] = 0.9
        path = write_config(tmp_path, data)
        assert cli.main(["synthesize", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NOT stable" in out
        assert "refusing success" in out

    def test_allow_unstable_overrides(self, tmp_path, capsys):
        data = benchmark_config_dict()
        data["synthesis"]["gamma"] = 0.9
        path = write_config(tmp_path, data)
        assert cli.main(["synthesize", str(path), "--allow-unstable"]) == 0
        assert "NOT stable" in capsys.readouterr().out

    def test_auto_tune_recovers_from_large_gamma(self, tmp_path, capsys):
        data = benchmark_config_dict()
        data["synthesis"]["gamma"] = 0.9
        path = write_config(tmp_path, data)
        out_path = tmp_path / "gains.yaml"
        assert cli.main(
            ["synthesize", str(path), "--auto-tune", "--out", str(out_path)]
        ) == 0
        assert capsys.readouterr().out.replace(str(out_path), "<out>") == AUTO_TUNE_STDOUT
        assert out_path.read_bytes() == AUTO_TUNE_GAINS

    def test_auto_tune_halves_gamma_l_in_lockstep(self, tmp_path, capsys):
        data = benchmark_config_dict(mode="output")
        data["synthesis"]["gamma"] = 0.9
        path = write_config(tmp_path, data)
        assert cli.main(["synthesize", str(path), "--auto-tune"]) == 0
        assert capsys.readouterr().out == AUTO_TUNE_OUTPUT_STDOUT


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_simulate_from_config(self, config_path, capsys):
        assert cli.main(["simulate", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "law: transformed" in out
        assert out.count("max |e| over final 200 steps") == 4

    def test_simulate_with_gain_file_trace_and_oracle(self, config_path, tmp_path, capsys):
        gains_path = tmp_path / "gains.yaml"
        assert cli.main(["synthesize", str(config_path), "--out", str(gains_path)]) == 0
        capsys.readouterr()

        trace_path = tmp_path / "trace.csv"
        code = cli.main(
            [
                "simulate", str(config_path),
                "--gains", str(gains_path),
                "--trace", str(trace_path),
                "--oracle",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        dev_line = [ln for ln in out.splitlines() if "oracle" in ln][0]
        dev = float(dev_line.rsplit("=", 1)[1])
        assert dev <= 1e-9

        loaded = load_trace_csv(trace_path)
        assert loaded.horizon == 300
        assert loaded.x.shape == (300, 4, 2)

    def test_delayed_law_runs(self, config_path, capsys):
        assert cli.main(["simulate", str(config_path), "--law", "delayed"]) == 0
        assert "law: delayed" in capsys.readouterr().out

    def test_oracle_requires_transformed_law(self, config_path, capsys):
        code = cli.main(["simulate", str(config_path), "--law", "delayed", "--oracle"])
        assert code == 2
        out, err = capsys.readouterr()
        assert "transformed" in err
        assert out == ""

    def test_divergent_run_exits_one(self, config_path, tmp_path, capsys):
        wild = GainSet(
            k_x=np.array([[1e6, 1e6]]), k_z=np.array([[0.0, 0.0]]), gamma=0.1, nu=1.0
        )
        gains_path = tmp_path / "wild.yaml"
        save_gains(wild, gains_path)
        assert cli.main(["simulate", str(config_path), "--gains", str(gains_path)]) == 1
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            pytest.param("k_x", [[0.1, 0.2, 0.3]], "expected shape (1, 2), got (1, 3)", id="k_x"),
            pytest.param("k_z", [[0.1], [0.2]], "expected shape (1, 2), got (2, 1)", id="k_z"),
            pytest.param("l_obs", [[0.7, 0.06]], "expected shape (2, 1), got (1, 2)", id="l_obs"),
        ],
    )
    def test_wrong_shape_gain_file_is_usage_error(self, tmp_path, capsys, field, value, expected):
        path = write_config(tmp_path, benchmark_config_dict(mode="output", horizon=5))
        gains_path = tmp_path / "gains.yaml"
        assert cli.main(["synthesize", str(path), "--out", str(gains_path)]) == 0
        data = yaml.safe_load(gains_path.read_text())
        data["gains"][field] = value
        gains_path.write_text(yaml.safe_dump(data))
        capsys.readouterr()
        assert cli.main(["simulate", str(path), "--gains", str(gains_path)]) == 2
        assert capsys.readouterr().err == f"error: gains.{field}: {expected}\n"

    def test_non_finite_gain_file_is_usage_error(self, tmp_path, capsys):
        # refused as input, not left to diverge at step 1 (exit 1)
        path = write_config(tmp_path, benchmark_config_dict(horizon=5))
        gains_path = tmp_path / "gains.yaml"
        assert cli.main(["synthesize", str(path), "--out", str(gains_path)]) == 0
        data = yaml.safe_load(gains_path.read_text())
        data["gains"]["k_x"][0][1] = float("inf")
        gains_path.write_text(yaml.safe_dump(data))
        capsys.readouterr()
        assert cli.main(["simulate", str(path), "--gains", str(gains_path)]) == 2
        assert capsys.readouterr().err == "error: gains.k_x: contains non-finite entries\n"

    def test_zero_horizon_trace_is_header_only(self, tmp_path, capsys):
        data = benchmark_config_dict(horizon=0)
        path = write_config(tmp_path, data)
        trace_path = tmp_path / "trace.csv"
        assert cli.main(["simulate", str(path), "--trace", str(trace_path)]) == 0
        loaded = load_trace_csv(trace_path)
        assert loaded.horizon == 0


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_table_and_csv(self, config_path, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", str(config_path), "--gammas", "0.32,0.16,0.08", "--out", str(out_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.replace(str(out_path), "<out>") == SWEEP_STDOUT
        assert out_path.read_bytes() == SWEEP_CSV

    def test_h_is_eigensolved_once(self, config_path, h_eigensolves):
        assert cli.main(["sweep", str(config_path), "--gammas", "0.32,0.16,0.08,0.04"]) == 0
        assert h_eigensolves == [(4, 4)]

    def test_failed_solve_stops_the_table(self, config_path, capsys):
        # The rows before the failing gamma are printed; the Riccati
        # failure itself is an operation error, not a table row.
        assert cli.main(["sweep", str(config_path), "--gammas", "0.32,1e-7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == SWEEP_STDOUT.split("\n    0.1600")[0] + "\n"
        assert captured.err.startswith("error: solve_parametric_dare: accuracy estimate ")
        assert captured.err.endswith(" exceeds 1e-6 at gamma=1e-07\n")

    def test_bad_gamma_rejected_by_parser(self, config_path, capsys):
        for gammas, message in (
            ("0.3,1.5", "must lie in (0, 1)"),
            ("a,b", "not a comma-separated list of numbers: 'a,b'"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", str(config_path), "--gammas", gammas])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_empty_gamma_list_rejected(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", str(config_path), "--gammas", ","])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# selftest


class TestSelftest:
    def test_selftest_reports_known_inconsistency(self, capsys):
        # The benchmark record is consistent with its stated design, so
        # every one of the six stages passes and the exit code is 0.
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "6/6 stages passed" in out
        assert "FAIL" not in out
        assert "PASS  assumptions" in out
        assert "PASS  feedback gain reproduction" in out
        assert "PASS  observer gain reproduction" in out
        assert "PASS  stability certificates" in out
        assert "PASS  state-feedback convergence" in out
        assert "PASS  output-feedback convergence" in out


# ---------------------------------------------------------------------------
# runtime dependencies


# Every name the package exported while __init__.py kept its own list;
# building the list from the modules' __all__ must keep each of them.
EXPORTED_BEFORE = """
CoopregError DimensionError ConfigurationError NumericalError SynthesisError DivergenceError
Digraph adjacency laplacian h_matrix has_leader_spanning_tree connectivity_spectral_check
Exosystem InternalModel build_internal_model
NominalPlant DelaySpec GainSet AssumptionReport check_assumptions transmission_zeros_ok
solve_parametric_dare state_feedback_gain observer_gain build_augmented closed_loop_blocks
network_blocks delay_lift certify_closed_loop synthesize_gains synthesize_and_certify auto_tune_gamma
FollowerUncertainty Scenario SimulationTrace edgewise_virtual_errors simulate_state_feedback
simulate_output_feedback simulate_compact_oracle load_trace_csv
ExperimentConfig SynthesisSettings load_config save_config load_gains save_gains __version__
""".split()


def test_package_exports_each_module_list_once():
    from coopreg import config, errors, graphs, internal_model, simulation, synthesis

    modules = (errors, graphs, internal_model, synthesis, simulation, config)
    assert coopreg.__all__ == [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert len(set(coopreg.__all__)) == len(coopreg.__all__)
    for name in coopreg.__all__:
        assert hasattr(coopreg, name), name
    assert len(EXPORTED_BEFORE) == 47
    assert set(EXPORTED_BEFORE) <= set(coopreg.__all__)


def _loaded_by_import(top):
    """Modules of package ``top`` that a fresh ``import coopreg, coopreg.cli`` loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coopreg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, coopreg, coopreg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter that imports
    # the package and its command line must not load it.
    assert _loaded_by_import("scipy") == "[]"


def test_import_loads_no_yaml():
    # PyYAML is imported when a file is read or written, so the API and
    # `selftest` do not pay for it.
    assert _loaded_by_import("yaml") == "[]"
