"""Distributed internal-model control of delayed discrete-time multi-agent systems.

Synthesis and simulation toolkit for cooperative output regulation: a
network of uncertain linear followers must track (and reject) signals
generated by a leader exosystem, despite a known input delay and a
known communication delay.  The package provides

* graph utilities for leader-rooted digraphs (:mod:`coopreg.graphs`),
* minimal p-copy internal models (:mod:`coopreg.internal_model`),
* delay-compensating low-gain Riccati synthesis for state- and
  output-feedback architectures (:mod:`coopreg.synthesis`),
* Schur certification of the delay-lifted networked closed loop, one
  coupling eigenvalue of ``H`` at a time
  (:func:`coopreg.synthesis.certify_closed_loop`),
* agentwise simulators with an independent compact-form oracle
  (:mod:`coopreg.simulation`),
* YAML scenario/gain files and a command-line front end
  (:mod:`coopreg.config`, :mod:`coopreg.cli`),
* a fully worked four-follower benchmark (:mod:`coopreg.reference`).
"""

from .errors import (
    ConfigurationError,
    CoopregError,
    DimensionError,
    DivergenceError,
    NumericalError,
    SynthesisError,
)
from .graphs import (
    Digraph,
    adjacency,
    connectivity_spectral_check,
    h_matrix,
    has_leader_spanning_tree,
    laplacian,
)
from .internal_model import Exosystem, InternalModel, build_internal_model
from .simulation import (
    FollowerUncertainty,
    Scenario,
    SimulationTrace,
    edgewise_virtual_errors,
    load_trace_csv,
    simulate_compact_oracle,
    simulate_output_feedback,
    simulate_state_feedback,
)
from .synthesis import (
    AssumptionReport,
    DelaySpec,
    GainSet,
    NominalPlant,
    auto_tune_gamma,
    build_augmented,
    certify_closed_loop,
    check_assumptions,
    closed_loop_blocks,
    network_blocks,
    delay_lift,
    observer_gain,
    solve_parametric_dare,
    state_feedback_gain,
    synthesize_and_certify,
    synthesize_gains,
    transmission_zeros_ok,
)
from .config import (
    ExperimentConfig,
    SynthesisSettings,
    load_config,
    load_gains,
    save_config,
    save_gains,
)

__version__ = "0.1.0"

__all__ = [
    "CoopregError",
    "DimensionError",
    "ConfigurationError",
    "NumericalError",
    "SynthesisError",
    "DivergenceError",
    "Digraph",
    "adjacency",
    "laplacian",
    "h_matrix",
    "has_leader_spanning_tree",
    "connectivity_spectral_check",
    "Exosystem",
    "InternalModel",
    "build_internal_model",
    "NominalPlant",
    "DelaySpec",
    "GainSet",
    "AssumptionReport",
    "check_assumptions",
    "transmission_zeros_ok",
    "solve_parametric_dare",
    "state_feedback_gain",
    "observer_gain",
    "build_augmented",
    "closed_loop_blocks",
    "network_blocks",
    "delay_lift",
    "certify_closed_loop",
    "synthesize_gains",
    "synthesize_and_certify",
    "auto_tune_gamma",
    "FollowerUncertainty",
    "Scenario",
    "SimulationTrace",
    "edgewise_virtual_errors",
    "simulate_state_feedback",
    "simulate_output_feedback",
    "simulate_compact_oracle",
    "load_trace_csv",
    "ExperimentConfig",
    "SynthesisSettings",
    "load_config",
    "save_config",
    "load_gains",
    "save_gains",
    "__version__",
]
