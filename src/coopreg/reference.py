"""Bundled four-follower benchmark scenario.

A complete worked design used by the test suite, the command-line
selftest, and the demo scripts: double-integrator agents with a scalar
input, a harmonic exosystem (rotation by 1 rad per step), one unit of
input delay and one of communication delay, a four-follower graph
rooted at the leader, and structured parameter uncertainty on every
follower.

The module also records the benchmark's target gain values
(``EXPECTED_K``, ``EXPECTED_L``) for regression testing: both are the
stated design's gains, ``EXPECTED_K`` at ``GAMMA = 0.08`` with delay
power ``r = 2`` and ``EXPECTED_L`` at ``GAMMA_L = 0.18`` with a delay
power of zero.  A second, more aggressive design of the same family is
kept beside them: ``CALIBRATED_K`` is the feedback gain at
``CALIBRATED_GAMMA = 0.110``.  The simulation checks, the selftest and
the demos drive the benchmark with this calibrated pair; the README's
calibration note explains why both feedback records are kept.
"""

import numpy as np

from .graphs import Digraph
from .internal_model import Exosystem, build_internal_model
from .simulation import FollowerUncertainty, Scenario
from .synthesis import DelaySpec, GainSet, NominalPlant, synthesize_gains

__all__ = [
    "GAMMA",
    "NU",
    "GAMMA_L",
    "NU_L",
    "OBSERVER_R",
    "CALIBRATED_GAMMA",
    "CALIBRATED_K",
    "EXPECTED_K",
    "EXPECTED_L",
    "reference_plant",
    "reference_exosystem",
    "reference_graph",
    "reference_delays",
    "reference_internal_model",
    "reference_uncertainties",
    "reference_per_agent_e",
    "reference_scenario",
    "reference_gains",
    "target_gains",
]

# Stated synthesis parameters of the benchmark design.
GAMMA = 0.08
NU = 1.0
GAMMA_L = 0.18
NU_L = 0.5
OBSERVER_R = 0

# Target gain values of the stated design (4 decimals).
EXPECTED_K = np.array([[0.0940, -0.1200, -0.0413, -0.1243]])
EXPECTED_L = np.array([[0.72], [0.0648]])

# A second design of the same family: the feedback gain at
# CALIBRATED_GAMMA (4 decimals; the design reproduces it to about
# 3e-5 entrywise).  Its lifted spectral radius is 0.9385157 in both
# modes; the simulation checks run with it.
CALIBRATED_GAMMA = 0.110
CALIBRATED_K = np.array([[0.1292, -0.1788, -0.0659, -0.1597]])

_COS1, _SIN1 = np.cos(1.0), np.sin(1.0)


def reference_plant():
    """Discrete double integrator with scalar input, position output."""
    return NominalPlant(
        a=[[1.0, 1.0], [0.0, 1.0]],
        b=[[1.0], [1.0]],
        c=[[1.0, 0.0]],
    )


def reference_exosystem(v0=(1.0, 0.0)):
    """Harmonic exosystem: rotation by 1 rad per step, first component tracked."""
    s = [[_COS1, _SIN1], [-_SIN1, _COS1]]
    f = [[-1.0, 0.0]]
    return Exosystem(s=s, f=f, v0=np.asarray(v0, dtype=float))


def reference_graph():
    """Four followers; leader feeds 1 and 2, follower 1 feeds 3 and 4."""
    return Digraph(
        n_followers=4,
        edges=((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)),
    )


def reference_delays():
    return DelaySpec(r_con=1, r_com=1)


def reference_beta_override():
    """Reuse the rotation itself as the internal-model block (it is cyclic)."""
    beta = np.array([[_COS1, _SIN1], [-_SIN1, _COS1]])
    sigma = np.array([[0.0], [1.0]])
    return beta, sigma


def reference_internal_model():
    exo = reference_exosystem()
    return build_internal_model(exo, beta_override=reference_beta_override())


def reference_per_agent_e():
    """Follower i is disturbed through E_i = [[0, 0], [0, i]]."""
    return tuple(np.array([[0.0, 0.0], [0.0, float(i)]]) for i in range(1, 5))


def reference_uncertainties(scale=1.0):
    """Structured perturbations of the benchmark, optionally rescaled.

    Follower ``i`` (1-based) perturbs ``A`` at entry (0, 1), ``B`` at
    entry (0, 0), and ``E`` at entry (0, 1) by ``w1[i], w2[i], w3[i]``
    respectively.
    """
    w1 = (0.1, 0.2, 0.3, 0.4)
    w2 = (0.1, 0.2, 0.3, 0.4)
    w3 = (0.5, 0.6, 0.7, 0.8)
    out = []
    for i in range(4):
        out.append(
            FollowerUncertainty(
                d_a=[[0.0, scale * w1[i]], [0.0, 0.0]],
                d_b=[[scale * w2[i]], [0.0]],
                d_e=[[0.0, scale * w3[i]], [0.0, 0.0]],
            )
        )
    return tuple(out)


def reference_scenario(
    mode="state",
    horizon=2000,
    seed=0,
    uncertain=True,
    uncertainty_scale=1.0,
    v0=(1.0, 0.0),
):
    """Assemble the benchmark scenario.

    Parameters
    ----------
    mode : {"state", "output"}
        Which feedback architecture the scenario targets.
    horizon : int
        Recorded samples.
    seed : int
        Seed of the uniform initial-state draw on [-1, 1].
    uncertain : bool
        Include the structured uncertainty set (True) or run the
        nominal followers (False).
    uncertainty_scale : float
        Multiplier on the perturbations when ``uncertain``.
    v0 : tuple
        Initial exosystem state.
    """
    return Scenario(
        plant=reference_plant(),
        exo=reference_exosystem(v0=v0),
        graph=reference_graph(),
        delays=reference_delays(),
        im=reference_internal_model(),
        mode=mode,
        per_agent_e=reference_per_agent_e(),
        uncertainties=reference_uncertainties(uncertainty_scale) if uncertain else None,
        horizon=horizon,
        seed=seed,
    )


def reference_gains(mode="state", gamma=GAMMA):
    """Synthesize the benchmark gains at the stated parameters.

    Uses ``gamma`` for the feedback Riccati design (``GAMMA`` by
    default, which regenerates ``EXPECTED_K``; pass
    :data:`CALIBRATED_GAMMA` to regenerate ``CALIBRATED_K``) and the
    stated observer parameters in output mode.
    """
    return synthesize_gains(
        reference_plant(),
        reference_graph(),
        reference_internal_model(),
        reference_delays(),
        gamma=gamma,
        nu=NU,
        mode=mode,
        gamma_l=GAMMA_L,
        nu_l=NU_L,
        observer_r=OBSERVER_R,
    )


def target_gains():
    """The calibrated benchmark design as a :class:`GainSet`.

    ``CALIBRATED_K`` split into its plant-state and internal-model
    parts, with the stated observer gain ``EXPECTED_L`` and parameters.
    The simulation checks, the selftest and the demos drive the
    benchmark with it; its lifted radius is 0.9385157 in both modes.
    """
    return GainSet(
        k_x=CALIBRATED_K[:, :2],
        k_z=CALIBRATED_K[:, 2:],
        gamma=CALIBRATED_GAMMA,
        nu=NU,
        l_obs=EXPECTED_L,
        gamma_l=GAMMA_L,
        nu_l=NU_L,
        observer_r=OBSERVER_R,
    )
