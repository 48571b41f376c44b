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

from . import config, errors, graphs, internal_model, simulation, synthesis
from .errors import *
from .graphs import *
from .internal_model import *
from .synthesis import *
from .simulation import *
from .config import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *errors.__all__,
    *graphs.__all__,
    *internal_model.__all__,
    *synthesis.__all__,
    *simulation.__all__,
    *config.__all__,
    "__version__",
]
