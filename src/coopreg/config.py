"""Human-editable scenario and gain files (YAML).

A scenario file describes one experiment end to end: plant, exosystem,
graph, delays, synthesis parameters, optional per-agent disturbance
maps and uncertainties, and the simulation settings.  Gains produced by
synthesis are written to a separate file together with their stability
certificate, so a run can be reproduced without re-running synthesis.

Every mapping in either file is read by one function against a field
table, which refuses a key the table does not name.  Readers validate
eagerly and name the dotted path of the offending field (``plant.a``,
``graph.edges[2]``, ...).  Scenario files are only read; gain files are
also written, deterministically and with floats at full precision.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .internal_model import Exosystem, build_internal_model
from .graphs import Digraph
from .matrixops import as_count, as_real
from .simulation import FollowerUncertainty, Scenario
from .synthesis import DelaySpec, GainSet, NominalPlant

__all__ = [
    "SynthesisSettings",
    "ExperimentConfig",
    "load_config",
    "save_gains",
    "load_gains",
]


@dataclass(frozen=True, eq=False)
class SynthesisSettings:
    """Parameters of the gain synthesis stage of a scenario file."""

    gamma: float = None
    nu: float = None
    gamma_l: float = None
    nu_l: float = None
    observer_r: int = 0


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A parsed scenario file: the scenario plus synthesis settings."""

    scenario: Scenario
    synthesis: SynthesisSettings


# Field tables, in file order: (name, kind, default).  A "matrix" is a
# list of equal-length rows of numbers, a "vector" a flat list of
# numbers; "number" accepts int or float ("unit" and "positive" only in
# as_real's interval of that name), "integer" only int (bool is neither),
# "count" only a non-negative int, "bool" only true or false, "mode" only
# state or output, and an "edge" is a [source, target, weight] list.  A
# field table as the kind is a nested mapping, and [kind] a list of that
# kind.  A required field must be present and not null.  An _IF_GIVEN
# field may be left out, and is then left out of the result, but must
# not be null.  Any other field reads as its default, given in file form,
# when absent or null, except that a null mapping or list is refused
# where the default is not None.
_REQUIRED = object()
_IF_GIVEN = object()


def _fields(kind, names, default=_REQUIRED):
    return tuple((name, kind, default) for name in names.split())


_PLANT = _fields("matrix", "a b c") + _fields("matrix", "e", None)
_EXOSYSTEM = _fields("matrix", "s f") + _fields("vector", "v0", None)
_GRAPH = _fields("integer", "n_followers") + _fields(["edge"], "edges", [])
_DELAYS = _fields("integer", "r_con r_com", 0)
_SYNTHESIS = _fields("unit", "gamma", None) + _fields("positive", "nu", None)
_SYNTHESIS += _fields("unit", "gamma_l", None) + _fields("positive", "nu_l", None) + _fields("count", "observer_r", 0)
_SYNTHESIS += _fields(_fields("matrix", "beta sigma"), "beta_override", None)
_UNCERTAINTY = _fields("matrix", "d_a d_b d_e d_c", None)
_SIMULATION = _fields("count", "horizon", 100) + _fields("count", "seed", 0)
_SIMULATION += _fields("number", "init_low", -1.0) + _fields("number", "init_high", 1.0)
_SIMULATION += _fields(_fields("matrix", " ".join(Scenario.INIT_STATE_KEYS), _IF_GIVEN), "init_states", None)
_SCENARIO = _fields("mode", "mode", "state") + _fields(_PLANT, "plant") + _fields(_EXOSYSTEM, "exosystem")
_SCENARIO += _fields(_GRAPH, "graph") + _fields(_DELAYS, "delays", {}) + _fields(_SYNTHESIS, "synthesis", {})
_SCENARIO += _fields(["matrix"], "per_agent_e", None) + _fields([_UNCERTAINTY], "uncertainties", None)
_SCENARIO += _fields(_SIMULATION, "simulation", {})
# The observer fields after the first four are written only with l_obs;
# gamma_l and nu_l are read only beside it.
_GAINS = _fields("matrix", "k_x k_z") + _fields("unit", "gamma") + _fields("positive", "nu")
_GAINS += _fields("matrix", "l_obs", None) + _fields("unit", "gamma_l", None) + _fields("positive", "nu_l", None)
_GAINS += _fields("count", "observer_r", 0)
_CERTIFICATE = _fields("mode", "mode") + _fields("bool", "stable") + _fields("number", "spectral_radius")
_CERTIFICATE += _fields("count", "delay")
_GAIN_FILE = _fields(_GAINS, "gains") + _fields(_CERTIFICATE, "certificate", None)
_NOUN = {"matrix": "matrix", "vector": "vector"}
_PLURAL = {"matrix": "matrices", "edge": "[source, target, weight]"}
_PLAIN = {"integer": int, "count": int, "bool": bool, "mode": str}


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check(kind, val, where):
    """Validate one present value of ``kind``; return it as stored."""
    if isinstance(kind, tuple):
        return _read(kind, val, where)
    if isinstance(kind, list):
        (item,) = kind
        if not isinstance(val, list):
            raise ConfigurationError(f"{where}: expected a list of {_PLURAL.get(item, 'mappings')}")
        # A null entry of a list of mappings reads as an empty one (a nominal follower).
        empty = {} if isinstance(item, tuple) else None
        return tuple(_check(item, empty if v is None else v, f"{where}[{k}]") for k, v in enumerate(val))
    if kind == "mode":
        if val not in ("state", "output"):
            raise ConfigurationError(f"{where}: must be 'state' or 'output', got {val!r}")
        return val
    if kind == "bool":
        if not isinstance(val, bool):
            raise ConfigurationError(f"{where}: expected true or false, got {val!r}")
        return val
    if kind == "edge":
        if not isinstance(val, list) or len(val) != 3:
            raise ConfigurationError(f"{where}: expected [source, target, weight], got {val!r}")
        return tuple(val)
    if kind in ("number", "unit", "positive"):
        if not _is_number(val):
            raise ConfigurationError(f"{where}: expected a number, got {val!r}")
        return float(val) if kind == "number" else as_real(val, f"{where}:", kind)
    if kind in ("integer", "count"):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigurationError(f"{where}: expected an integer, got {val!r}")
        return as_count(val, f"{where}:") if kind == "count" else val
    if kind == "vector":
        if not isinstance(val, list) or not all(map(_is_number, val)):
            raise ConfigurationError(f"{where}: expected a flat list of numbers")
    else:
        if not isinstance(val, list) or not val or not all(isinstance(row, list) for row in val):
            raise ConfigurationError(f"{where}: expected a list of rows")
        width = len(val[0])
        for idx, row in enumerate(val):
            if len(row) != width:
                raise ConfigurationError(f"{where}: row {idx} has {len(row)} entries, expected {width}")
            for entry in row:
                if not _is_number(entry):
                    raise ConfigurationError(f"{where}: row {idx} contains a non-numeric entry {entry!r}")
    arr = np.array(val, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{where}: contains non-finite entries")
    return arr


def _read(fields, section, path):
    """Check the mapping ``section`` at dotted ``path`` ("" for the top
    level) against a field table; return ``{name: value}``."""
    where = path or "top level"
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where}: expected a mapping")
    unknown = set(section) - {name for name, _, _ in fields}
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {sorted(unknown, key=str)}")
    out = {}
    for name, kind, default in fields:
        at = f"{path}.{name}" if path else name
        given = name in section
        if given and (section[name] is not None or (not isinstance(kind, str) and default is not None)):
            out[name] = _check(kind, section[name], at)
        elif default is _REQUIRED or (given and default is _IF_GIVEN):
            noun = _NOUN.get(kind, "value") if isinstance(kind, str) else "field"
            raise ConfigurationError(f"{at}: missing required {noun}")
        elif default is not _IF_GIVEN:
            out[name] = None if default is None else _check(kind, default, at)
    return out


def _plain(kind, val):
    """``val`` as the plain YAML value of its field kind."""
    if kind == "matrix":
        return [[float(v) for v in row] for row in np.atleast_2d(val)]
    return _PLAIN.get(kind, float)(val)


def _write(fields, values):
    """Plain YAML of ``values`` in table order, without ``None``."""
    return {name: _plain(kind, values[name]) for name, kind, _ in fields if values[name] is not None}


# libyaml scans and emits where PyYAML has it; the resolver, constructor
# and representer stay PyYAML's safe ones, so values and bytes match.
# PyYAML is imported on first use: the API and `selftest` read no files.
def _load_yaml(path):
    import yaml

    with open(path) as fh:
        try:
            return yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as ex:
            raise ConfigurationError(f"{path}: not valid YAML ({ex})")


def _save_yaml(data, path):
    import yaml

    with open(path, "w") as fh:
        yaml.dump(data, fh, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False)


def load_config(path):
    """Parse and validate a scenario file.

    Returns
    -------
    ExperimentConfig
        With ``scenario`` fully assembled (internal model built,
        shapes cross-checked) and ``synthesis`` settings attached.
    """
    return config_from_dict(_load_yaml(path))


def config_from_dict(data):
    """Build an :class:`ExperimentConfig` from a parsed mapping."""
    f = _read(_SCENARIO, data, "")
    synthesis, simulation = f["synthesis"], f["simulation"]
    plant = NominalPlant(**f["plant"])
    exo = Exosystem(**f["exosystem"])
    graph = Digraph(**f["graph"])
    delays = DelaySpec(**f["delays"])
    bo = synthesis.pop("beta_override")
    im = build_internal_model(exo, beta_override=None if bo is None else (bo["beta"], bo["sigma"]))
    unc = f["uncertainties"]
    if unc is not None:
        unc = tuple(FollowerUncertainty(**u) for u in unc)
    scenario = Scenario(
        plant=plant,
        exo=exo,
        graph=graph,
        delays=delays,
        im=im,
        mode=f["mode"],
        per_agent_e=f["per_agent_e"],
        uncertainties=unc,
        **simulation,
    )
    return ExperimentConfig(scenario=scenario, synthesis=SynthesisSettings(**synthesis))


def save_gains(gains, path, certificate=None):
    """Write a gain file, optionally with its stability certificate.

    ``certificate`` is a mapping of the four certificate fields, such as
    ``{"mode": "state", "stable": True, "spectral_radius": 0.95, "delay": 2}``.
    """
    data = {"gains": _write(_GAINS if gains.l_obs is not None else _GAINS[:4], vars(gains))}
    if certificate is not None:
        data["certificate"] = _write(_CERTIFICATE, _read(_CERTIFICATE, certificate, "certificate"))
    _save_yaml(data, path)


def load_gains(path):
    """Read a gain file; returns ``(GainSet, certificate_or_None)``."""
    data = _load_yaml(path)
    if not isinstance(data, dict) or "gains" not in data:
        raise ConfigurationError(f"{path}: missing top-level 'gains' section")
    gains = data["gains"]
    if isinstance(gains, dict) and gains.get("l_obs") is None:
        data = dict(data, gains={k: v for k, v in gains.items() if k not in ("gamma_l", "nu_l")})
    f = _read(_GAIN_FILE, data, "")
    return GainSet(**f["gains"]), f["certificate"]
