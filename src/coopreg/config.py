"""Human-editable scenario and gain files (YAML).

A scenario file describes one experiment end to end: plant, exosystem,
graph, delays, synthesis parameters, optional per-agent disturbance
maps and uncertainties, and the simulation settings.  Gains produced by
synthesis are written to a separate file together with their stability
certificate, so a run can be reproduced without re-running synthesis.

Each section's fields are stated once, in a table that both the reader
and the writer use.  Readers validate eagerly and name the dotted path
of the offending field (``plant.a``, ``graph.edges[2]``, ...).  Writing
is deterministic and round-trips floats at full precision.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .internal_model import Exosystem, build_internal_model
from .graphs import Digraph
from .simulation import FollowerUncertainty, Scenario
from .synthesis import DelaySpec, GainSet, NominalPlant

__all__ = [
    "SynthesisSettings",
    "ExperimentConfig",
    "load_config",
    "save_config",
    "config_to_dict",
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
    beta_override: tuple = None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A parsed scenario file: the scenario plus synthesis settings."""

    scenario: Scenario
    synthesis: SynthesisSettings


# Field tables, in file order: (name, kind, default).  A "matrix" is a
# list of equal-length rows of numbers, a "vector" a flat list of
# numbers; "number" accepts int or float, "integer" only int (bool is
# neither), "count" only a non-negative int.  A required field must be present and not null; any other
# field falls back to its default when absent or null.
_REQUIRED = object()


def _fields(kind, names, default=_REQUIRED):
    return tuple((name, kind, default) for name in names.split())


_PLANT = _fields("matrix", "a b c") + _fields("matrix", "e", None)
_EXOSYSTEM = _fields("matrix", "s f") + _fields("vector", "v0", None)
_GRAPH = _fields("integer", "n_followers")
_DELAYS = _fields("integer", "r_con r_com", 0)
_SYNTHESIS = _fields("number", "gamma nu gamma_l nu_l", None) + _fields("count", "observer_r", 0)
_BETA_OVERRIDE = _fields("matrix", "beta sigma")
_UNCERTAINTY = _fields("matrix", "d_a d_b d_e d_c", None)
_SIMULATION = _fields("integer", "horizon", 100) + _fields("integer", "seed", 0)
_SIMULATION += _fields("number", "init_low", -1.0) + _fields("number", "init_high", 1.0)
# The observer fields after the first four are written only with l_obs;
# gamma_l and nu_l are read only beside it.
_GAINS = _fields("matrix", "k_x k_z") + _fields("number", "gamma nu")
_GAINS += _fields("matrix", "l_obs", None) + _fields("number", "gamma_l nu_l", None)
_GAINS += _fields("count", "observer_r", 0)
_NOUN = {"matrix": "matrix", "vector": "vector", "number": "value", "integer": "value", "count": "value"}


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check(kind, val, where):
    """Validate one present (non-null) value of ``kind``; return it as stored."""
    if kind == "number":
        if not _is_number(val):
            raise ConfigurationError(f"{where}: expected a number, got {val!r}")
        return float(val)
    if kind in ("integer", "count"):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigurationError(f"{where}: expected an integer, got {val!r}")
        if kind == "count" and val < 0:
            raise ConfigurationError(f"{where}: must be a non-negative integer, got {val}")
        return val
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
    """Check ``section`` against a field table; return ``{name: value}``."""
    out = {}
    for name, kind, default in fields:
        val = section.get(name)
        if val is not None:
            out[name] = _check(kind, val, f"{path}.{name}")
        elif default is _REQUIRED:
            raise ConfigurationError(f"{path}.{name}: missing required {_NOUN[kind]}")
        else:
            out[name] = default
    return out


def _plain(kind, val):
    """``val`` as the plain YAML value of its field kind."""
    if kind == "matrix":
        return [[float(v) for v in row] for row in np.atleast_2d(val)]
    if kind == "vector":
        return [float(v) for v in val]
    return float(val) if kind == "number" else int(val)


def _write(fields, values, sparse=False):
    """Plain YAML of ``values`` in table order, without ``None`` (or, if ``sparse``, defaults)."""
    return {
        name: _plain(kind, values[name])
        for name, kind, default in fields
        if values[name] is not None and not (sparse and values[name] == default)
    }


def _mapping(val, path, what="a mapping"):
    if not isinstance(val, dict):
        raise ConfigurationError(f"{path}: expected {what}")
    return val


def _section(data, key, fields, required=False, what="a mapping"):
    """Read the top-level section ``data[key]`` through its field table."""
    if required and key not in data:
        raise ConfigurationError(f"{key}: missing required field")
    return _read(fields, _mapping(data.get(key, {}), key, what), key)


def _items(data, key, what, read):
    """``read(item, "<key>[k]")`` for each item of the optional list ``data[key]``."""
    items = data.get(key)
    if items is None:
        return None
    if not isinstance(items, list):
        raise ConfigurationError(f"{key}: expected a list of {what}")
    return tuple(read(item, f"{key}[{k}]") for k, item in enumerate(items))


def _uncertainty(entry, path):
    if entry is None:
        return FollowerUncertainty()
    unknown = set(_mapping(entry, path)) - {name for name, _, _ in _UNCERTAINTY}
    if unknown:
        raise ConfigurationError(f"{path}: unknown fields {sorted(unknown)}")
    return FollowerUncertainty(**_read(_UNCERTAINTY, entry, path))


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
    data = _load_yaml(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return config_from_dict(data)


def config_from_dict(data):
    """Build an :class:`ExperimentConfig` from a parsed mapping."""
    mode = data.get("mode", "state")
    if mode not in ("state", "output"):
        raise ConfigurationError(f"mode: must be 'state' or 'output', got {mode!r}")

    plant = NominalPlant(**_section(data, "plant", _PLANT, required=True))
    exo = Exosystem(**_section(data, "exosystem", _EXOSYSTEM, required=True))

    n_followers = _section(data, "graph", _GRAPH, required=True)["n_followers"]
    edges = data["graph"].get("edges", [])
    if not isinstance(edges, list):
        raise ConfigurationError("graph.edges: expected a list of [source, target, weight]")
    for k, item in enumerate(edges):
        if not isinstance(item, list) or len(item) != 3:
            raise ConfigurationError(f"graph.edges[{k}]: expected [source, target, weight], got {item!r}")
    graph = Digraph(n_followers=n_followers, edges=tuple(map(tuple, edges)))
    delays = DelaySpec(**_section(data, "delays", _DELAYS, what="a mapping with r_con / r_com"))

    synthesis = _section(data, "synthesis", _SYNTHESIS)
    beta_override = data.get("synthesis", {}).get("beta_override")
    if beta_override is not None:
        path = "synthesis.beta_override"
        bo = _read(_BETA_OVERRIDE, _mapping(beta_override, path, "a mapping with beta and sigma"), path)
        beta_override = (bo["beta"], bo["sigma"])
    settings = SynthesisSettings(**synthesis, beta_override=beta_override)
    for name in ("gamma", "gamma_l"):
        val = getattr(settings, name)
        if val is not None and not (0.0 < val < 1.0):
            raise ConfigurationError(f"synthesis.{name}: must lie in (0, 1), got {val}")
    for name in ("nu", "nu_l"):
        val = getattr(settings, name)
        if val is not None and not (0.0 < val < np.inf):
            raise ConfigurationError(f"synthesis.{name}: must be finite and positive, got {val}")
    im = build_internal_model(exo, beta_override=beta_override)

    per_agent_e = _items(data, "per_agent_e", "matrices", lambda e, at: _check("matrix", e, at))
    uncertainties = _items(data, "uncertainties", "mappings", _uncertainty)

    simulation = _section(data, "simulation", _SIMULATION)
    init_states = data.get("simulation", {}).get("init_states")
    if init_states is not None:
        path = "simulation.init_states"
        keys = _mapping(init_states, path)
        init_states = _read([(key, "matrix", _REQUIRED) for key in keys], init_states, path)

    scenario = Scenario(
        plant=plant,
        exo=exo,
        graph=graph,
        delays=delays,
        im=im,
        mode=mode,
        per_agent_e=per_agent_e,
        uncertainties=uncertainties,
        init_states=init_states,
        **simulation,
    )
    return ExperimentConfig(scenario=scenario, synthesis=settings)


def config_to_dict(cfg):
    """Serialize an :class:`ExperimentConfig` back to a plain mapping."""
    sc, st = cfg.scenario, cfg.synthesis
    out = {
        "mode": sc.mode,
        "plant": _write(_PLANT, vars(sc.plant)),
        "exosystem": _write(_EXOSYSTEM, vars(sc.exo)),
        "graph": _write(_GRAPH, vars(sc.graph)),
        "delays": _write(_DELAYS, vars(sc.delays)),
    }
    out["graph"]["edges"] = [[src, dst, float(w)] for src, dst, w in sc.graph.edges]
    synth = _write(_SYNTHESIS, vars(st), sparse=True)
    if st.beta_override is not None:
        synth["beta_override"] = _write(_BETA_OVERRIDE, dict(zip(("beta", "sigma"), st.beta_override)))
    if synth:
        out["synthesis"] = synth
    if sc.per_agent_e is not None:
        out["per_agent_e"] = [_plain("matrix", e) for e in sc.per_agent_e]
    if sc.uncertainties is not None:
        out["uncertainties"] = [_write(_UNCERTAINTY, vars(u)) for u in sc.uncertainties]
    out["simulation"] = _write(_SIMULATION, vars(sc))
    if sc.init_states:
        out["simulation"]["init_states"] = {k: _plain("matrix", v) for k, v in sc.init_states.items()}
    return out


def save_config(cfg, path):
    """Write a scenario file; deterministic layout, full precision."""
    _save_yaml(config_to_dict(cfg), path)


def save_gains(gains, path, certificate=None):
    """Write a gain file, optionally with its stability certificate.

    ``certificate`` is a mapping such as
    ``{"mode": "state", "stable": True, "spectral_radius": 0.95, "delay": 2}``.
    """
    data = {"gains": _write(_GAINS if gains.l_obs is not None else _GAINS[:4], vars(gains))}
    if certificate is not None:
        cert = dict(certificate)
        if "spectral_radius" in cert:
            cert["spectral_radius"] = float(cert["spectral_radius"])
        if "stable" in cert:
            cert["stable"] = bool(cert["stable"])
        data["certificate"] = cert
    _save_yaml(data, path)


def load_gains(path):
    """Read a gain file; returns ``(GainSet, certificate_or_None)``."""
    data = _load_yaml(path)
    if not isinstance(data, dict) or "gains" not in data:
        raise ConfigurationError(f"{path}: missing top-level 'gains' section")
    gd = _mapping(data["gains"], "gains")
    skip = () if gd.get("l_obs") is not None else ("gamma_l", "nu_l")
    gains = _read([f for f in _GAINS if f[0] not in skip], gd, "gains")
    return GainSet(**gains), data.get("certificate")
