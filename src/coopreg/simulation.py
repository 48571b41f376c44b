"""Closed-loop simulation of the delayed multi-agent regulator.

Two independent execution routes are provided on purpose:

* the *agentwise* simulators (:func:`simulate_state_feedback`,
  :func:`simulate_output_feedback`) run each follower's recursion
  separately, exchanging only the signals the distributed law is
  allowed to see — neighbor states or outputs, delayed by the
  communication latency;
* the *compact oracle* (:func:`simulate_compact_oracle`) takes the full
  uncertain networked loop from :func:`~coopreg.synthesis.network_blocks`,
  the builder behind the certificate, and iterates it as one recursion.

The two share no stepping code, and only the oracle forms ``H``.  Both
must produce the same trajectories; the test suite holds them against
each other, which guards the shared block builder and the buffer
bookkeeping at the same time.

Timing conventions
------------------
All signals are sampled at ``t = 0, 1, ..., horizon - 1``; a trace with
horizon ``T`` has ``T`` rows.  States before ``t = 0`` are taken
constant at their initial values (constant-extension history), and the
pre-history of the input is the feedback law evaluated on that constant
history, which for these laws equals ``u(0)``.

Each feedback mode comes in two algebraically equivalent forms.  The
*transformed* form updates the controller on current information and
applies the communication delay where the controller state is used; the
*delayed* form is the literal distributed implementation in which the
delay sits on the arriving error signal.  With matched initial
histories the two generate identical error trajectories shifted by
``r_com``; :func:`simulate_state_feedback` exposes ``controller_past``
so the match can be set up exactly.

One kernel
----------
Both agentwise simulators run one time loop.  It steps all followers at
once from their stacked matrices and couples neighbours through arrays
built once from the edge list.  Modes and laws differ only in how many
steps late each signal is read::

    signal                              transformed   delayed
    controller state z                  r_com         0
    e_v driving z and the observer      0             r_com
    coupled x (state mode)              r_com         r_com
    coupled xi (output mode)            r_com         0
    u replayed by the observer          r_con         r_con + r_com
    u received by the plant             r_con         r_con
"""

import csv
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError
from .matrixops import as_matrix, block_diag, kron
from .graphs import h_matrix
from .synthesis import network_blocks

__all__ = [
    "DIVERGENCE_GUARD",
    "FollowerUncertainty",
    "Scenario",
    "SimulationTrace",
    "exo_step",
    "edgewise_virtual_errors",
    "simulate_state_feedback",
    "simulate_output_feedback",
    "simulate_compact_oracle",
    "load_trace_csv",
]

# Max-norm bound on any simulated state; beyond this the run is
# declared divergent and aborted with a DivergenceError.
DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True, eq=False)
class FollowerUncertainty:
    """Additive perturbations of one follower's matrices.

    Any field left ``None`` stands for a zero perturbation of the
    matching shape.  Shapes are validated against the plant when the
    scenario is assembled.
    """

    d_a: np.ndarray = None
    d_b: np.ndarray = None
    d_e: np.ndarray = None
    d_c: np.ndarray = None

    @classmethod
    def zero(cls):
        return cls()

    def materialize(self, n, m, p, q):
        """Return concrete ``(dA, dB, dE, dC)`` arrays of the full shapes."""
        shapes = {"d_a": (n, n), "d_b": (n, m), "d_e": (n, q), "d_c": (p, n)}
        out = []
        for name, shape in shapes.items():
            raw = getattr(self, name)
            if raw is None:
                out.append(np.zeros(shape))
                continue
            arr = as_matrix(raw, f"uncertainty.{name}")
            if arr.shape != shape:
                raise DimensionError(
                    f"uncertainty.{name}: expected shape {shape}, got {arr.shape}"
                )
            out.append(arr)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to run one closed-loop experiment.

    Parameters
    ----------
    plant : NominalPlant
    exo : Exosystem
    graph : Digraph
    delays : DelaySpec
    im : InternalModel
    mode : {"state", "output"}
        Which feedback architecture the scenario is meant for.
    per_agent_e : sequence of array_like, optional
        Disturbance input matrix of each follower; falls back to
        ``plant.e`` for every agent, or to zeros if that is also absent.
    uncertainties : sequence of FollowerUncertainty, optional
        One entry per follower; ``None`` entries mean nominal.
    horizon : int
        Number of recorded samples ``t = 0..horizon-1``.
    seed : int
        Seed for the initial-state draw.
    init_low, init_high : float
        Bounds of the uniform initial-state distribution.
    init_states : dict, optional
        Explicit overrides ``{"x": (N, n), "z": (N, n_z), "xi": (N, n)}``;
        missing keys are still drawn from the seeded stream.
    """

    plant: object
    exo: object
    graph: object
    delays: object
    im: object
    mode: str = "state"
    per_agent_e: tuple = None
    uncertainties: tuple = None
    horizon: int = 100
    seed: int = 0
    init_low: float = -1.0
    init_high: float = 1.0
    init_states: dict = None

    def __post_init__(self):
        if self.mode not in ("state", "output"):
            raise ConfigurationError(f"scenario.mode: must be 'state' or 'output', got {self.mode!r}")
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 0:
            raise ConfigurationError(f"scenario.horizon: must be a non-negative integer, got {self.horizon!r}")
        object.__setattr__(self, "horizon", int(self.horizon))
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"scenario.seed: must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not (np.isfinite(self.init_low) and np.isfinite(self.init_high)) or self.init_low > self.init_high:
            raise ConfigurationError(
                f"scenario.init_low/init_high: need finite low <= high, got ({self.init_low}, {self.init_high})"
            )
        if self.plant.p != self.exo.p:
            raise DimensionError(
                f"scenario: plant has {self.plant.p} outputs but exosystem.f has {self.exo.p} rows"
            )
        if self.im.p != self.plant.p:
            raise DimensionError(
                f"scenario: internal model replicates {self.im.p} channels, plant has {self.plant.p}"
            )
        nfoll = self.graph.n_followers
        n, q = self.plant.n, self.exo.q

        if self.per_agent_e is not None:
            mats = [as_matrix(e, f"per_agent_e[{k}]") for k, e in enumerate(self.per_agent_e)]
            if len(mats) != nfoll:
                raise ConfigurationError(
                    f"scenario.per_agent_e: expected {nfoll} entries, got {len(mats)}"
                )
            for k, e in enumerate(mats):
                if e.shape != (n, q):
                    raise DimensionError(
                        f"per_agent_e[{k}]: expected shape ({n}, {q}), got {e.shape}"
                    )
            object.__setattr__(self, "per_agent_e", tuple(mats))

        if self.uncertainties is not None:
            unc = list(self.uncertainties)
            if len(unc) != nfoll:
                raise ConfigurationError(
                    f"scenario.uncertainties: expected {nfoll} entries, got {len(unc)}"
                )
            unc = tuple(u if u is not None else FollowerUncertainty.zero() for u in unc)
            for u in unc:
                u.materialize(n, self.plant.m, self.plant.p, q)  # shape check only
            object.__setattr__(self, "uncertainties", unc)

        if self.init_states is not None:
            allowed = {"x", "z", "xi"}
            bad = set(self.init_states) - allowed
            if bad:
                raise ConfigurationError(f"scenario.init_states: unknown keys {sorted(bad)}")

    @property
    def n_agents(self):
        return self.graph.n_followers

    def e_list(self):
        """Per-follower disturbance input matrices with fallbacks applied."""
        n, q = self.plant.n, self.exo.q
        if self.per_agent_e is not None:
            return list(self.per_agent_e)
        if self.plant.e is not None:
            if self.plant.e.shape != (n, q):
                raise DimensionError(
                    f"plant.e: expected shape ({n}, {q}), got {self.plant.e.shape}"
                )
            return [self.plant.e] * self.n_agents
        return [np.zeros((n, q))] * self.n_agents

    def agent_matrices(self):
        """Effective per-follower ``(A_i, B_i, C_i, E_i)`` with uncertainty applied."""
        n, m, p, q = self.plant.n, self.plant.m, self.plant.p, self.exo.q
        unc = self.uncertainties or (FollowerUncertainty.zero(),) * self.n_agents
        out = []
        for u, e in zip(unc, self.e_list()):
            da, db, de, dc = u.materialize(n, m, p, q)
            out.append((self.plant.a + da, self.plant.b + db, self.plant.c + dc, e + de))
        return out

    def initial_states(self):
        """Seeded initial states ``(x0, z0, xi0)`` with overrides applied.

        All three blocks are always drawn, in a fixed order, so that
        overriding one of them (or ignoring ``xi0`` in state-feedback
        mode) never shifts the random stream of the others.
        """
        rng = np.random.default_rng(self.seed)
        nfoll, n, nz = self.n_agents, self.plant.n, self.im.dim
        x0 = rng.uniform(self.init_low, self.init_high, (nfoll, n))
        z0 = rng.uniform(self.init_low, self.init_high, (nfoll, nz))
        xi0 = rng.uniform(self.init_low, self.init_high, (nfoll, n))
        if self.init_states:
            if "x" in self.init_states:
                x0 = np.array(self.init_states["x"], dtype=float).reshape(nfoll, n)
            if "z" in self.init_states:
                z0 = np.array(self.init_states["z"], dtype=float).reshape(nfoll, nz)
            if "xi" in self.init_states:
                xi0 = np.array(self.init_states["xi"], dtype=float).reshape(nfoll, n)
        return x0, z0, xi0


@dataclass(eq=False)
class SimulationTrace:
    """Recorded closed-loop signals, one row per time step.

    Array shapes: ``t (T,)``, ``v (T, q)``, per-agent signals
    ``(T, N, dim)``.  ``xi`` is ``None`` for state-feedback runs.
    ``e`` is the regulated error ``y_i + F v``; ``e_v`` the virtual
    (graph-weighted) error the controllers actually consume.
    """

    t: np.ndarray
    v: np.ndarray
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    y: np.ndarray
    e: np.ndarray
    e_v: np.ndarray
    xi: np.ndarray = None

    @property
    def horizon(self):
        return self.t.shape[0]

    def tail_max_error(self, steps):
        """Largest ``|e|`` entry over the last ``steps`` rows."""
        if steps <= 0 or self.horizon == 0:
            return 0.0
        tail = self.e[-min(steps, self.horizon):]
        return float(np.max(np.abs(tail))) if tail.size else 0.0

    def tail_max_error_per_agent(self, steps):
        """Per-agent version of :meth:`tail_max_error`; shape ``(N,)``."""
        tail = self.e[-min(steps, self.horizon):]
        if tail.size == 0:
            return np.zeros(self.e.shape[1])
        return np.max(np.abs(tail), axis=(0, 2))

    def max_relative_deviation(self, other):
        """Worst entrywise deviation from ``other`` over all shared signals.

        Measured as ``|a - b| / max(1, |a|, |b|)`` so it behaves as a
        relative error for large signals and an absolute one near zero.
        """
        worst = 0.0
        for name in ("v", "x", "z", "xi", "u", "y", "e", "e_v"):
            a, b = getattr(self, name), getattr(other, name)
            if a is None or b is None:
                continue
            if a.shape != b.shape:
                raise DimensionError(f"trace.{name}: shapes differ, {a.shape} vs {b.shape}")
            if a.size == 0:
                continue
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
        return worst

    def to_csv(self, path):
        """Write the trace to ``path`` at full float precision.

        The file starts with ``#`` comment lines documenting the
        layout, followed by a standard CSV header and one row per time
        step.  Agent indices in column names run from 1 (the leader,
        index 0, has no columns; its trajectory is implied by ``v``).
        """
        T = self.horizon
        nfoll = self.x.shape[1] if self.x.ndim == 3 else 0
        q = self.v.shape[1]
        names = ["t"]
        names += [f"v{k}" for k in range(q)]
        blocks = [("x", self.x), ("z", self.z)]
        if self.xi is not None:
            blocks.append(("xi", self.xi))
        blocks += [("u", self.u), ("y", self.y), ("e", self.e), ("ev", self.e_v)]
        for prefix, arr in blocks:
            for i in range(nfoll):
                for k in range(arr.shape[2]):
                    names.append(f"{prefix}{i + 1}_{k}")
        with open(path, "w", newline="") as fh:
            fh.write("# closed-loop simulation trace\n")
            fh.write(f"# rows: t = 0..{T - 1} (horizon {T}); values at full float precision\n")
            fh.write("# columns: t; exosystem state v<k>; then per follower i (1-based):\n")
            fh.write("#   x<i>_<k> plant state, z<i>_<k> internal-model state,\n")
            if self.xi is not None:
                fh.write("#   xi<i>_<k> observer state,\n")
            fh.write("#   u<i>_<k> input, y<i>_<k> output, e<i>_<k> regulated error,\n")
            fh.write("#   ev<i>_<k> virtual (graph-weighted) error\n")
            writer = csv.writer(fh)
            writer.writerow(names)
            for row_idx in range(T):
                row = [int(self.t[row_idx])]
                row += [repr(float(val)) for val in self.v[row_idx]]
                for _, arr in blocks:
                    row += [repr(float(val)) for val in arr[row_idx].reshape(-1)]
                writer.writerow(row)


def load_trace_csv(path):
    """Read a trace written by :meth:`SimulationTrace.to_csv`."""
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    if not rows:
        raise ConfigurationError(f"{path}: empty trace file")
    header = next(csv.reader(rows[:1]))
    try:
        data = np.loadtxt(rows[1:], delimiter=",", ndmin=2) if rows[1:] else np.zeros((0, len(header)))
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed trace data ({exc})") from None
    index = {name: k for k, name in enumerate(header)}
    T = data.shape[0]

    dims = {}  # prefix -> (followers, width)
    for m in filter(None, map(re.compile(r"^([a-z]+?)(\d+)_(\d+)$").match, header)):
        nfoll, width = dims.get(m[1], (0, 0))
        dims[m[1]] = (max(nfoll, int(m[2])), max(width, int(m[3]) + 1))

    def grab(prefix):
        if prefix not in dims:
            return None
        nfoll, width = dims[prefix]
        cols = [index[f"{prefix}{i + 1}_{k}"] for i in range(nfoll) for k in range(width)]
        return data[:, cols].reshape(T, nfoll, width)

    return SimulationTrace(
        t=data[:, index["t"]].astype(int),
        v=data[:, [k for k, name in enumerate(header) if re.match(r"^v\d+$", name)]],
        x=grab("x"),
        z=grab("z"),
        u=grab("u"),
        y=grab("y"),
        e=grab("e"),
        e_v=grab("ev"),
        xi=grab("xi"),
    )


def exo_step(exo, v):
    """One exosystem step ``v(t+1) = S v(t)``."""
    return exo.s @ np.asarray(v, dtype=float)


def edgewise_virtual_errors(g, e_all):
    """Virtual errors computed edge by edge from regulated errors.

    ``e_all`` has one row per follower.  For follower ``i``::

        e_v[i] = sum_j a_ij (e_i - e_j) + a_i0 e_i

    which uses only information that travels along graph edges (the
    leader term reduces to ``a_i0 e_i`` because the leader's regulated
    error is zero).  Equals ``(H (x) I_p) vec(e)`` — the test suite
    checks that identity against the Kronecker route.  The simulators
    apply the same combination to stacked states and observer estimates.
    """
    return _edge_coupling(g)(np.atleast_2d(e_all))


def _edge_coupling(g):
    """The edge-local combination of :func:`edgewise_virtual_errors` for ``g``.

    The edge list becomes index and weight arrays once; each call of the
    returned function forms ``w (row_dst - row_src)`` for every edge, with
    the leader's row held at zero, and sums the terms per receiving
    follower in edge-list order.  No ``H`` matrix is involved, so the
    agentwise route stays independent of the Kronecker oracle.
    """
    src = np.array([s for s, _, _ in g.edges], dtype=int)
    dst = np.array([d for _, d, _ in g.edges], dtype=int)
    w = np.array([wt for _, _, wt in g.edges], dtype=float)[:, None]

    def couple(rows):
        padded = np.zeros((rows.shape[0] + 1, rows.shape[1]))
        padded[1:] = rows
        out = np.zeros_like(padded)
        np.add.at(out, dst, w * (padded[dst] - padded[src]))
        return out[1:]

    return couple


class _History:
    """Fixed-depth ring buffer over stacked signal arrays.

    ``depth`` past values plus the current one; ``ago(k)`` returns the
    value ``k`` steps before the current one, so ``ago(0)`` is the
    current value and ``ago(depth)`` the oldest.  Backed by an index into
    a preallocated array rather than a deque so pushes are
    allocation-free.  The returned rows are views: read them before the
    next push.
    """

    def __init__(self, depth, first, past=None):
        self.size = depth + 1
        self.buf = np.repeat(np.asarray(first, dtype=float)[None], self.size, axis=0)
        if past is not None:
            past = np.asarray(past, dtype=float)
            if past.shape != (depth,) + self.buf.shape[1:]:
                raise DimensionError(
                    f"history: expected shape {(depth,) + self.buf.shape[1:]}, got {past.shape}"
                )
            # past[k] is the value k+1 steps before t=0; oldest first in buf
            self.buf[:depth] = past[::-1]
        self.head = self.size - 1  # position of the current value

    def ago(self, k):
        return self.buf[(self.head - k) % self.size]

    def push(self, value):
        self.head = (self.head + 1) % self.size
        self.buf[self.head] = value


def _guard(step, *arrays):
    worst = 0.0
    for arr in arrays:
        if arr is None or arr.size == 0:
            continue
        m = float(np.max(np.abs(arr)))
        if not np.isfinite(m) or m > DIVERGENCE_GUARD:
            raise DivergenceError(
                f"simulation diverged at step {step} (state magnitude {m:.3e} "
                f"exceeds guard {DIVERGENCE_GUARD:.1e})",
                step=step,
                norm=m,
            )
        worst = max(worst, m)
    return worst


def _alloc_trace(scenario, with_observer):
    T = scenario.horizon
    nfoll = scenario.n_agents
    n, m, p, q = scenario.plant.n, scenario.plant.m, scenario.plant.p, scenario.exo.q
    nz = scenario.im.dim
    return SimulationTrace(
        t=np.arange(T, dtype=int),
        v=np.zeros((T, q)),
        x=np.zeros((T, nfoll, n)),
        z=np.zeros((T, nfoll, nz)),
        u=np.zeros((T, nfoll, m)),
        y=np.zeros((T, nfoll, p)),
        e=np.zeros((T, nfoll, p)),
        e_v=np.zeros((T, nfoll, p)),
        xi=np.zeros((T, nfoll, n)) if with_observer else None,
    )


def _check_law(caller, law, history_given, history_rule):
    if law not in ("transformed", "delayed"):
        raise ConfigurationError(f"{caller}: unknown law {law!r}")
    if law == "delayed" and history_given:
        raise ConfigurationError(f"{caller}: {history_rule} to the transformed law only")


def _apply(mats, rows):
    """Row ``i`` of the result is ``mats[i] @ rows[i]``."""
    return np.matmul(mats, rows[..., None])[..., 0]


def _simulate(scenario, gains, law, controller_past, observer_past, output):
    """The one time loop behind both agentwise simulators.

    Mode and law differ only in how late each signal is read (the table
    in the module docstring); ``output`` adds the observer and makes its
    estimate, not the plant state, the coupled feedback state.
    """
    r_con, r_com = scenario.delays.r_con, scenario.delays.r_com
    d_z = r_com if law == "transformed" else 0
    d_ev = r_com - d_z
    d_fb = d_z if output else r_com
    a, b, c, e_in = (np.stack(mats) for mats in zip(*scenario.agent_matrices()))
    couple = _edge_coupling(scenario.graph)
    f, g1, g2 = scenario.exo.f, scenario.im.g1, scenario.im.g2
    a_nom, b_nom, c_nom, l_obs = scenario.plant.a, scenario.plant.b, scenario.plant.c, gains.l_obs

    x, z, xi = scenario.initial_states()
    if not output:
        xi = None
    v = scenario.exo.v0.copy()
    trace = _alloc_trace(scenario, with_observer=output)
    fb_hist = _History(d_fb, xi if output else x, past=observer_past)
    z_hist = _History(d_z, z, past=controller_past)

    for t in range(scenario.horizon):
        y = _apply(c, x)
        e = y + f @ v
        ev = couple(e)
        u = couple(fb_hist.ago(d_fb)) @ gains.k_x.T + z_hist.ago(d_z) @ gains.k_z.T
        if t == 0:
            u_hist = _History(r_con + d_ev, u)
            ev_hist = _History(d_ev, ev)
        else:
            u_hist.push(u)
            ev_hist.push(ev)

        trace.v[t] = v
        trace.x[t] = x
        trace.z[t] = z
        trace.u[t] = u
        trace.y[t] = y
        trace.e[t] = e
        trace.e_v[t] = ev
        if output:
            trace.xi[t] = xi

        ev_late = ev_hist.ago(d_ev)
        if output:
            xi = (
                xi @ a_nom.T
                + u_hist.ago(r_con + d_ev) @ b_nom.T
                - couple(xi) @ c_nom.T @ l_obs.T
                + ev_late @ l_obs.T
            )
        x = _apply(a, x) + _apply(b, u_hist.ago(r_con)) + e_in @ v
        z = z @ g1.T + ev_late @ g2.T
        fb_hist.push(xi if output else x)
        z_hist.push(z)
        v = exo_step(scenario.exo, v)
        _guard(t + 1, x, z, xi)

    return trace


def simulate_state_feedback(scenario, gains, law="transformed", controller_past=None):
    """Run the distributed state-feedback regulator agent by agent.

    Parameters
    ----------
    scenario : Scenario
    gains : GainSet
    law : {"transformed", "delayed"}
        ``"transformed"`` updates the internal model on the current
        virtual error and feeds back its ``r_com``-delayed state;
        ``"delayed"`` is the literal implementation driven by the
        delayed virtual error.  The two are related by the time shift
        ``z_delayed(t) = z_transformed(t - r_com)``.
    controller_past : ndarray, optional
        Shape ``(r_com, N, n_z)`` pre-``t=0`` internal-model states for
        the transformed law, newest first (``controller_past[k]`` is
        the value ``k + 1`` steps before zero).  Defaults to constant
        extension of the initial state.

    Returns
    -------
    SimulationTrace
    """
    _check_law(
        "simulate_state_feedback", law, controller_past is not None, "controller_past applies"
    )
    return _simulate(scenario, gains, law, controller_past, None, output=False)


def simulate_output_feedback(
    scenario, gains, law="transformed", controller_past=None, observer_past=None
):
    """Run the distributed output-feedback regulator agent by agent.

    Each follower carries an internal model and a local observer; the
    feedback combines the (``r_com``-delayed, in the transformed form)
    internal-model state with coupled observer estimates.  The observer
    itself is driven by the virtual error and by coupled estimates, and
    injects the input the plant actually received.

    Parameters mirror :func:`simulate_state_feedback`;
    ``controller_past``/``observer_past`` give pre-``t=0`` histories
    (shape ``(r_com, N, dim)``, newest first) for the transformed law.
    """
    if gains.l_obs is None:
        raise ConfigurationError("simulate_output_feedback: gain set has no observer gain")
    _check_law(
        "simulate_output_feedback",
        law,
        controller_past is not None or observer_past is not None,
        "history overrides apply",
    )
    return _simulate(scenario, gains, law, controller_past, observer_past, output=True)


def simulate_compact_oracle(scenario, gains):
    """Iterate the assembled closed-loop recursion in one shot.

    Takes ``A0``, ``A1 = B U`` and the virtual-error drive from
    :func:`~coopreg.synthesis.network_blocks`, the builder behind the
    certificate, called with every follower's uncertain
    ``(A_i, B_i, C_i)``, and runs ``w(t+1) = A0 w(t) + A1 w(t - r) +
    B_v v(t)`` directly.  Serves as the independent cross-check for the
    agentwise simulators: it shares no stepping code with them, and it
    forms ``H``, which they never do, so it checks the builder too.
    """
    mode = scenario.mode
    if mode == "output" and gains.l_obs is None:
        raise ConfigurationError("simulate_compact_oracle: output mode needs an observer gain")
    nfoll = scenario.n_agents
    n, m, p = scenario.plant.n, scenario.plant.m, scenario.plant.p
    nz = scenario.im.dim
    r_total = scenario.delays.r
    r_com = scenario.delays.r_com
    T = scenario.horizon

    mats = scenario.agent_matrices()
    h, _ = h_matrix(scenario.graph)
    a0, b_u, u_map, drive = network_blocks(scenario.plant, h, scenario.im, gains, mode, mats)
    a1 = b_u @ u_map
    c_blk = block_diag([mat[2] for mat in mats])
    c_bar = kron(h, np.eye(p)) @ c_blk
    f_bar = kron(h @ np.ones((nfoll, 1)), scenario.exo.f)
    b_in = drive @ f_bar
    b_in[: nfoll * n] = np.vstack([mat[3] for mat in mats])

    states = scenario.initial_states()[: 2 if mode == "state" else 3]
    w = np.concatenate([s.reshape(-1) for s in states])
    v = scenario.exo.v0.copy()

    trace = _alloc_trace(scenario, with_observer=(mode == "output"))
    whist = _History(r_total, w)
    f_exo = scenario.exo.f

    for t in range(T):
        x_flat = w[: nfoll * n]
        z_flat = w[nfoll * n : nfoll * n + nfoll * nz]
        y_flat = c_blk @ x_flat
        e_flat = y_flat + np.tile(f_exo @ v, nfoll)
        ev_flat = c_bar @ x_flat + f_bar @ v
        u_flat = u_map @ whist.ago(r_com)

        trace.v[t] = v
        trace.x[t] = x_flat.reshape(nfoll, n)
        trace.z[t] = z_flat.reshape(nfoll, nz)
        trace.u[t] = u_flat.reshape(nfoll, m)
        trace.y[t] = y_flat.reshape(nfoll, p)
        trace.e[t] = e_flat.reshape(nfoll, p)
        trace.e_v[t] = ev_flat.reshape(nfoll, p)
        if mode == "output":
            trace.xi[t] = w[nfoll * (n + nz) :].reshape(nfoll, n)

        w = a0 @ w + a1 @ whist.ago(r_total) + b_in @ v
        whist.push(w)
        v = exo_step(scenario.exo, v)
        _guard(t + 1, w)

    return trace

