"""Closed-loop simulation of the delayed multi-agent regulator.

Two independent execution routes are provided on purpose:

* the *agentwise* simulators (:func:`simulate_state_feedback`,
  :func:`simulate_output_feedback`) run each follower's recursion
  separately, exchanging only the signals the distributed law is
  allowed to see — neighbor states or outputs, delayed by the
  communication latency;
* the *compact oracle* (:func:`simulate_compact_oracle`) forms ``H`` and
  steps the full uncertain networked loop, the recursion of
  :func:`~coopreg.synthesis.network_blocks`, as structured products on
  an ``(N, .)`` state, one row per follower, never as a dense Kronecker
  block.

The two share no stepping code, and only the oracle forms ``H``.  Both
must produce the same trajectories; the test suite holds them against
each other, which guards the history bookkeeping, and holds the oracle
against a dense Kronecker iteration of ``network_blocks`` (in
``tests/conftest.py``), which guards the block builder behind the
certificate.

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
Both agentwise simulators run one time loop over one buffer: row
``depth + t`` holds time ``t`` with the pre-history in front, so a
delayed read is a row some steps back.  A row holds the leader's zero
row, each follower's ``[z | x | xi | e]``, the regulated error stored
beside the feedback state (``x``, or ``xi`` in output mode), then the
exosystem state ``v(t)``, filled before the loop by
:meth:`~coopreg.internal_model.Exosystem.trajectory`.  A step writes every
follower's next ``[z | x | xi | e]`` straight into row ``t + 1`` as the
product of a fused matrix ``M_i`` and its drive, gathered by one
``take`` at flat offsets built once per run.  Every step reads the same
offsets: before ``t = r_con`` (``r_con + d_ev`` for the observer) the
law's inputs come from pre-history rows that hold their values at
``t = 0`` (a given ``controller_past``/``observer_past`` holds its oldest
value in the rows before it), so ``u`` is held at ``u(0)``.  ``M_i``
holds ``B_i K`` (and the observer's ``B K``) on the law's inputs, the
coupled feedback and ``z``, read as late as ``u`` would be, and ``E_i``
on ``v(t)``; its ``e`` rows are ``C_i`` times its ``x`` rows plus ``F``
on ``v(t+1)``, so ``e(t+1) = C_i x(t+1) + F v(t+1)``.

No coupled value is formed inside the loop.  Each coupled read (the
feedback state the law reads, ``e_v``, and in output mode the
observer's) takes a *pair of slots* per in-edge ``j -> i``, leader edges
included: the receiver's raw row and the sender's, read at that time
step.  One product scales the drive by ``+a_ij`` and ``-a_ij`` on the
pair slots (1 elsewhere), and ``M_i`` repeats, over the slots, the block
that acts on the coupled value, so a step is one ``take``, one ``*=``
and one product per degree group: one 2-D product ``D M_0'`` over the
drive rows ``D`` when every ``M_i`` equals ``M_0`` exactly (equal
``A_i``, ``B_i``, ``C_i`` and ``E_i``), else one small product per
follower.  The whole stack is compared once per call, with no option or
tolerance, and each group's product is then fixed as one ``(lhs, rhs,
out)`` triple, so the loop makes one ``np.matmul`` call per group; the
two paths agree to rounding.  The slots come from one
table per graph, ``Digraph._in_edge_table``: the followers in stepping
order, in degree groups, and each member's in-edges in edge-list order,
padded to its group's largest in-degree by slots that read the leader's
zero row at weight 0.  All followers form one group, in node order,
unless that pads past ``2 (|E| + N)`` slots; then a group holds the
followers of one in-degree bit length and pads fewer slots than it has
in-edges, so a step costs ``O(|E| + N)``.  With one group the trace's
signals are views of the buffer; otherwise its rows are gathered back
to node order once, after the loop.  After the loop, one coupling pass
(:func:`_edge_coupling`, per group, in blocks of 64 rows) reads the same
table and writes ``e_v`` and the coupled feedback ``u`` reads in node
order, bit for bit what :func:`edgewise_virtual_errors`, the table's
third reader, gives; ``u`` and ``y = C_i x`` follow.
The divergence guard walks each block of steps once, in the loop.
Modes and laws differ only in how many steps late each signal is read::

    signal                              transformed   delayed
    controller state z                  r_com         0
    e_v driving z and the observer      0             r_com
    coupled x (state mode)              r_com         r_com
    coupled xi (output mode)            r_com         0
    u replayed by the observer          r_con         r_con + r_com
    u received by the plant             r_con         r_con
"""

import functools
import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError
from .matrixops import as_count, as_matrix, as_real
from .graphs import h_matrix
from .synthesis import _check_gains

__all__ = [
    "DIVERGENCE_GUARD",
    "FollowerUncertainty",
    "Scenario",
    "SimulationTrace",
    "edgewise_virtual_errors",
    "simulate_state_feedback",
    "simulate_output_feedback",
    "simulate_compact_oracle",
    "load_trace_csv",
]

# Max-norm bound on any simulated state; beyond this the run is
# declared divergent and aborted with a DivergenceError.
DIVERGENCE_GUARD = 1e12
# Steps run between two guard checks (a check walks its block in order), and
# rows per block of the coupling pass after the loop.
_GUARD_BLOCK = 64
# Per-follower trace signals in CSV column order: (attribute, column prefix).
_SIGNALS = (("x", "x"), ("z", "z"), ("xi", "xi"), ("u", "u"), ("y", "y"), ("e", "e"), ("e_v", "ev"))
# Trace CSV header names: a per-follower signal column, and an exosystem column.
_SIGNAL_COLUMN = re.compile(r"^([a-z]+?)(\d+)_(\d+)$")
_V_COLUMN = re.compile(r"^v\d+$")
# Fewest trace values to write, and body bytes to read, worth converting in
# two processes.  Measured on a 2-vCPU Xeon VM with 43-column traces:
# writing 63k values takes 20 ms in one process and 15-18 ms in two, 101k
# take 30 and 24 ms, and a fork costs the operations after it about 10 ms
# of page faults; 40k values read in 21-25 ms either way, and 80k (1.6 MB)
# in 45 ms in one process, 36-45 ms in two.
_FORK_MIN_WRITE = 100_000
_FORK_MIN_READ = 1_600_000


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

    def materialize(self, n, m, p, q, path="uncertainty"):
        """Return concrete ``(dA, dB, dE, dC)`` arrays of the full shapes.

        A block of the wrong shape raises, naming it ``<path>.<field>``.
        """
        shapes = {"d_a": (n, n), "d_b": (n, m), "d_e": (n, q), "d_c": (p, n)}
        out = []
        for name, shape in shapes.items():
            raw = getattr(self, name)
            if raw is None:
                out.append(np.zeros(shape))
                continue
            arr = as_matrix(raw, f"{path}.{name}")
            if arr.shape != shape:
                raise DimensionError(f"{path}.{name}: expected shape {shape}, got {arr.shape}")
            out.append(arr)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to run one closed-loop experiment.

    Construction validates every field and resolves, once, each
    follower's effective ``(A_i, B_i, C_i, E_i)``, stacked over the
    followers, and the initial states; :meth:`agent_stacks`,
    :meth:`agent_matrices` and :meth:`initial_states` return them.

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
        Explicit overrides ``{"x": (N, n), "z": (N, n_z), "xi": (N, n)}``,
        each any array of that many numbers (it is reshaped row-major);
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

    # The blocks of ``init_states``, in the order they are drawn.
    INIT_STATE_KEYS = ("x", "z", "xi")

    def __post_init__(self):
        if self.mode not in ("state", "output"):
            raise ConfigurationError(f"scenario.mode: must be 'state' or 'output', got {self.mode!r}")
        for name in ("horizon", "seed"):
            object.__setattr__(self, name, as_count(getattr(self, name), f"scenario.{name}:"))
        for name in ("init_low", "init_high"):
            object.__setattr__(self, name, as_real(getattr(self, name), f"scenario.{name}:", "finite"))
        if self.init_low > self.init_high:
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

        # Every disturbance input given must be n x q, used or not.
        e_mats = [np.zeros((n, q)) if self.plant.e is None else self.plant.e] * nfoll
        given = [] if self.plant.e is None else [("plant.e", self.plant.e)]
        if self.per_agent_e is not None:
            e_mats = [as_matrix(e, f"per_agent_e[{k}]") for k, e in enumerate(self.per_agent_e)]
            if len(e_mats) != nfoll:
                raise ConfigurationError(f"scenario.per_agent_e: expected {nfoll} entries, got {len(e_mats)}")
            object.__setattr__(self, "per_agent_e", tuple(e_mats))
            given += [(f"per_agent_e[{k}]", e) for k, e in enumerate(e_mats)]
        for name, e in given:
            if e.shape != (n, q):
                raise DimensionError(f"{name}: expected shape ({n}, {q}), got {e.shape}")

        unc = (FollowerUncertainty(),) * nfoll
        if self.uncertainties is not None:
            unc = list(self.uncertainties)
            if len(unc) != nfoll:
                raise ConfigurationError(
                    f"scenario.uncertainties: expected {nfoll} entries, got {len(unc)}"
                )
            unc = tuple(u if u is not None else FollowerUncertainty() for u in unc)
            object.__setattr__(self, "uncertainties", unc)
        agents = []
        for k, (u, e) in enumerate(zip(unc, e_mats)):
            da, db, de, dc = u.materialize(n, self.plant.m, self.plant.p, q, f"uncertainties[{k}]")
            agents.append((self.plant.a + da, self.plant.b + db, self.plant.c + dc, e + de))
        stacks = tuple(np.stack(mats) for mats in zip(*agents))
        for arr in stacks:
            arr.flags.writeable = False
        object.__setattr__(self, "_stacks", stacks)  # A, B, C, E

        # All three blocks are always drawn, in a fixed order, so that
        # overriding one of them (or ignoring xi in state-feedback mode)
        # never shifts the random stream of the others.
        rng = np.random.default_rng(self.seed)
        widths = dict(zip(self.INIT_STATE_KEYS, (n, self.im.dim, n)))
        states = {key: rng.uniform(self.init_low, self.init_high, (nfoll, w)) for key, w in widths.items()}
        bad = set(self.init_states or ()) - set(widths)
        if bad:
            raise ConfigurationError(f"scenario.init_states: unknown keys {sorted(bad)}")
        for key, val in (self.init_states or {}).items():
            try:
                arr = np.array(val, dtype=float)
                size = arr.size
            except (TypeError, ValueError):
                size = "a ragged or non-numeric array"
            if size != nfoll * widths[key]:
                raise ConfigurationError(
                    f"scenario.init_states.{key}: expected {nfoll * widths[key]} numbers "
                    f"for shape ({nfoll}, {widths[key]}), got {size}"
                )
            states[key] = arr.reshape(nfoll, widths[key])
        for arr in states.values():
            arr.flags.writeable = False
        object.__setattr__(self, "_initial", tuple(states.values()))  # x, z, xi

    @property
    def n_agents(self):
        return self.graph.n_followers

    def agent_stacks(self):
        """Read-only ``(A, B, C, E)`` stacks, ``A[i]`` being follower ``i``'s ``A_i`` with uncertainty applied.

        ``E[i]`` is ``per_agent_e[i]``, else ``plant.e``, else zeros.
        """
        return self._stacks

    def agent_matrices(self):
        """Follower ``i``'s ``(A_i, B_i, C_i, E_i)`` at index ``i``: read-only views of :meth:`agent_stacks`."""
        return tuple(zip(*self._stacks))

    def initial_states(self):
        """Read-only initial states ``(x0, z0, xi0)``, drawn from ``seed`` with overrides applied."""
        return self._initial


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
        return float(self.tail_max_error_per_agent(steps).max(initial=0.0))

    def tail_max_error_per_agent(self, steps):
        """Per-agent version of :meth:`tail_max_error`; shape ``(N,)``, zeros for ``steps <= 0``."""
        tail = self.e[self.horizon - min(max(steps, 0), self.horizon):]
        return np.abs(tail).max(axis=(0, 2), initial=0.0)

    def max_relative_deviation(self, other):
        """Worst entrywise deviation from ``other`` over all shared signals.

        Measured as ``|a - b| / max(1, |a|, |b|)`` so it behaves as a
        relative error for large signals and an absolute one near zero.
        An entry that is nan or infinite on either side deviates by
        ``inf``, unless both sides hold the same infinity or both nan.
        """
        worst = 0.0
        for name in ("v", *(name for name, _ in _SIGNALS)):
            a, b = getattr(self, name), getattr(other, name)
            if a is None or b is None:
                continue
            if a.shape != b.shape:
                raise DimensionError(f"trace.{name}: shapes differ, {a.shape} vs {b.shape}")
            if a.size == 0:
                continue
            scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf / inf: nan; 1e308 - -1e308: inf
                dev = np.abs(a - b) / scale
            over = np.isinf(dev)  # two finite sides whose difference overflowed; scaled first, it cannot
            dev[over] = np.abs(a[over] / scale[over] - b[over] / scale[over])
            dev[np.isnan(dev)] = np.inf  # nan exactly where a side is not finite
            dev[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
            worst = max(worst, float(dev.max()))
        return worst

    def to_csv(self, path):
        """Write the trace to ``path`` at full float precision.

        The file starts with ``#`` comment lines documenting the
        layout, followed by a CSV header and one row per time step.
        Agent indices in column names run from 1 (the leader, index 0,
        has no columns; its trajectory is implied by ``v``).  Values are
        their shortest round-trip ``repr``, so :func:`load_trace_csv`
        reads them back exactly, and rows end in CRLF.  The signals are
        copied into one preallocated ``(T, columns)`` block, whose rows
        :func:`_repr_rows` writes in bounded chunks with NumPy array
        operations, byte for byte what ``repr`` gives; a large trace on
        a Linux host with two or more CPUs has its first half written by
        a forked child (:func:`_convert_rows`), with the same bytes.
        """
        T, nfoll, nv = self.horizon, self.x.shape[1], self.v.shape[1]
        blocks = [(pre, getattr(self, name)) for name, pre in _SIGNALS if getattr(self, name) is not None]
        names = ["t"] + [f"v{k}" for k in range(nv)]
        names += [f"{pre}{i + 1}_{k}" for pre, arr in blocks for i in range(nfoll) for k in range(arr.shape[2])]
        data = np.zeros((T, len(names)))  # column 0 holds the place of t, written as integer text
        data[:, 1 : nv + 1] = self.v
        k = nv + 1
        for _, arr in blocks:  # each signal straight into its columns, no reshaped copy
            data[:, k : k + nfoll * arr.shape[2]].reshape(arr.shape)[...] = arr
            k += nfoll * arr.shape[2]
        ts = self.t.astype(int)

        def rows(lo, hi):
            return _repr_rows(ts[lo:hi], data[lo:hi])

        comments = [
            "closed-loop simulation trace",
            f"rows: t = 0..{T - 1} (horizon {T}); values at full float precision",
            "columns: t; exosystem state v<k>; then per follower i (1-based):",
            "  x<i>_<k> plant state, z<i>_<k> internal-model state,",
            *(["  xi<i>_<k> observer state,"] if self.xi is not None else []),
            "  u<i>_<k> input, y<i>_<k> output, e<i>_<k> regulated error,",
            "  ev<i>_<k> virtual (graph-weighted) error",
        ]
        parts = _convert_rows(T, T * (len(names) - 1) >= _FORK_MIN_WRITE, rows)
        with open(path, "wb") as fh:
            fh.write(("".join(f"# {line}\n" for line in comments) + ",".join(names) + "\r\n").encode())
            fh.writelines(parts or [rows(0, T)])


# Shortest round-trip decimals of float64 values by Schubfach (R. Giulietti,
# "The Schubfach way to render doubles", 2020) on uint64 arrays; every uint64
# constant is an np.uint64 scalar, so NumPy 1.x and 2.x promote alike.
_U = np.uint64
_REPR_CHUNK, _REPR_LAYOUT = 4096, 512  # values per chunk of _repr_rows, and per gather of its cells


@functools.lru_cache(maxsize=None)
def _repr_tables():
    """``(g, digits4, tz4, templates, p10)`` of :func:`_repr_rows`, built on the first write.

    ``g[:, k + 324]`` holds the 126-bit ``g ~ 10**-k``, ``g1 2**63 + g0``,
    as ``g1, g1_hi, g1_lo, g0_hi, g0_lo`` (32-bit halves).  ``digits4``
    holds the ASCII of 0000..9999 as uint32 words, ``tz4`` their trailing
    zeros.  A template lists the source bytes of a value's 26-byte cell:
    the source row holds the 17 digits at bytes 3..19 after three ``0``
    (or a text at 0..19), the exponent's magnitude at 21..23, ``.-e+`` at
    24..27, then a NUL and the separator.  Template ids: fixed notation
    ``(sign 20 + point + 3) 17 + digits - 1``, exponent notation from
    680, 0.0 and -0.0 at 816 and 817, a text at 818.
    """
    g = np.empty((5, 617), dtype=np.uint64)
    for k in range(-324, 293):
        e2 = (-k * 913124641741) >> 38  # floor(log2(10**-k))
        num, den = 10 ** max(-k, 0) << max(125 - e2, 0), 10 ** max(k, 0) << max(e2 - 125, 0)
        g1, g0 = divmod(num // den + 1, 1 << 63)  # 2**125 < g < 2**126
        g[:, k + 324] = g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF
    i = np.arange(10000, dtype=np.int16)
    digits4 = np.stack([48 + i // 10**j % 10 for j in (3, 2, 1, 0)], 1).astype(np.uint8).view(np.uint32).ravel()
    tz4 = sum((i % 10**j == 0).astype(np.int16) for j in range(1, 5))
    zero, dot, minus, exp, plus = b"\0", b"\x18", b"\x19", b"\x1a", b"\x1b"

    def run(a, b):  # digits a..b-1
        return bytes(range(3 + a, 3 + b))

    fixed = [
        zero + dot + zero * -d + run(0, nd) if d <= 0
        else run(0, min(d, nd)) + (dot if d < nd else zero * (d - nd) + dot + zero) + run(d, nd)
        for d in range(-3, 17) for nd in range(1, 18)
    ]
    expo = [  # with the exponent's last two or three digits
        run(0, 1) + dot * (nd > 1) + run(1, nd) + exp + x + width
        for x in (plus, minus) for width in (b"\x16\x17", b"\x15\x16\x17") for nd in range(1, 18)
    ]
    cells = fixed + [minus + c for c in fixed] + expo + [minus + c for c in expo]
    cells += [zero + dot + zero, minus + zero + dot + zero, bytes(range(20))]
    templates = np.frombuffer(b"".join(c.ljust(24, b"\x1c") + b"\x1d\x1e" for c in cells), np.uint8)
    tables = g, digits4, tz4, templates.reshape(-1, 26), np.array([10**j for j in range(18)], _U)
    for table in tables:  # shared by every write
        table.setflags(write=False)
    return tables


def _rop(g, cp):
    """Schubfach's ``rop(g cp 2**-127)``: the high product from 32-bit halves, rounded to odd."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    lo, hi = cp & _U(0xFFFFFFFF), cp >> _U(32)
    x1 = g0_hi * hi + ((g0_hi * lo + g0_lo * hi + ((g0_lo * lo) >> _U(32))) >> _U(32))
    y1 = g1_hi * hi + ((g1_hi * lo + g1_lo * hi + ((g1_lo * lo) >> _U(32))) >> _U(32))
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _U(2**63 - 1)) + _U(2**63 - 1)) >> _U(63))


def _shortest(mag, g):
    """``(f, e)``: ``f 10**e`` is the shortest decimal that reads back as
    the positive finite float64 of bits ``mag``, the closest such (an even
    last digit on a tie), as ``repr`` chooses; ``f < 10**17``.  This is
    Schubfach's choice, except that a one-digit ``s`` may also shorten to
    ``10``: ``repr`` writes ``1e-323``, not ``9.9e-324``."""
    t = mag & _U(2**52 - 1)
    bq = (mag >> _U(52)).astype(np.int64)
    irregular = (t == _U(0)) & (bq > 1)  # at a power of two the lower neighbour is half as far
    c = t | (bq != 0).astype(np.uint64) << _U(52)
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 2**q
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g = np.take(g, k + 324, axis=1)
    out = c & _U(1)  # an odd significand's interval leaves out its ends
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    short = upin != ((sp10 + _U(10)) << _U(2) <= vbr)  # one multiple of ten in the interval
    uin = vbl <= vb & ~_U(3)
    closer = (vb & _U(3)) + (s & _U(1)) < _U(3)
    pick_s = np.where(uin != ((vb | _U(3)) + _U(1) <= vbr), uin, closer)
    return np.where(short, np.where(upin, sp10, sp10 + _U(10)), np.where(pick_s, s, s + _U(1))), k


def _repr_sources(vals, src, tables):
    """Write the ASCII digits of ``vals`` into their source rows ``src`` (uint32, 8 a row); return the template ids."""
    g, digits4, tz4, _, p10 = tables
    bits = vals.view(np.uint64)
    neg = (bits >> _U(63)).astype(np.int64)
    mag = bits & _U(2**63 - 1)
    ok = mag - _U(1) < _U(0x7FF0000000000000 - 1)  # finite and nonzero
    f, e = _shortest(np.where(ok, mag, _U(0x3FF0000000000000)), g)
    nd = np.searchsorted(p10, f, side="right")
    f = (f * np.take(p10, 17 - nd)).astype(np.int64)  # the 17 digits, left-aligned
    d = e + nd  # the value is 0.<digits> 10**d
    hi = f // 10**8
    lo = f - hi * 10**8
    d0 = hi // 10**8
    hi -= d0 * 10**8
    words = (d0, hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)  # 1 + 4 x 4 digits
    x = np.abs(d - 1)
    for j, word in enumerate((*words, x)):
        src[:, j] = np.take(digits4, word)
    tz, zeros = np.take(tz4, words[4]), words[4] == 0
    for word in words[3:0:-1]:
        tz += zeros * np.take(tz4, word)
        zeros &= word == 0
    fixed = (neg * 20 + d + 3) * 17  # repr's fixed notation, for -4 < d <= 16
    tid = np.where((d > -4) & (d < 17), fixed, 680 + ((neg * 2 + (d < 1)) * 2 + (x >= 100)) * 17) + 16 - tz
    tid[~ok] = 816 + neg[~ok]
    for i in np.flatnonzero(mag >= _U(0x7FF0000000000000)):
        src.view(np.uint8)[i, :20] = np.frombuffer(repr(float(vals[i])).encode().ljust(20, b"\0"), np.uint8)
        tid[i] = 818
    return tid


def _repr_rows(ts, data):
    """The CSV rows ``f"{t},{','.join(map(repr, row[1:]))}\\r\\n"`` of ``ts`` and ``data``, as one bytearray.

    ``data`` is a C-contiguous float64 block whose column 0 holds the
    place of ``t``.  Each chunk of whole rows (up to ``_REPR_CHUNK``
    values, one row at least) takes one pass: :func:`_repr_sources` lays
    out every value's digits in its source row, gathers of each value's
    template (:func:`_repr_tables`) fill a NUL-padded ``(values, 26)``
    block, and its NULs are compressed out into the one output buffer.
    ``t`` and the rare ``inf`` and ``nan`` (through ``repr``) are texts.
    """
    tables = _repr_tables()
    rows, cols = data.shape
    per = max(1, min(rows, _REPR_CHUNK // cols))
    src = np.zeros((per * cols, 8), dtype=np.uint32)
    src[:, 6:] = np.frombuffer(b".-e+\0,\0\0", np.uint32)
    src[cols - 1 :: cols, 7] = np.frombuffer(b"\0\r\n\0", np.uint32)
    src8 = src.view(np.uint8)
    base, at = np.arange(0, 32 * _REPR_LAYOUT, 32)[:, None], np.empty((_REPR_LAYOUT, 26), dtype=np.intp)
    cells = np.empty((per * cols, 26), dtype=np.uint8)
    text = np.asarray(ts).astype("S20").view(np.uint8).reshape(-1, 20)
    out = bytearray()  # grown in place: no list of parts and no join
    for lo in range(0, rows, per):
        m = min(rows - lo, per) * cols
        tid = _repr_sources(data[lo : lo + per].reshape(-1), src[:m], tables)
        src8[:m:cols, :20] = text[lo : lo + per]
        tid[::cols] = 818
        for a in range(0, m, _REPR_LAYOUT):  # offsets for part of the chunk at a time keep them small
            b = min(a + _REPR_LAYOUT, m)
            np.add(np.take(tables[3], tid[a:b], axis=0), base[: b - a], out=at[: b - a])
            np.take(src8[a:b].reshape(-1), at[: b - a], out=cells[a:b], mode="clip")
        out += cells[:m][cells[:m] != 0].data  # a memoryview: an array's own += would broadcast
    return out


def _convert_rows(n, large, convert):
    """Convert rows ``0..n`` of a trace, the first half in a forked child where that pays.

    ``convert(lo, hi)`` returns rows ``lo..hi`` converted, as a
    bytes-like object.  For a ``large`` trace on a host with
    ``os.sched_getaffinity`` reporting two or more CPUs, a forked child
    converts rows ``0..n // 2`` and sends them through a pipe while this
    process converts the rest, and the result is the child's bytes and
    this process's part, in row order.  Anywhere else, and when ``fork``
    fails, it is ``[convert(0, n)]``.

    Returns ``None`` when the child failed, and the caller converts its
    rows again; an exception of ``convert`` in this process propagates.
    Either way the read end is closed before the child is reaped, so a
    child blocked on the pipe gets ``EPIPE`` and no child outlives the
    call.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if not large or len(cpus) < 2:
        return [convert(0, n)]
    h = n // 2
    r, w = os.pipe()
    try:
        # From Python 3.12 fork warns whenever the process has other
        # threads, and an idle OpenBLAS pool counts.  The child is safe:
        # it runs only NumPy elementwise operations, takes and gathers
        # (and repr for a rare inf or nan) or np.loadtxt, no BLAS, takes
        # no lock another thread may hold, and leaves through os._exit.
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return [convert(0, n)]
    if pid == 0:
        # Never return into the caller, and never flush a file inherited
        # from it: its buffered bytes would be written twice.
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                out.write(convert(0, h))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r, "rb") as src:
            tail = convert(h, n)
            head = src.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return [head, tail] if status == 0 else None


def load_trace_csv(path):
    """Read a trace written by :meth:`SimulationTrace.to_csv`.

    Values come back exactly as written.  The file is read once, as
    bytes, and the body is parsed by forward byte range: for a large
    trace on a Linux host with two or more CPUs, a forked child parses
    the first half and sends its rows as raw float64 bytes, while this
    process parses the tail (:func:`_convert_rows`).  ``#`` lines and
    trailing ``#`` comments are skipped anywhere, and a lone CR ends a
    line as CRLF and LF do.  When either half fails, this process parses
    every row again by the same route, so an error names its row in the
    whole body.  A byte that is not UTF-8 (in a comment line too), a
    damaged cell or row, a row width other than the header's, a missing
    column or a non-integer ``t`` raises ``ConfigurationError`` naming
    ``path``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        try:
            raw.decode()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: malformed trace data ({exc})") from None

    def layout(raw):  # (raw, header start, body start, body bytes)
        top = 0  # the header is the first line not starting with "#"
        while raw.startswith(b"#", top):
            top = raw.find(b"\n", top) + 1 or len(raw)
        start = raw.find(b"\n", top) + 1 or len(raw)
        return raw, top, start, len(raw) - start

    def lf_ends(raw, part):  # a lone CR in raw[part] ends a line: then LF ends every line
        if b"\r" in raw[part].replace(b"\r\n", b""):
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return layout(raw)

    raw, top, start, n = layout(raw)
    raw, top, start, n = lf_ends(raw, slice(0, start))  # the whole file is rewritten only for a lone CR
    if top == len(raw):
        raise ConfigurationError(f"{path}: empty trace file")
    header = raw[top:start].decode().rstrip("\r\n").split(",")

    def rows_of(lo, hi):
        # The rows from the line starting at or after body byte lo up to
        # the one at or after hi; the tail's BytesIO shares raw.
        lo, hi = (raw.find(b"\n", start + i - 1) + 1 or len(raw) for i in (lo, hi))
        src = io.BytesIO(raw[:hi])
        src.seek(lo)
        with warnings.catch_warnings():  # a range of comments and blank lines holds no rows
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(src, delimiter=",", ndmin=2)
        if block.size and block.shape[1] != len(header):
            raise ValueError(f"rows hold {block.shape[1]} values, the header names {len(header)} columns")
        return block.reshape(-1, len(header))

    try:
        parts = _convert_rows(n, n >= _FORK_MIN_READ, rows_of)
    except ValueError:
        parts = None
    if parts is None:  # every row again, here, so an error names its row in the whole body
        raw, top, start, n = lf_ends(raw, slice(start, None))
        try:
            parts = [rows_of(0, n)]
        except ValueError as exc:
            raise ConfigurationError(f"{path}: malformed trace data ({exc})") from None
    del raw  # parsed: the file's bytes go before the rows are joined and gathered
    data = np.concatenate([np.frombuffer(part).reshape(-1, len(header)) for part in parts])
    del parts
    index = {name: k for k, name in enumerate(header)}
    T = data.shape[0]

    dims = {}  # prefix -> (followers, width)
    for m in filter(None, map(_SIGNAL_COLUMN.match, header)):
        nfoll, width = dims.get(m[1], (0, 0))
        dims[m[1]] = (max(nfoll, int(m[2])), max(width, int(m[3]) + 1))

    def grab(prefix):
        if prefix not in dims:
            return None
        nfoll, width = dims[prefix]
        cols = [index[f"{prefix}{i + 1}_{k}"] for i in range(nfoll) for k in range(width)]
        return data[:, cols].reshape(T, nfoll, width)

    try:
        t = data[:, index["t"]]
        signals = {name: grab(pre) for name, pre in _SIGNALS}
    except KeyError as exc:
        raise ConfigurationError(f"{path}: malformed trace data (no column {exc})") from None
    if not np.all(np.isfinite(t) & (t == np.trunc(t))):
        raise ConfigurationError(f"{path}: malformed trace data (t holds a non-integer)")
    return SimulationTrace(
        t=t.astype(int), v=data[:, [k for k, name in enumerate(header) if _V_COLUMN.match(name)]], **signals
    )


def edgewise_virtual_errors(g, e_all):
    """Virtual errors computed edge by edge from regulated errors.

    ``e_all`` has shape ``(N, p)``, one row per follower.  For follower ``i``::

        e_v[i] = sum_j a_ij (e_i - e_j) + a_i0 e_i

    which uses only information that travels along graph edges (the
    leader term reduces to ``a_i0 e_i`` because the leader's regulated
    error is zero).  Equals ``(H (x) I_p) vec(e)`` — the test suite
    checks that identity against the Kronecker route.  The simulators
    apply the same combination to stacked states and observer estimates.
    """
    e_all = np.asarray(e_all)
    if e_all.ndim != 2 or len(e_all) != g.n_followers:
        raise DimensionError(f"edgewise_virtual_errors: expected shape ({g.n_followers}, p), got {e_all.shape}")
    padded = np.concatenate([np.zeros((1, e_all.shape[1])), e_all])
    order, groups = g._in_edge_table
    out = np.empty(e_all.shape)
    for lo, hi, ends, w in groups:
        out[order[lo:hi] - 1] = _edge_coupling(w, padded[ends])
    return out


def _edge_coupling(w, rows):
    """The combination of :func:`edgewise_virtual_errors` over one group of ``Digraph._in_edge_table``.

    ``rows[k, s]`` holds the receiver's and the sender's row at slot
    ``s`` of the group's ``k``-th follower (node 0 the leader's zero
    row) and ``w`` the group's weights; any further axes (time rows,
    columns) ride along.  Returns one row per follower: its terms ``w *
    (receiver - sender)`` added to a zero row in edge-list order,
    ``((0 + t1) + t2) + ...``, bit for bit what ``np.add.at`` into zero
    rows gives, signed zeros included (a padding slot adds ``+0``, which
    changes no such sum).  Rows and columns never mix, so a value gets
    the bits it gets alone.  No ``H`` matrix is involved, so the
    agentwise route stays independent of the Kronecker oracle.
    """
    terms = rows[:, :, 0] - rows[:, :, 1]
    terms *= w.reshape(*w.shape, *[1] * (terms.ndim - 2))
    out = np.zeros(terms.shape[:1] + terms.shape[2:])
    for s in range(w.shape[1]):
        out += terms[:, s]
    return out


def _guard(step, states, nodes, *parts):
    """Raise :class:`DivergenceError` at the first of ``states`` to leave the guard.

    ``states[j, k]`` is the state of follower ``nodes[k]`` (1-based; 0 for
    the leader's zero row) at step ``step + j``.  One test covers the
    whole block.  Only when it fails (or meets a nan) are the steps
    walked in order, and the error built from the first of the last-axis
    slices ``parts`` (all of the row if none are given) that is out of
    bounds, so a block raises what a per-step check would have.  Its
    ``agent`` is the lowest-numbered follower at which that slice's
    magnitude is reached (or is nan).
    """
    if np.abs(states).max(initial=0.0) <= DIVERGENCE_GUARD:
        return
    for j, state in enumerate(states):
        for part in parts or (slice(None),):
            rows = np.abs(state[..., part]).max(axis=-1, initial=0.0)
            m = float(rows.max(initial=0.0))
            if not m <= DIVERGENCE_GUARD:  # also catches nan
                raise DivergenceError(
                    f"simulation diverged at step {step + j} (state magnitude {m:.3e} "
                    f"exceeds guard {DIVERGENCE_GUARD:.1e})",
                    step=step + j,
                    norm=m,
                    agent=int(nodes[(rows == m) | np.isnan(rows)].min()),
                )


def _fill_past(rows, past, r_com):
    """Write ``past`` (newest first) into the pre-history ``rows`` (oldest first), its oldest value into the rest."""
    if past is None:
        return
    past = np.asarray(past, dtype=float)
    shape = (r_com, *rows.shape[1:])
    if past.shape != shape:
        raise DimensionError(f"history: expected shape {shape}, got {past.shape}")
    if r_com:  # row k is len(rows) - k steps before t = 0
        rows[:] = past[np.minimum(np.arange(len(rows), 0, -1), r_com) - 1]


def _simulate(scenario, gains, law, controller_past, observer_past, output):
    """The one time loop behind both agentwise simulators.

    Mode and law differ only in how late each signal is read (the table
    in the module docstring); ``output`` adds the observer and makes its
    estimate, not the plant state, the coupled feedback state.  Every
    history lives in one buffer whose row ``depth + t`` holds time
    ``t``, with the pre-history in the rows before it.  A scenario meant for the
    other mode, an unknown law, a history given to the delayed law and a
    gain set that does not fit the scenario are rejected.
    """
    mode = "output" if output else "state"
    caller = f"simulate_{mode}_feedback"
    if scenario.mode != mode:
        raise ConfigurationError(f"{caller}: scenario.mode is {scenario.mode!r}, expected {mode!r}")
    if law not in ("transformed", "delayed"):
        raise ConfigurationError(f"{caller}: unknown law {law!r}")
    if law == "delayed" and (controller_past is not None or observer_past is not None):
        raise ConfigurationError(f"{caller}: history overrides apply to the transformed law only")
    _check_gains(scenario.plant, scenario.im, gains, mode, caller)
    r_con, r_com = scenario.delays.r_con, scenario.delays.r_com
    d_z = r_com if law == "transformed" else 0
    d_ev = r_com - d_z
    d_fb = d_z if output else r_com
    depth, T = r_con + r_com, scenario.horizon
    a, b, c, e_in = scenario.agent_stacks()
    nfoll, n, p, nz = scenario.n_agents, scenario.plant.n, scenario.plant.p, scenario.im.dim

    # One fused update per follower: [s | e](t+1) = M_i d(t), s = [z | x | xi], d = [s | w(t - r_con)
    # | e_v(t - d_ev) | v(t) | v(t+1)] with the law's inputs w(t) = [coupled feedback(t - d_fb) | z(t - d_z)],
    # u = [K_x | K_z] w; output mode adds the observer's [w(t - r_con - d_ev) | coupled xi(t)] before v.
    ns = nz + 2 * n if output else nz + n
    z_, x_, xi_, e_ = slice(0, nz), slice(nz, nz + n), slice(nz + n, ns), slice(ns, ns + p)
    w_, ev_ = slice(ns, ns + n + nz), slice(ns + n + nz, ns + n + nz + p)
    q = scenario.exo.q
    width = ev_.stop + (2 * n + nz if output else 0) + 2 * q
    v_, v1_ = slice(width - 2 * q, width - q), slice(width - q, width)
    gain = np.hstack([gains.k_x, gains.k_z])
    fused = np.zeros((nfoll, ns + p, width))
    fused[:, z_, z_], fused[:, z_, ev_] = scenario.im.g1, scenario.im.g2
    fused[:, x_, x_], fused[:, x_, w_], fused[:, x_, v_] = a, b @ gain, e_in
    if output:
        fused[:, xi_, xi_], fused[:, xi_, ev_] = scenario.plant.a, gains.l_obs
        fused[:, xi_, ev_.stop : ev_.stop + n + nz] = scenario.plant.b @ gain
        fused[:, xi_, ev_.stop + n + nz : v_.start] = -gains.l_obs @ scenario.plant.c
    fused[:, e_] = c @ fused[:, x_]
    fused[:, e_, v1_] = scenario.exo.f
    # Identical followers (E_i included) share M_0: one 2-D product steps them all.
    uniform = bool((fused == fused[0]).all())

    # Row depth + t of one buffer holds time t: [s | e] per node, node 0
    # the leader's zero row and the followers in stepping order, then v(t).
    S = ns + p
    R = (nfoll + 1) * S + q

    def split(rows):
        return rows[:, : R - q].reshape(-1, nfoll + 1, S), rows[:, R - q :]

    buf = np.zeros((depth + T + 1, R))
    flat = buf.reshape(-1)
    hist, exo_v = split(buf)
    exo_v[depth:] = scenario.exo.trajectory(T + 1)
    x0, z0, xi0 = scenario.initial_states()
    hist[: depth + 1, 1:, :ns] = np.concatenate([z0, x0, xi0] if output else [z0, x0], axis=1)
    hist[: depth + 1, 1:, e_] = np.matmul(c, x0[:, :, None])[:, :, 0] + scenario.exo.f @ exo_v[depth]
    _fill_past(hist[:depth, 1:, z_], controller_past, r_com)
    if output:
        _fill_past(hist[:depth, 1:, xi_], observer_past, r_com)
    order, groups = scenario.graph._in_edge_table
    pos = np.zeros(nfoll + 1, dtype=int)  # buffer position of each node
    pos[order] = np.arange(1, nfoll + 1)
    hist[: depth + 1, 1:] = hist[: depth + 1, order]
    nodes = np.append(0, order)  # the node of each buffer position

    # Step t gathers its drive from flat[t * R:], whose row depth is time t, at offsets
    # read off a layout of rows 0..depth + 1; before t = r_con they read the law's inputs
    # from pre-history rows that hold w(0)'s values, so u is held there.  A coupled block
    # reads a pair of slots per in-edge, receiver row then sender row, which the scale
    # weighs by +a_ij and -a_ij; its block of M_i repeats over the slots.
    at_h, at_v = split(np.arange((depth + 2) * R).reshape(depth + 2, R))
    fb_ = slice(ns - n, ns)  # the feedback state ends s, just before e
    j, jo = depth - r_con, depth - r_con - d_ev  # (row, columns, coupled) of each drive block before v
    blocks = [(depth, slice(0, ns), False), (j - d_fb, fb_, True), (j - d_z, z_, False), (depth - d_ev, e_, True)]
    if output:
        blocks += [(jo - d_fb, fb_, True), (jo - d_z, z_, False), (depth, fb_, True)]
    plan, scale, spans, size = [], [], [], 0
    for lo, hi, ends, w in groups:
        own = np.arange(lo + 1, hi + 1)
        pairs = pos[ends].reshape(len(own), -1)
        weights = np.stack([w, -w], axis=2).reshape(len(own), -1)
        cols, weigh, read, start = [], [], [], 0
        for r, cs, coupled in blocks:
            base = np.arange(start, start + cs.stop - cs.start)  # the block's columns of M_i
            cols.append(np.tile(base, pairs.shape[1]) if coupled else base)
            weigh.append(np.repeat(weights, len(base), axis=1) if coupled else np.ones((len(own), len(base))))
            read.append(at_h[r, pairs if coupled else own, cs].reshape(len(own), -1))
            start += len(base)
        read.append(np.broadcast_to(at_v[depth : depth + 2].reshape(-1), (len(own), 2 * q)))
        cols = np.append(np.hstack(cols), np.arange(width - 2 * q, width))
        scale.append(np.hstack([*weigh, np.ones((len(own), 2 * q))]).reshape(-1))
        plan.append(np.hstack(read).reshape(-1))
        spans.append((size, cols))
        size += len(own) * len(cols)
    # One take gathers every group's drive D and one product scales its pair slots; each group's
    # step (lhs, rhs, out) writes its row depth + t + 1 in place, D M_0' or M_i d_i per follower.
    plan, scale, drive, steps = np.hstack(plan), np.hstack(scale), np.empty(size), []
    for (lo, hi, _, _), (at, cols) in zip(groups, spans):
        d, rows = drive[at : at + (hi - lo) * len(cols)].reshape(hi - lo, -1), hist[:, lo + 1 : hi + 1]
        if uniform:
            steps.append((d, fused[0][:, cols].T, rows))
        else:
            steps.append((fused[order[lo:hi] - 1][:, :, cols], d[..., None], rows[..., None]))

    for t0 in range(0, T, _GUARD_BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging block runs on to its end
            for t in range(t0, min(t0 + _GUARD_BLOCK, T)):
                flat[t * R :].take(plan, out=drive, mode="clip")
                drive *= scale
                for lhs, rhs, out in steps:
                    np.matmul(lhs, rhs, out=out[depth + t + 1])
        _guard(t0 + 1, hist[depth + t0 + 1 : depth + t0 + _GUARD_BLOCK + 1, :, :ns], nodes, x_, z_, xi_)

    # The coupled feedback u reads and e_v, over rows depth - d_fb .. depth + T - 1, come
    # from one coupling pass per group over blocks of rows, each gathered by one take.
    span = T + d_fb
    offsets = np.arange(_GUARD_BLOCK)[:, None] * R + np.arange(fb_.start, S)
    index = [pos[ends][..., None, None] * S + offsets for _, _, ends, _ in groups]
    coupled = np.empty((nfoll, span, S - fb_.start))
    for k in range(0, span, _GUARD_BLOCK):
        for at, (lo, hi, _, w) in zip(index, groups):
            rows = flat[(depth - d_fb + k) * R :].take(at[..., : span - k, :])
            coupled[order[lo:hi] - 1, k : k + _GUARD_BLOCK] = _edge_coupling(w, rows)
    coupled = coupled.transpose(1, 0, 2)
    nodes = hist if len(groups) == 1 else hist[:, pos]
    rows = nodes[depth : depth + T, 1:]
    u = coupled[:T, :, :n] @ gains.k_x.T
    u += nodes[depth - d_z : depth - d_z + T, 1:, z_] @ gains.k_z.T
    return SimulationTrace(
        t=np.arange(T, dtype=int),
        v=exo_v[depth : depth + T],
        x=rows[:, :, x_],
        z=rows[:, :, z_],
        u=u,
        y=np.matmul(c, rows[:, :, x_, None])[:, :, :, 0],
        e=rows[:, :, e_],
        e_v=coupled[d_fb:, :, n:],
        xi=rows[:, :, xi_] if output else None,
    )


def simulate_state_feedback(scenario, gains, law="transformed", controller_past=None):
    """Run the distributed state-feedback regulator agent by agent.

    Parameters
    ----------
    scenario : Scenario
        A scenario with ``mode == "state"``.
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
        the value ``k + 1`` steps before zero); the history before
        these rows holds the oldest given value, ``controller_past[-1]``.
        Defaults to constant extension of the initial state.

    Returns
    -------
    SimulationTrace
    """
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

    Parameters mirror :func:`simulate_state_feedback`, for a scenario
    with ``mode == "output"``; ``controller_past``/``observer_past``
    give pre-``t=0`` histories (shape ``(r_com, N, dim)``, newest
    first) for the transformed law, and the history before the given
    rows holds the oldest given value.
    """
    return _simulate(scenario, gains, law, controller_past, observer_past, output=True)


def simulate_compact_oracle(scenario, gains):
    """Iterate the compact networked loop, every follower with its uncertain ``(A_i, B_i, C_i, E_i)``.

    The loop is the recursion of :func:`~coopreg.synthesis.network_blocks`,
    applied as structured products on an ``(N, .)`` state, never as a
    dense Kronecker block: ``(H (x) K) vec X = vec(K X H')``.  Follower
    ``i``'s row for time ``t`` holds ``[z | x | xi | C_i x]``, the coupled
    readouts ``H [fb | C x]`` (``fb`` is ``x``, or ``xi`` in output mode)
    and ``v(t)``, filled in before the loop.  A step is one product with
    ``H`` and one stacked product of each follower's step matrix with its
    rows ``t - r .. t``.  That matrix carries the local blocks, the
    coupling, the feed ``E_i v`` and ``G2``/``L`` times ``(H 1 (x) F) v``,
    the delayed input ``B_i u(t - r_con)``, and ``C_i`` times its ``x``
    rows.  ``y``, ``e``, ``e_v`` and ``u`` are formed after the loop.  It
    shares no stepping code with the agentwise simulators and forms ``H``,
    which they never do.  A step costs ``O(N^2 (n + p) + N (r + 1) w^2)``
    for rows ``w`` wide.
    """
    output = scenario.mode == "output"
    _check_gains(scenario.plant, scenario.im, gains, scenario.mode, "simulate_compact_oracle")
    nfoll, n, m, p = scenario.n_agents, scenario.plant.n, scenario.plant.m, scenario.plant.p
    nz, q = scenario.im.dim, scenario.exo.q
    r, r_com, T = scenario.delays.r, scenario.delays.r_com, scenario.horizon
    a, b, c, e_in = scenario.agent_stacks()
    h, _ = h_matrix(scenario.graph)
    lead = h.sum(axis=1)  # H 1: the leader weights
    lead_f = lead[:, None, None] * scenario.exo.f  # follower i's block row of H 1 (x) F

    # One follower's row: [z | x | xi | c = C_i x | H fb | H c | v]; its step matrix acts on rows t - r .. t.
    ns = nz + 2 * n if output else nz + n
    z_, x_, xi_, c_ = slice(0, nz), slice(nz, nz + n), slice(nz + n, ns), slice(ns, ns + p)
    fb_ = xi_ if output else x_
    hfb_, hc_ = slice(c_.stop, c_.stop + n), slice(c_.stop + n, c_.stop + n + p)
    v_ = slice(hc_.stop, hc_.stop + q)
    width = v_.stop
    step = np.zeros((nfoll, c_.stop, r + 1, width))
    now = step[:, :, r]
    now[:, z_, z_], now[:, z_, hc_], now[:, z_, v_] = scenario.im.g1, scenario.im.g2, scenario.im.g2 @ lead_f
    now[:, x_, x_], now[:, x_, v_] = a, e_in
    law = np.zeros((m, width))  # u(t) off the row of t - r_com
    law[:, z_], law[:, hfb_] = gains.k_z, gains.k_x
    step[:, x_, 0] += b @ law  # B_i u(t - r_con) off row t - r; at r = 0 that is row t itself
    if output:
        now[:, xi_, xi_], now[:, xi_, hfb_] = scenario.plant.a, -gains.l_obs @ scenario.plant.c
        now[:, xi_, hc_], now[:, xi_, v_] = gains.l_obs, gains.l_obs @ lead_f
        step[:, xi_, 0] += scenario.plant.b @ law
    step[:, c_] = np.matmul(c, step[:, x_].reshape(nfoll, n, -1)).reshape(nfoll, -1, r + 1, width)
    step = step.reshape(nfoll, c_.stop, -1)

    # Row k of follower i's buffer holds time k - r, the constant history in front.
    buf = np.zeros((nfoll, r + T + 1, width))
    x0, z0, xi0 = scenario.initial_states()
    past = buf[:, : r + 1]
    past[..., z_], past[..., x_], past[..., c_] = z0[:, None], x0[:, None], np.matmul(c, x0[..., None])[:, None, :, 0]
    if output:
        past[..., xi_] = xi0[:, None]
    past[..., hfb_.start : hc_.stop] = (h @ past[:, 0, fb_.start : c_.stop])[:, None]
    v = scenario.exo.trajectory(T)
    buf[:, r : r + T, v_] = v
    # Step t reads [fb | c] of row t, writes H times it beside them, and then
    # writes [z | x | xi | c] of row t + 1 from the window of rows t - r .. t.
    by_time = buf.transpose(1, 0, 2)
    windows = np.lib.stride_tricks.sliding_window_view(buf.reshape(nfoll, -1), (r + 1) * width, axis=1)
    operands = (
        by_time[r:, :, fb_.start : c_.stop],
        by_time[r:, :, hfb_.start : hc_.stop],
        windows[:, ::width, :, None].transpose(1, 0, 2, 3),
        by_time[r + 1 :, :, : c_.stop, None],
    )
    nodes = np.arange(1, nfoll + 1)
    for t0 in range(0, T, _GUARD_BLOCK):
        block = slice(t0, min(t0 + _GUARD_BLOCK, T))
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging block runs on to its end
            for readouts, coupled, window, nxt in zip(*(op[block] for op in operands)):
                np.matmul(h, readouts, out=coupled)
                np.matmul(step, window, out=nxt)
        _guard(t0 + 1, by_time[r + t0 + 1 : r + t0 + _GUARD_BLOCK + 1, :, :ns], nodes)

    # One copy of the states: a trace must not keep the wide buffer alive.
    rows = np.ascontiguousarray(by_time[r : r + T, :, : c_.stop])
    y = rows[:, :, c_]
    f_v = v @ scenario.exo.f.T
    return SimulationTrace(
        t=np.arange(T, dtype=int),
        v=v,
        x=rows[:, :, x_],
        z=rows[:, :, z_],
        u=by_time[r - r_com : r - r_com + T] @ law.T,
        y=y,
        e=y + f_v[:, None],
        e_v=by_time[r : r + T, :, hc_] + lead[:, None] * f_v[:, None],
        xi=rows[:, :, xi_] if output else None,
    )
