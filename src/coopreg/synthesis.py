"""Controller synthesis for delayed multi-agent output regulation.

The design pipeline assembled here takes a nominal agent model, a
leader-follower graph, and an internal model, and produces the gains of
a distributed regulator that tolerates a known input delay ``r_con``
and communication delay ``r_com``:

1. :func:`check_assumptions` evaluates the six structural conditions
   the theory needs (connectivity, stabilizability, detectability,
   transmission zeros, neutrally stable exosystem, no exponentially
   unstable open-loop modes).
2. :func:`build_augmented` forms the cascade of the agent with the
   internal model.
3. :func:`state_feedback_gain` solves a parametric algebraic Riccati
   equation whose low-gain parameter ``gamma`` shrinks the feedback
   aggressiveness until the delayed loop can absorb it; the delay
   enters through an extra factor ``A**(r+1)`` in the gain formula.
   :func:`observer_gain` is its dual, ``L = -K(A', C')'``.
4. :func:`network_blocks` builds the delayed networked loop for any
   per-follower ``(A_i, B_i, C_i)`` stack; the compact simulation oracle
   uses it too.  :func:`certify_closed_loop` certifies the nominal loop
   through one ``lam``-slice per eigenvalue of ``H``: the lifted
   spectrum is the union of the spectra of the slice lifts, so every
   slice lift must be Schur.  A slice lift, on the loop state and the
   last ``r`` inputs, is affine in ``lam``, ``L(lam) = L0 + lam L1``, so
   one :func:`network_blocks` call at ``lam = i`` gives the pencil
   ``(L0, L1)`` for every slice.
5. :func:`design_search` designs and certifies at each ``gamma`` of a
   search; :func:`auto_tune_gamma` runs one, halving
   ``gamma`` until the certificate accepts, which is the standard way
   to pick the parameter in practice.

The Riccati equation solved throughout is, for a pair ``(A, B)`` and
``0 < gamma < 1``::

    A' P A - P - A' P B (I + B' P B)^{-1} B' P A = -gamma * P

whose stabilizing solution coincides with the standard DARE solution
(state weight zero, input weight identity) for the scaled matrix
``A / sqrt(1 - gamma)``.  :func:`solve_parametric_dare` solves that
scaled equation directly (a stable/anti-stable split, then a Stein sum
by Smith doubling) and checks the answer with one Newton step; any
standard DARE solver gives an independent cross-check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericalError, SynthesisError
from .graphs import connectivity_spectral_check, has_leader_spanning_tree
from .matrixops import (
    DEFAULT_RANK_TOL,
    SCHUR_MARGIN,
    as_count,
    as_matrix,
    as_real,
    block_diag,
    detectable,
    eigenvalues,
    kron,
    numeric_rank,
    require_square,
    spectral_radius,
    stabilizable,
)

__all__ = [
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
    "design_search",
    "auto_tune_gamma",
]

# Halvings of gamma that auto_tune_gamma tries before it gives up.
_MAX_HALVINGS = 40


@dataclass(frozen=True, eq=False)
class NominalPlant:
    """Nominal agent model ``x+ = A x + B u + E v``, ``y = C x``.

    ``e`` is the nominal disturbance input matrix and may be omitted
    when per-agent disturbance maps are supplied elsewhere; synthesis
    itself only uses ``(A, B, C)``, so a ``Scenario``, which knows
    the exosystem, checks the shape of ``e``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    e: np.ndarray = None

    def __post_init__(self):
        a = require_square(as_matrix(self.a, "plant.a"), "plant.a")
        b = as_matrix(self.b, "plant.b")
        c = as_matrix(self.c, "plant.c")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionError(f"plant.b: expected {n} rows, got {b.shape[0]}")
        if c.shape[1] != n:
            raise DimensionError(f"plant.c: expected {n} columns, got {c.shape[1]}")
        e = None if self.e is None else as_matrix(self.e, "plant.e")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e", e)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[1]

    @property
    def p(self):
        return self.c.shape[0]


@dataclass(frozen=True)
class DelaySpec:
    """Input delay ``r_con`` and communication delay ``r_com`` (both in steps)."""

    r_con: int = 0
    r_com: int = 0

    def __post_init__(self):
        for name in ("r_con", "r_com"):
            object.__setattr__(self, name, as_count(getattr(self, name), f"delays.{name}:"))

    @property
    def r(self):
        """Total round-trip delay ``r_con + r_com`` seen by the feedback path."""
        return self.r_con + self.r_com


@dataclass(frozen=True, eq=False)
class GainSet:
    """Synthesized controller gains plus the parameters that produced them.

    ``k_x`` acts on relative plant states, ``k_z`` on the internal-model
    state; in the output-feedback law ``k_x`` acts on the observer
    estimates instead.  ``l_obs`` is ``None`` for pure state-feedback
    designs.
    """

    k_x: np.ndarray
    k_z: np.ndarray
    gamma: float
    nu: float
    l_obs: np.ndarray = None
    gamma_l: float = None
    nu_l: float = None
    observer_r: int = 0


@dataclass
class AssumptionReport:
    """Outcome of the structural checks; iterable list of (name, ok, detail)."""

    entries: list = field(default_factory=list)

    def add(self, name, ok, detail):
        self.entries.append((name, bool(ok), detail))

    @property
    def all_ok(self):
        return all(ok for _, ok, _ in self.entries)

    def lines(self):
        """Formatted one-per-check report lines."""
        return [
            f"{'PASS' if ok else 'FAIL'}  {name}: {detail}" for name, ok, detail in self.entries
        ]

    def __iter__(self):
        return iter(self.entries)


def transmission_zeros_ok(plant, exo):
    """Check the non-resonance condition against the exosystem modes.

    For every eigenvalue ``lam`` of ``S`` the pencil::

        [ A - lam I   B ]
        [     C       0 ]

    must have full row rank ``n + p``.  Returns ``(ok, offending)``
    where ``offending`` is the first eigenvalue that fails (or None).
    """
    n, p = plant.n, plant.p
    zero = np.zeros((p, plant.m))
    for lam in eigenvalues(exo.s, "S"):
        pencil = np.block(
            [[plant.a - lam * np.eye(n), plant.b], [plant.c.astype(complex), zero]]
        )
        if numeric_rank(pencil) < n + p:
            return False, complex(lam)
    return True, None


def check_assumptions(plant, exo, g):
    """Evaluate the six structural conditions required by the design.

    Parameters
    ----------
    plant : NominalPlant
    exo : Exosystem
    g : Digraph

    Returns
    -------
    AssumptionReport
        Six entries: connectivity, agreement of the two connectivity
        tests, stabilizability, detectability, exosystem modes, and
        transmission zeros combined with the open-loop spectrum bound.
    """
    rep = AssumptionReport()

    tree = has_leader_spanning_tree(g)
    spectral = connectivity_spectral_check(g)
    re_min = float(np.min(np.real(g._h_spectrum)))
    rep.add(
        "connectivity",
        tree and spectral,
        f"leader-rooted spanning tree: {tree}; min Re eig(H) = {re_min:.4f}",
    )

    stab = stabilizable(plant.a, plant.b)
    rep.add("stabilizability", stab, "(A, B) passes the PBH test" if stab else "(A, B) fails the PBH test")

    det = detectable(plant.c, plant.a)
    rep.add("detectability", det, "(C, A) passes the PBH test" if det else "(C, A) fails the PBH test")

    tz_ok, lam_bad = transmission_zeros_ok(plant, exo)
    rep.add(
        "transmission zeros",
        tz_ok,
        "no transmission zero coincides with an exosystem mode"
        if tz_ok
        else f"rank drop at exosystem mode {lam_bad:.4f}",
    )

    exo_ok = exo.modes_on_unit_circle()
    rep.add(
        "exosystem modes",
        exo_ok,
        "all eigenvalues of S on the unit circle"
        if exo_ok
        else "S has modes off the unit circle",
    )

    rho_a = spectral_radius(plant.a)
    a_ok = rho_a <= 1.0 + DEFAULT_RANK_TOL
    rep.add(
        "open-loop spectrum",
        a_ok,
        f"spectral radius of A = {rho_a:.4f} (must not exceed 1)",
    )
    return rep


def _fro(m):
    """``np.linalg.norm(m)`` of a real ``m`` by numpy's own formula, bit for bit, without its wrapper."""
    return np.sqrt(m.ravel(order="K").dot(m.ravel(order="K")))


def _stein_sum(f, q):
    """``X = F X F' + Q`` for a Schur ``F``, by Smith doubling.

    Step ``k`` adds the terms ``2^k .. 2^(k+1) - 1`` of ``sum_i F^i Q F'^i``;
    the neglected tail is below ``||F^(2^k)||^2 <= 1e-16`` relative.  At
    most 40 steps are taken: designs down to ``gamma = 3e-5`` need at
    most 23, while an ``F`` with a mode on the unit circle to rounding
    (``a = sqrt(0.9) R(theta)`` at ``gamma = 0.1``) runs 59 or more, so
    the cap refuses a spectral radius within about ``2e-11`` of 1.
    """
    for _ in range(40):
        q = q + f @ q @ f.T
        f = f @ f
        if _fro(f) <= 1e-8:
            return q
    raise np.linalg.LinAlgError("Stein doubling did not converge")


def solve_parametric_dare(a, b, gamma):
    """Stabilizing solution of the parametric Riccati equation.

    Returns the symmetric positive semidefinite ``P`` that solves
    ``A'PA - P - A'PB (I + B'PB)^{-1} B'PA = -gamma P`` for
    ``0 < gamma < 1`` and a stabilizable pair ``(a, b)``; ``a`` should
    have no eigenvalues outside the closed unit disk.

    This is the standard equation for ``Ah = A / sqrt(1 - gamma)``.
    Newton's matrix-sign iteration on ``(Ah - I)(Ah + I)^{-1}`` splits
    off the stable modes of ``Ah``, on which ``P`` vanishes; ``Z`` is an
    orthonormal basis of their orthogonal complement.  Then
    ``P = Z W^{-1} Z'`` with ``W = sum_{i>=1} F^i Z'B B'Z F'^i`` and
    ``F = (Z'Ah Z)^{-1}``, summed by Smith doubling in about
    ``log2(1/gamma)`` products.  One Hewer step from ``P``, the
    closed-loop Stein equation ``X = Acl' X Acl + K'K``, estimates the
    error of ``P`` as ``||X - P||_F / ||P||_F``.  When no mode is
    anti-stable, ``P = 0``, which stabilizes only a Schur ``Ah``: the
    same doubling on ``Ah`` checks that.

    Raises :class:`NumericalError` when no stabilizing solution is found
    (``Ah`` has an eigenvalue on the unit circle, to rounding, so the
    sign iteration or a doubling does not converge, or a step overflows)
    or the error estimate is not finite or exceeds ``1e-6``.
    """
    a = require_square(as_matrix(a, "a"), "a")
    b = as_matrix(b, "b")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"solve_parametric_dare: A is {a.shape[0]} x {a.shape[0]} but B has {b.shape[0]} rows")
    gamma = as_real(gamma, "solve_parametric_dare: gamma", "unit")

    at = a / np.sqrt(1.0 - gamma)
    eye = np.eye(a.shape[0])
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sign = np.linalg.solve(at + eye, at - eye)
            for _ in range(100):
                step = 0.5 * (np.linalg.inv(sign) - sign)
                sign = sign + step
                # the 1-norms by np.linalg.norm(., 1)'s own formula, without its wrapper
                if np.add.reduce(np.abs(step), axis=0).max() <= 1e-10 * np.add.reduce(np.abs(sign), axis=0).max():
                    break
            else:
                raise np.linalg.LinAlgError("matrix sign iteration did not converge")
            u, sv, _ = np.linalg.svd(0.5 * (eye - sign))  # range: the stable modes
            z = u[:, sv <= 0.5]
            if z.shape[1] == 0:  # P = 0, stabilizing only if Ah is Schur
                _stein_sum(at, eye)
                return np.zeros_like(a)
            f = np.linalg.inv(z.T @ at @ z)
            fb = f @ z.T @ b
            p = z @ np.linalg.solve(_stein_sum(f, fb @ fb.T), z.T)
            p = 0.5 * (p + p.T)
            k = np.linalg.solve(np.eye(b.shape[1]) + b.T @ p @ b, b.T @ p @ at)
            x = _stein_sum((at - b @ k).T, k.T @ k)
            err = _fro(x - p) / _fro(p)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NumericalError(f"solve_parametric_dare: no stabilizing solution at gamma={gamma} ({exc})") from None
    if not err <= 1e-6:
        raise NumericalError(f"solve_parametric_dare: accuracy estimate {err:.3e} exceeds 1e-6 at gamma={gamma}")
    return p


def state_feedback_gain(a, b, gamma, nu, r):
    """Delay-compensating low-gain state feedback.

    Computes ``K = -(1/nu) (I + B'PB)^{-1} B'P A^{r+1}`` where ``P``
    solves the parametric Riccati equation at ``gamma``.  The power
    ``r + 1`` pre-rotates the feedback by the total loop delay ``r``;
    ``nu`` scales for the weakest coupling eigenvalue of the graph (use
    ``nu <= min Re eig(H)``).

    Returns the ``m x n`` gain matrix.
    """
    return _feedback_law(a, b, nu, r)(gamma)


def _feedback_law(a, b, nu, r):
    """:func:`state_feedback_gain` as a function of ``gamma``; the checks and ``A^(r+1)`` are done once."""
    a = require_square(as_matrix(a, "a"), "a")
    b = as_matrix(b, "b")
    nu = as_real(nu, "state_feedback_gain: nu")
    power = np.linalg.matrix_power(a, as_count(r, "state_feedback_gain: r") + 1)

    def gain(gamma):
        p = solve_parametric_dare(a, b, gamma)
        return -np.linalg.solve(np.eye(b.shape[1]) + b.T @ p @ b, b.T @ p @ power) / nu

    return gain


def observer_gain(a, c, gamma_l, nu_l, r=0):
    """Low-gain observer injection ``L`` for the pair ``(C, A)``.

    The dual of :func:`state_feedback_gain`: ``L = -K(A', C')'``, that
    is ``L = (1/nu_l) A^{r+1} P C' (I + C P C')^{-1}`` (``n x p``) with
    ``P`` the solution of the dual parametric Riccati equation
    ``A P A' - P - A P C'(I + C P C')^{-1} C P A' = -gamma_l P``.

    The default ``r = 0`` reflects that the estimation-error recursion
    in the networked closed loop is delay-free: the observer runs on
    locally available signals, so no delay compensation power is
    needed.  A nonzero ``r`` inserts the same ``A^{r+1}`` factor as the
    state-feedback formula; like there, ``r`` must be a non-negative
    integer.
    """
    a = require_square(as_matrix(a, "a"), "a")
    c = as_matrix(c, "c")
    if c.shape[1] != a.shape[0]:
        raise DimensionError(f"observer_gain: A is {a.shape[0]} x {a.shape[0]} but C has {c.shape[1]} columns")
    nu_l = as_real(nu_l, "observer_gain: nu_l")
    return -state_feedback_gain(a.T, c.T, gamma_l, nu_l, as_count(r, "observer_gain: r")).T


def build_augmented(plant, im):
    """Cascade of the agent with the internal model.

    Returns the pair::

        A_c = [ A      0  ]      B_c = [ B ]
              [ G2 C   G1 ]            [ 0 ]

    and raises :class:`SynthesisError` if the pair fails the PBH
    stabilizability test, which is exactly the situation the
    transmission-zero assumption rules out.
    """
    if im.g2.shape[1] != plant.p:
        raise DimensionError(
            f"build_augmented: internal model expects {im.g2.shape[1]} error channels, plant has {plant.p}"
        )
    n, nz = plant.n, im.g1.shape[0]
    a_c, b_c = np.zeros((n + nz, n + nz)), np.zeros((n + nz, plant.m))
    a_c[:n, :n], a_c[n:, :n], a_c[n:, n:], b_c[:n] = plant.a, im.g2 @ plant.c, im.g1, plant.b
    if not stabilizable(a_c, b_c):
        raise SynthesisError(
            "build_augmented: the agent/internal-model cascade is not stabilizable; "
            "check stabilizability of (A, B) and the transmission-zero condition"
        )
    return a_c, b_c


def closed_loop_blocks(plant, h, im, gains, mode):
    """Nominal networked closed-loop pair ``(A0, A1)``.

    The aggregate state recursion has the delayed form
    ``w(t+1) = A0 w(t) + A1 w(t - r)`` with ``r = r_con + r_com``.
    ``h`` may be any square coupling matrix, including a ``1 x 1``
    complex eigenvalue slice, whose :func:`delay_lift` is the companion
    lift of that slice.  The blocks are those of :func:`network_blocks`
    with every follower at the nominal model.
    """
    nominal = [(plant.a, plant.b, plant.c)] * len(np.atleast_2d(h))
    a0, b_u, u_map, _ = network_blocks(plant, h, im, gains, mode, nominal)
    return a0, b_u @ u_map


def _check_gains(plant, im, gains, mode, caller):
    """Reject a gain set that does not fit ``plant``, ``im`` and ``mode`` or is not finite, naming the field."""
    shapes = {"k_x": (plant.m, plant.n), "k_z": (plant.m, im.dim)}
    if mode == "output":
        if gains.l_obs is None:
            raise ConfigurationError(f"{caller}: output mode requires an observer gain")
        shapes["l_obs"] = (plant.n, plant.p)
    for name, shape in shapes.items():
        value = getattr(gains, name)
        if np.shape(value) != shape:
            raise DimensionError(f"gains.{name}: expected shape {shape}, got {np.shape(value)}")
        if not np.isfinite(value).all():
            raise NumericalError(f"gains.{name}: contains non-finite entries")


def network_blocks(plant, h, im, gains, mode, agents):
    """Networked closed loop of the followers ``agents`` coupled through ``h``.

    ``agents`` holds one ``(A_i, B_i, C_i)`` per row of ``h``; further
    entries, such as the ``E_i`` of ``Scenario.agent_matrices()``, are
    ignored.  The observer rows use the nominal ``plant``: the observer
    is a model that the controller runs.  The state ``w`` stacks the
    plant states, the internal-model states and, in output mode, the
    observer states of all followers.  Its recursion is::

        w(t+1) = A0 w(t) + B u(t - r_con) + D (H 1 (x) F) v(t) + [E_i v(t) on rows x_i]

    with the stacked input ``u(t) = U w(t - r_com)``, so ``A1 = B U``.
    ``D`` is the map through which the virtual error
    ``(H (x) I_p) diag(C_i) x + (H 1 (x) F) v`` enters ``w``; its plant
    part is already in ``A0``.  Returns ``(A0, B, U, D)``.
    """
    if mode not in ("state", "output"):
        raise ConfigurationError(f"network_blocks: unknown mode {mode!r}")
    _check_gains(plant, im, gains, mode, "network_blocks")
    h = np.atleast_2d(np.asarray(h))
    nn = h.shape[0]
    if len(agents) != nn:
        raise DimensionError(f"network_blocks: {len(agents)} followers for a {nn} x {nn} coupling")
    a_bar, b_bar, c_blk = (block_diag([agent[k] for agent in agents]) for k in range(3))
    eye_n = np.eye(nn)
    c_bar = kron(h, np.eye(plant.p)) @ c_blk
    g1, g2 = kron(eye_n, im.g1), kron(eye_n, im.g2)
    kx, kz = kron(h, gains.k_x), kron(eye_n, gains.k_z)
    z = np.zeros
    nx, nz, nu, ne = a_bar.shape[0], g1.shape[0], b_bar.shape[1], c_bar.shape[0]

    w = nx + nz + (nx if mode == "output" else 0)
    a0 = z((w, w), dtype=c_bar.dtype)  # every block is real, or complex through h as c_bar is
    a0[:nx, :nx], a0[nx : nx + nz, :nx], a0[nx : nx + nz, nx : nx + nz] = a_bar, g2 @ c_bar, g1
    if mode == "state":
        return a0, np.vstack([b_bar, z((nz, nu))]), np.hstack([kx, kz]), np.vstack([z((nx, ne)), g2])

    l_bar = kron(eye_n, gains.l_obs)
    a0[nx + nz :, :nx] = l_bar @ c_bar
    a0[nx + nz :, nx + nz :] = kron(eye_n, plant.a) - kron(h, gains.l_obs @ plant.c)
    b_u = np.vstack([b_bar, z((nz, nu)), kron(eye_n, plant.b)])
    return a0, b_u, np.hstack([z((nu, nx)), kz, kx]), np.vstack([z((nx, ne)), g2, l_bar])


def delay_lift(a0, a1, r):
    """Companion lift of ``w(t+1) = A0 w(t) + A1 w(t-r)`` to a delay-free system.

    Stacks ``z(t) = (w(t), w(t-1), ..., w(t-r))``; the lifted matrix has
    ``A0`` and ``A1`` in the first block row and shift identities below.
    ``A1`` is added onto its block, so for ``r = 0`` the lift is ``A0 + A1``.
    """
    a0 = np.atleast_2d(a0)
    a1 = np.atleast_2d(a1)
    if a0.ndim != 2 or a0.shape != a1.shape or a0.shape[0] != a0.shape[1]:
        raise DimensionError(f"delay_lift: expected equal square blocks, got {a0.shape} and {a1.shape}")
    r = as_count(r, "delay_lift: r")
    nb = a0.shape[0]
    dtype = np.result_type(a0.dtype, a1.dtype)
    lift = np.zeros(((r + 1) * nb, (r + 1) * nb), dtype=dtype)
    lift[:nb, :nb] = a0
    lift[:nb, r * nb :] += a1
    lift[nb:, : r * nb] = np.eye(r * nb, dtype=dtype)
    return lift


def _input_history_lift(a0, b, u, r):
    """Lift of ``w(t+1) = A0 w(t) + B U w(t-r)`` on ``(w(t), mu(t-1), ..., mu(t-r))``, ``mu = U w``.

    The first block row is ``[A0, 0, ..., 0, B]``, the second ``[U, 0, ..., 0]``, and
    ``m``-wide shift identities sit below; ``r = 0`` gives ``A0 + B U``.  It is ``w + r m``
    wide and has the nonzero spectrum of ``delay_lift(A0, B U, r)``, whose others are zeros.
    """
    a0, b, u = np.atleast_2d(a0), np.atleast_2d(b), np.atleast_2d(u)
    nw, m = b.shape[0], b.shape[-1]
    if b.ndim != 2 or a0.shape != (nw, nw) or u.shape != (m, nw):
        shapes = f"{a0.shape}, {b.shape} and {u.shape}"
        raise DimensionError(f"_input_history_lift: expected A0 w x w, B w x m and U m x w, got {shapes}")
    r = as_count(r, "_input_history_lift: r")
    if r == 0:
        return a0 + b @ u
    lift = np.zeros((nw + r * m, nw + r * m), dtype=np.result_type(a0, b, u))
    lift[:nw, :nw] = a0
    lift[:nw, nw + (r - 1) * m :] = b
    lift[nw : nw + m, :nw] = u
    lift[nw + m :, nw : nw + (r - 1) * m] = np.eye((r - 1) * m)
    return lift


def _slice_radii(plant, g, im, gains, delays, mode):
    """Lifted spectral radius of each coupling slice: the real ones of ``g._h_slices``, then the complex ones.

    A slice lift, :func:`_input_history_lift` of the slice's blocks, is
    affine in the coupling, ``L(lam) = L0 + lam L1``; the plant, internal
    model and gains are real, so the lift at ``lam = i`` is ``L0 + i L1``.
    ``L0 + lam L1`` matches the builder's own lift at ``lam`` to the bit
    where their products round alike (on the bundled agent), and to
    rounding otherwise.  One stacked eigensolve per kind.
    """
    blocks = network_blocks(plant, [[1j]], im, gains, mode, [(plant.a, plant.b, plant.c)])
    lift = _input_history_lift(*blocks[:3], delays.r)
    l0, l1 = lift.real, lift.imag
    return np.concatenate([spectral_radius(l0 + lam[:, None, None] * l1) for lam in g._h_slices if lam.size])


def certify_closed_loop(plant, g, im, gains, delays, mode):
    """Schur certificate for the delayed networked closed loop.

    Both closed-loop blocks are Kronecker products against ``I`` or
    ``H``, so a Schur triangularization of ``H`` block-triangularizes
    the lifted loop: its nonzero spectrum is the union, over the
    eigenvalues ``lam`` of ``H``, of those of the slice lifts
    ``delay_lift(*closed_loop_blocks(plant, [[lam]], im, gains, mode), r)``,
    which are ``(r+1) w`` wide.  The certificate lifts each slice on the
    loop state and the last ``r`` inputs instead, ``w + r m`` wide, with
    the same nonzero spectrum.  It takes the eigenvalues of ``H`` from the
    graph, which eigensolves ``H`` once and shares the spectrum with
    :func:`synthesize_gains`, and lifts one slice per
    distinct value (one per conjugate pair, since conjugate slices have
    conjugate spectra), never the network-sized ``(r+1) N w`` matrix.
    The blocks are built once, as the pencil ``L0 + lam L1`` of the
    slice lift, and the slices are eigensolved as stacks, so the cost
    per slice is the arithmetic, not a Python round trip.

    Returns
    -------
    stable : bool
        True when the radius is below ``1 - SCHUR_MARGIN``.
    rho : float
        The lifted spectral radius: the largest slice radius.

    Raises
    ------
    NumericalError
        If a gain is not finite or a slice lift cannot be eigensolved.
    """
    rho = float(np.max(_slice_radii(plant, g, im, gains, delays, mode)))
    return bool(rho < 1.0 - SCHUR_MARGIN), rho


def synthesize_gains(
    plant,
    g,
    im,
    delays,
    gamma,
    nu=None,
    mode="state",
    gamma_l=None,
    nu_l=None,
    observer_r=0,
):
    """One-shot gain synthesis at a fixed low-gain parameter.

    Builds the augmented pair, solves the parametric Riccati equation
    at ``gamma``, and splits the resulting feedback into its plant-state
    and internal-model parts.  In output mode a dual design at
    ``gamma_l`` produces the observer injection.

    A search (:func:`design_search`) builds the augmented pair with its PBH test,
    ``A_c^(r+1)`` and the default ``nu`` once; a candidate costs its Riccati solves.

    Parameters
    ----------
    plant : NominalPlant
    g : Digraph
    im : InternalModel
    delays : DelaySpec
    gamma : float
        Low-gain parameter for the feedback Riccati equation.
    nu : float, optional
        Coupling scale; defaults to the smallest real part over the
        spectrum of ``H``, which is the least conservative admissible
        choice.
    mode : {"state", "output"}
    gamma_l, nu_l : float, optional
        Observer-side parameters (output mode); default to ``gamma``
        and ``nu``.
    observer_r : int, optional
        Delay power used in the observer gain; the estimation loop is
        delay-free, so 0 is the natural choice.

    Returns
    -------
    GainSet
    """
    return _design_context(plant, g, im, delays, mode, nu, nu_l, observer_r)(gamma, gamma_l)


def _design_context(plant, g, im, delays, mode="state", nu=None, nu_l=None, observer_r=0):
    """The ``gamma``-free part of :func:`synthesize_gains`, done once: returns ``design(gamma, gamma_l=None)``."""
    if mode not in ("state", "output"):
        raise ConfigurationError(f"synthesize_gains: unknown mode {mode!r}")
    re_min = float(np.min(np.real(g._h_spectrum)))
    if not connectivity_spectral_check(g):
        raise SynthesisError(
            f"coupling matrix H has min Re eig(H) = {re_min:.4e}, not above the connectivity threshold "
            f"{DEFAULT_RANK_TOL:.0e}; the graph needs a leader-rooted spanning tree"
        )
    nu = re_min if nu is None else as_real(nu, "synthesize_gains: nu")
    nu_l = nu if nu_l is None else as_real(nu_l, "synthesize_gains: nu_l")
    observer_r = as_count(observer_r, "synthesize_gains: observer_r")
    feedback = _feedback_law(*build_augmented(plant, im), nu, delays.r)

    def design(gamma, gamma_l=None):
        gamma = as_real(gamma, "synthesize_gains: gamma", "unit")
        gamma_l = gamma if gamma_l is None else as_real(gamma_l, "synthesize_gains: gamma_l", "unit")
        k_full = feedback(gamma)
        output = mode == "output"
        return GainSet(
            k_x=k_full[:, : plant.n],
            k_z=k_full[:, plant.n :],
            gamma=gamma,
            nu=nu,
            l_obs=observer_gain(plant.a, plant.c, gamma_l, nu_l, observer_r) if output else None,
            gamma_l=gamma_l if output else None,
            nu_l=nu_l if output else None,
            observer_r=observer_r,
        )

    return design


def design_search(plant, g, im, delays, mode="state", nu=None, nu_l=None, observer_r=0):
    """A search over ``gamma``, its ``gamma``-free work done once: returns ``candidate(gamma, gamma_l=None)``.

    A candidate is :func:`synthesize_gains` certified by :func:`certify_closed_loop`: ``(gains, stable, rho)``.
    """
    design = _design_context(plant, g, im, delays, mode, nu, nu_l, observer_r)

    def candidate(gamma, gamma_l=None):
        gains = design(gamma, gamma_l)
        return (gains, *certify_closed_loop(plant, g, im, gains, delays, mode))

    return candidate


def auto_tune_gamma(plant, g, im, delays, gamma0, mode="state", **settings):
    """Halve ``gamma`` from ``gamma0`` until the closed loop certifies.

    The low-gain theory guarantees that a sufficiently small ``gamma``
    stabilizes the delayed loop whenever the structural assumptions
    hold, so a geometric search is enough.  ``settings`` (``nu``,
    ``gamma_l``, ``nu_l``, ``observer_r``) are those of
    :func:`synthesize_gains`; a given ``gamma_l`` is halved in lockstep
    with ``gamma``; one :func:`design_search` does the ``gamma``-free work once.

    Returns
    -------
    GainSet
        The first gain set whose lifted closed loop is Schur with the
        margin ``SCHUR_MARGIN``.

    Raises
    ------
    SynthesisError
        If a precondition fails or no candidate certifies within 40
        halvings; the message names the smallest finite radius reached
        and the last five candidates.
    """
    gamma0 = as_real(gamma0, "auto_tune_gamma: gamma0", "unit")
    rho_a = spectral_radius(plant.a)
    if rho_a > 1.0 + DEFAULT_RANK_TOL:
        raise SynthesisError(
            f"auto_tune_gamma: open-loop spectral radius {rho_a:.4f} exceeds 1; "
            "the low-gain family cannot stabilize exponentially unstable modes through a delay"
        )

    gamma, gamma_l = gamma0, settings.pop("gamma_l", None)
    candidate = design_search(plant, g, im, delays, mode, **settings)
    tried = []
    for _ in range(_MAX_HALVINGS + 1):
        try:
            gains, stable, rho = candidate(gamma, gamma_l)
        except NumericalError:
            stable, rho = False, float("nan")
        tried.append((gamma, rho))
        if stable:
            return gains
        gamma, gamma_l = gamma / 2.0, None if gamma_l is None else gamma_l / 2.0
    summary = ", ".join(f"gamma={gk:.3e} -> rho={rk:.6f}" for gk, rk in tried[-5:])
    finite = [(rk, gk) for gk, rk in tried if np.isfinite(rk)]
    best = "rho={:.6f} at gamma={:.3e}".format(*min(finite)) if finite else "none finite"
    raise SynthesisError(
        f"auto_tune_gamma: no certified gain after {_MAX_HALVINGS} halvings from {gamma0}; "
        f"smallest radius: {best}; last candidates: {summary}"
    )
