"""Shared fixtures and randomized-case generators for the test suite.

All generators take an explicit ``numpy.random.Generator`` so every
test controls its own seed; nothing here reads global random state.
"""

import csv

import numpy as np
import pytest
import scipy.linalg as sla
import yaml

from coopreg import (
    Digraph,
    Exosystem,
    FollowerUncertainty,
    GainSet,
    NominalPlant,
    DelaySpec,
    Scenario,
    build_internal_model,
)
from coopreg import delay_lift, h_matrix, network_blocks
from coopreg import SimulationTrace, config, graphs, synthesis
from coopreg import reference as ref
from coopreg.errors import NumericalError
from coopreg.matrixops import block_diag, eigenvalues, kron, spectral_radius


# ---------------------------------------------------------------------------
# benchmark fixtures


@pytest.fixture(scope="session")
def bench_state():
    """Benchmark scenario, state-feedback mode, full horizon."""
    return ref.reference_scenario(mode="state", horizon=2000, seed=0)


@pytest.fixture(scope="session")
def bench_output():
    return ref.reference_scenario(mode="output", horizon=2000, seed=0)


@pytest.fixture(scope="session")
def target_gains():
    """The benchmark's calibrated design (``CALIBRATED_K``) packaged as a GainSet."""
    return ref.target_gains()


@pytest.fixture
def h_eigensolves(monkeypatch):
    """A list that records one entry per eigensolve of ``H`` by the library."""
    calls = []

    def counting(m, name="matrix"):
        if name == "H":
            calls.append(m.shape)
        return eigenvalues(m, name)

    for module in (graphs, synthesis):
        monkeypatch.setattr(module, "eigenvalues", counting)
    return calls


@pytest.fixture
def yaml_parity(monkeypatch):
    """Parse every file ``coopreg.config`` reads a second time with PyYAML's
    pure-Python ``SafeLoader`` and require the same data."""
    load = config._load_yaml

    def checked(path):
        data = load(path)
        with open(path) as fh:
            assert yaml.load(fh, Loader=yaml.SafeLoader) == data, path
        return data

    monkeypatch.setattr(config, "_load_yaml", checked)


def benchmark_config_dict(mode="state", horizon=300, seed=0):
    """Plain-mapping scenario description of the benchmark, as a user
    would write it in a scenario file."""
    cos1, sin1 = float(np.cos(1.0)), float(np.sin(1.0))
    w1 = w2 = (0.1, 0.2, 0.3, 0.4)
    w3 = (0.5, 0.6, 0.7, 0.8)
    return {
        "mode": mode,
        "plant": {
            "a": [[1.0, 1.0], [0.0, 1.0]],
            "b": [[1.0], [1.0]],
            "c": [[1.0, 0.0]],
        },
        "exosystem": {
            "s": [[cos1, sin1], [-sin1, cos1]],
            "f": [[-1.0, 0.0]],
            "v0": [1.0, 0.0],
        },
        "graph": {
            "n_followers": 4,
            "edges": [[0, 1, 1.0], [0, 2, 1.0], [1, 3, 1.0], [1, 4, 1.0]],
        },
        "delays": {"r_con": 1, "r_com": 1},
        "synthesis": {
            "gamma": 0.08,
            "nu": 1.0,
            "gamma_l": 0.18,
            "nu_l": 0.5,
            "beta_override": {
                "beta": [[cos1, sin1], [-sin1, cos1]],
                "sigma": [[0.0], [1.0]],
            },
        },
        "per_agent_e": [
            [[0.0, 0.0], [0.0, float(i)]] for i in range(1, 5)
        ],
        "uncertainties": [
            {
                "d_a": [[0.0, w1[i]], [0.0, 0.0]],
                "d_b": [[w2[i]], [0.0]],
                "d_e": [[0.0, w3[i]], [0.0, 0.0]],
            }
            for i in range(4)
        ],
        "simulation": {"horizon": horizon, "seed": seed},
    }


# ---------------------------------------------------------------------------
# randomized-case generators


def unit_circle_blocks(rng, n, extra_stable=False):
    """Block-diagonal seed matrix with known spectrum.

    Rotations by distinct random angles plus ±1 scalars; optionally one
    strictly stable scalar block.  Returns ``(matrix, eigenvalues)``.
    """
    blocks = []
    eigs = []
    k = n
    if extra_stable and k >= 1:
        lam = float(rng.uniform(0.3, 0.7))
        blocks.append(np.array([[lam]]))
        eigs.append(lam)
        k -= 1
    while k > 0:
        if k >= 2 and rng.random() < 0.7:
            th = float(rng.uniform(0.1, 3.0))
            blocks.append(np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]))
            eigs += [complex(np.cos(th), np.sin(th)), complex(np.cos(th), -np.sin(th))]
            k -= 2
        else:
            s = float(rng.choice([-1.0, 1.0]))
            blocks.append(np.array([[s]]))
            eigs.append(s)
            k -= 1
    return sla.block_diag(*blocks), eigs


def random_exosystem_with_known_minpoly(rng):
    """Block-diagonal S made of distinct known irreducible factors.

    Returns ``(s, coeffs_desc)`` where ``coeffs_desc`` is the minimal
    polynomial (descending, monic) computed independently by
    multiplying the known factors with numpy.polymul.  Factors are kept
    distinct so the minimal polynomial really is their plain product.
    """
    n_rot = int(rng.integers(0, 3))           # rotations, 2 states each
    angles = 0.2 + 2.5 * (rng.permutation(8)[:n_rot] + rng.random(n_rot)) / 8.0
    scalars = []
    room = 4 - 2 * n_rot
    for s in (1.0, -1.0):
        if room > 0 and rng.random() < 0.5:
            scalars.append(s)
            room -= 1
    if n_rot == 0 and not scalars:
        scalars.append(float(rng.choice([-1.0, 1.0])))

    blocks, factors = [], []
    for th in angles:
        blocks.append(np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]))
        factors.append(np.array([1.0, -2.0 * np.cos(th), 1.0]))
    for s in scalars:
        blocks.append(np.array([[s]]))
        factors.append(np.array([1.0, -s]))

    s_mat = sla.block_diag(*blocks)
    poly = np.array([1.0])
    for f in factors:
        poly = np.polymul(poly, f)
    return s_mat, poly


def random_unit_circle_pair(rng, n, m, ctrb_margin=1e-2, extra_stable=False):
    """Controllable pair with (mostly) unit-circle open-loop spectrum.

    Rejection-samples until the controllability matrix has smallest
    singular value above ``ctrb_margin`` so the Riccati solvers meet
    their residual contracts in double precision.
    """
    while True:
        a0, _ = unit_circle_blocks(rng, n, extra_stable=extra_stable)
        t = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
        a = np.linalg.solve(t, a0 @ t)
        b = rng.uniform(-1.0, 1.0, (n, m))
        blocks = [b]
        for _ in range(n - 1):
            blocks.append(a @ blocks[-1])
        sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
        if sv[-1] > ctrb_margin:
            return a, b


def fixed_point_dare(a, b, gamma, tol=1e-12, max_iter=100000):
    """Parametric Riccati solution by the fixed-point iteration: a test oracle.

    Iterates the standard Riccati map for ``A / sqrt(1 - gamma)`` from
    ``P = I`` (about ``1/gamma`` steps), symmetrizing every iterate, until
    the parametric residual drops below ``tol * max(1, ||P||_F)``.  When
    the iterates stop changing first, a residual within a factor 100 of
    that threshold is still accepted; otherwise ``AssertionError``.
    """
    a, b = np.atleast_2d(np.asarray(a, float)), np.atleast_2d(np.asarray(b, float))
    n, m = a.shape[0], b.shape[1]
    at = a / np.sqrt(1.0 - gamma)
    eye_m = np.eye(m)

    def residual_norm(p):
        r = eye_m + b.T @ p @ b
        res = a.T @ p @ a - p - a.T @ p @ b @ np.linalg.solve(r, b.T @ p @ a) + gamma * p
        return float(np.linalg.norm(res, "fro"))

    p = np.eye(n)
    stalled = False
    for _ in range(max_iter):
        r = eye_m + b.T @ p @ b
        p_next = at.T @ p @ at - at.T @ p @ b @ np.linalg.solve(r, b.T @ p @ at)
        p_next = 0.5 * (p_next + p_next.T)
        step = float(np.max(np.abs(p_next - p)))
        p = p_next
        if residual_norm(p) <= tol * max(1.0, float(np.linalg.norm(p, "fro"))):
            return p
        if step <= 1e-16 * (1.0 + float(np.max(np.abs(p)))):
            stalled = True
            break
    res = residual_norm(p)
    threshold = (100.0 if stalled else 1.0) * tol * max(1.0, float(np.linalg.norm(p, "fro")))
    assert res <= threshold, f"fixed point: residual {res:.3e} above {threshold:.3e} (gamma={gamma})"
    return p


def horner_polyval(coeffs, m):
    """A monic polynomial (ascending non-leading ``coeffs``) at the matrix ``m``,
    by Horner's rule from the leading 1: a test oracle."""
    out = np.eye(m.shape[0])
    for c in np.asarray(coeffs, dtype=float)[::-1]:
        out = out @ m + c * np.eye(m.shape[0])
    return out


def quadratic_coupling_slices(h):
    """Distinct eigenvalues of ``h``, one per conjugate pair: a test oracle.

    This is the merge ``Digraph._h_slices`` replaced: each value is
    compared with every value kept so far, not only the last one.
    """
    kept = []
    for lam in eigenvalues(h, "H"):
        if lam.imag < 0 or any(abs(lam - mu) <= 1e-12 * max(1.0, abs(lam)) for mu in kept):
            continue
        kept.append(lam)
    return [float(lam.real) if lam.imag == 0 else complex(lam) for lam in kept]


def reference_trace_csv(trace, path):
    """Trace CSV written one value at a time through ``csv.writer``: a test oracle.

    This is the writer :meth:`SimulationTrace.to_csv` replaced; the
    library's bulk writer must match its bytes exactly.
    """
    T = trace.horizon
    nfoll = trace.x.shape[1] if trace.x.ndim == 3 else 0
    q = trace.v.shape[1]
    names = ["t"]
    names += [f"v{k}" for k in range(q)]
    blocks = [("x", trace.x), ("z", trace.z)]
    if trace.xi is not None:
        blocks.append(("xi", trace.xi))
    blocks += [("u", trace.u), ("y", trace.y), ("e", trace.e), ("ev", trace.e_v)]
    for prefix, arr in blocks:
        for i in range(nfoll):
            for k in range(arr.shape[2]):
                names.append(f"{prefix}{i + 1}_{k}")
    with open(path, "w", newline="") as fh:
        fh.write("# closed-loop simulation trace\n")
        fh.write(f"# rows: t = 0..{T - 1} (horizon {T}); values at full float precision\n")
        fh.write("# columns: t; exosystem state v<k>; then per follower i (1-based):\n")
        fh.write("#   x<i>_<k> plant state, z<i>_<k> internal-model state,\n")
        if trace.xi is not None:
            fh.write("#   xi<i>_<k> observer state,\n")
        fh.write("#   u<i>_<k> input, y<i>_<k> output, e<i>_<k> regulated error,\n")
        fh.write("#   ev<i>_<k> virtual (graph-weighted) error\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for row_idx in range(T):
            row = [int(trace.t[row_idx])]
            row += [repr(float(val)) for val in trace.v[row_idx]]
            for _, arr in blocks:
                row += [repr(float(val)) for val in arr[row_idx].reshape(-1)]
            writer.writerow(row)


def random_digraph(rng, n_max=8):
    """Random leader-follower digraph, biased to mix both connectivity outcomes."""
    nfoll = int(rng.integers(1, n_max + 1))
    edges = []
    style = rng.random()
    if style < 0.45:
        # guaranteed leader-rooted: random tree edges, parents earlier in order
        order = list(rng.permutation(np.arange(1, nfoll + 1)))
        for idx, node in enumerate(order):
            parent = 0 if idx == 0 else int(rng.choice([0] + order[:idx]))
            edges.append((parent, int(node), float(rng.uniform(0.5, 2.0))))
    density = rng.uniform(0.0, 0.35)
    for src in range(nfoll + 1):
        for dst in range(1, nfoll + 1):
            if src == dst:
                continue
            if any(e[0] == src and e[1] == dst for e in edges):
                continue
            if rng.random() < density:
                edges.append((src, dst, float(rng.uniform(0.5, 2.0))))
    return Digraph(n_followers=nfoll, edges=tuple(edges))


def random_connected_digraph(rng, n_max=5):
    while True:
        g = random_digraph(rng, n_max=n_max)
        from coopreg import has_leader_spanning_tree

        if has_leader_spanning_tree(g):
            return g


# Twelve followers for coupling code at network scale: followers 4, 6,
# 9, 11 and 12 have two or three in-edges, 6 -> 7 -> 8 -> 9 -> 6 is a
# cycle (so H is not triangular), and the edges are listed out of
# destination order.
NET12 = Digraph(
    n_followers=12,
    edges=(
        (9, 10, 1.0), (0, 1, 1.0), (5, 12, 0.6), (3, 9, 0.6), (2, 4, 0.6),
        (6, 7, 1.0), (1, 2, 0.8), (9, 6, 0.5), (11, 12, 0.9), (0, 3, 1.2),
        (8, 9, 1.4), (4, 5, 0.9), (2, 11, 1.2), (1, 6, 1.3), (7, 8, 0.9),
        (3, 4, 1.1), (10, 11, 0.7), (0, 9, 0.8), (5, 6, 0.7), (7, 12, 1.1),
    ),
)


def random_tree(rng, n, weights=(1.0, 2.0)):
    """A random tree on the leader and ``n`` followers: follower ``i``
    hears one node drawn uniformly from ``0 .. i - 1``, at a weight drawn
    from ``U[weights]``.  Every parent precedes its child, so ``H`` is
    lower triangular, its eigenvalues the weights."""
    return Digraph(n, tuple((int(rng.integers(0, i)), i, float(rng.uniform(*weights))) for i in range(1, n + 1)))


def random_scenario(rng, mode, horizon=200, graph=None, delays=None):
    """Small random scenario for cross-route trace comparisons.

    The plant spectrum sits on the closed unit disk, the gains are
    small random matrices (no stabilization is needed for two exact
    simulators to agree), and every structured-uncertainty slot is
    exercised.  The loop is not stabilized, so its signals may grow
    (seed 22 reaches |x| ~ 1e10); :data:`SCHUR_SEEDS` are draws whose
    loop is Schur.  ``graph`` and ``delays``, when given, replace the
    random draws of at most four followers and of the delays.  Returns
    ``(scenario, gains)``.
    """
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = 1
    a0, _ = unit_circle_blocks(rng, n)
    t = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
    a = np.linalg.solve(t, a0 @ t)
    b = rng.uniform(-1.0, 1.0, (n, m))
    c = rng.uniform(-1.0, 1.0, (p, n))
    plant = NominalPlant(a=a, b=b, c=c)

    if rng.random() < 0.5:
        th = float(rng.uniform(0.2, 2.0))
        s = [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]
    else:
        s = [[1.0]]
    q = len(s)
    f = rng.uniform(-1.0, 1.0, (p, q))
    v0 = rng.uniform(-1.0, 1.0, q)
    exo = Exosystem(s=s, f=f, v0=v0)
    im = build_internal_model(exo)

    g = graph
    if g is None:
        nfoll = int(rng.integers(1, 5))
        while g is None or g.n_followers != nfoll:
            g = random_digraph(rng, n_max=nfoll)
    nfoll = g.n_followers

    if delays is None:
        r_con = int(rng.integers(0, 3))
        r_com = int(rng.integers(0, 3 - r_con + 1))
        delays = DelaySpec(r_con=r_con, r_com=r_com)

    unc = []
    scale = 0.1
    for _ in range(nfoll):
        unc.append(
            FollowerUncertainty(
                d_a=rng.uniform(-scale, scale, (n, n)),
                d_b=rng.uniform(-scale, scale, (n, m)),
                d_e=rng.uniform(-scale, scale, (n, q)),
                d_c=rng.uniform(-scale, scale, (p, n)),
            )
        )
    per_e = tuple(rng.uniform(-1.0, 1.0, (n, q)) for _ in range(nfoll))

    scenario = Scenario(
        plant=plant,
        exo=exo,
        graph=g,
        delays=delays,
        im=im,
        mode=mode,
        per_agent_e=per_e,
        uncertainties=tuple(unc),
        horizon=horizon,
        seed=int(rng.integers(0, 2**31)),
    )
    gscale = 0.05
    gains = GainSet(
        k_x=rng.uniform(-gscale, gscale, (m, n)),
        k_z=rng.uniform(-gscale, gscale, (m, im.dim)),
        gamma=0.1,
        nu=1.0,
        l_obs=rng.uniform(-gscale, gscale, (n, p)) if mode == "output" else None,
        gamma_l=0.1 if mode == "output" else None,
        nu_l=1.0 if mode == "output" else None,
        observer_r=0,
    )
    return scenario, gains


# Seeds whose random_scenario draw has a Schur uncertain lifted loop
# (radius below 0.999 in both modes) with three or four followers and a
# communication delay, found by scanning seeds 0..2999 with
# uncertain_lifted_radius.  Their traces stay bounded.
SCHUR_SEEDS = (548, 1444, 1841)


def uncertain_lifted_radius(sc, gains):
    """Spectral radius of the delay-lifted loop of ``sc``, every follower
    with its own uncertain ``(A_i, B_i, C_i)``."""
    h, _ = h_matrix(sc.graph)
    a0, b_u, u_map, _ = network_blocks(sc.plant, h, sc.im, gains, sc.mode, sc.agent_matrices())
    return spectral_radius(delay_lift(a0, b_u @ u_map, sc.delays.r))


# ---------------------------------------------------------------------------
# bit-level oracles of the design layer's lean paths


def norm_stein_sum(f, q):
    """``synthesis._stein_sum`` with its convergence test through ``np.linalg.norm``."""
    for _ in range(40):
        q = q + f @ q @ f.T
        f = f @ f
        if np.linalg.norm(f) <= 1e-8:
            return q
    raise np.linalg.LinAlgError("Stein doubling did not converge")


def norm_parametric_dare(a, b, gamma):
    """``synthesis.solve_parametric_dare`` with every norm through ``np.linalg.norm``.

    Its sign iteration tests ``np.linalg.norm(., 1)`` and its doublings
    :func:`norm_stein_sum`; it returns ``P``, or raises ``NumericalError``
    where the solver refuses.  The fast path must match it bit for bit.
    """
    a, b, gamma = np.array(a, dtype=float), np.array(b, dtype=float), float(gamma)
    at = a / np.sqrt(1.0 - gamma)
    eye = np.eye(a.shape[0])
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sign = np.linalg.solve(at + eye, at - eye)
            for _ in range(100):
                step = 0.5 * (np.linalg.inv(sign) - sign)
                sign = sign + step
                if np.linalg.norm(step, 1) <= 1e-10 * np.linalg.norm(sign, 1):
                    break
            else:
                raise np.linalg.LinAlgError("matrix sign iteration did not converge")
            u, sv, _ = np.linalg.svd(0.5 * (eye - sign))
            z = u[:, sv <= 0.5]
            if z.shape[1] == 0:
                norm_stein_sum(at, eye)
                return np.zeros_like(a)
            f = np.linalg.inv(z.T @ at @ z)
            fb = f @ z.T @ b
            p = z @ np.linalg.solve(norm_stein_sum(f, fb @ fb.T), z.T)
            p = 0.5 * (p + p.T)
            k = np.linalg.solve(np.eye(b.shape[1]) + b.T @ p @ b, b.T @ p @ at)
            x = norm_stein_sum((at - b @ k).T, k.T @ k)
            err = np.linalg.norm(x - p) / np.linalg.norm(p)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NumericalError(f"no stabilizing solution at gamma={gamma} ({exc})") from None
    if not err <= 1e-6:
        raise NumericalError(f"accuracy estimate {err:.3e} exceeds 1e-6 at gamma={gamma}")
    return p


def real_embedding(m):
    """Real ``2n x 2m`` representation ``[[Re, -Im], [Im, Re]]`` of a complex matrix.

    It doubles every singular value's multiplicity, so its real rank is
    exactly twice the complex rank: the oracle of the complex ranks.
    """
    m = np.atleast_2d(m)
    re, im = np.real(m), np.imag(m)
    return np.block([[re, -im], [im, re]])


def np_block_augmented(plant, im):
    """The ``(A_c, B_c)`` cascade of ``build_augmented`` assembled by ``np.block``."""
    n, nz = plant.n, im.g1.shape[0]
    a_c = np.block([[plant.a, np.zeros((n, nz))], [im.g2 @ plant.c, im.g1]])
    return a_c, np.vstack([plant.b, np.zeros((nz, plant.m))])


def np_block_network_blocks(plant, h, im, gains, mode, agents):
    """``network_blocks`` assembled by ``np.block``: ``(A0, B, U, D)``, unchecked."""
    h = np.atleast_2d(np.asarray(h))
    nn = h.shape[0]
    a_bar, b_bar, c_blk = (block_diag([agent[k] for agent in agents]) for k in range(3))
    eye_n = np.eye(nn)
    c_bar = kron(h, np.eye(plant.p)) @ c_blk
    g1, g2 = kron(eye_n, im.g1), kron(eye_n, im.g2)
    kx, kz = kron(h, gains.k_x), kron(eye_n, gains.k_z)
    z = np.zeros
    nx, nz, nu, ne = a_bar.shape[0], g1.shape[0], b_bar.shape[1], c_bar.shape[0]
    if mode == "state":
        a0 = np.block([[a_bar, z((nx, nz))], [g2 @ c_bar, g1]])
        return a0, np.vstack([b_bar, z((nz, nu))]), np.hstack([kx, kz]), np.vstack([z((nx, ne)), g2])
    l_bar = kron(eye_n, gains.l_obs)
    obs = kron(eye_n, plant.a) - kron(h, gains.l_obs @ plant.c)
    a0 = np.block(
        [
            [a_bar, z((nx, nz + nx))],
            [g2 @ c_bar, g1, z((nz, nx))],
            [l_bar @ c_bar, z((nx, nz)), obs],
        ]
    )
    b_u = np.vstack([b_bar, z((nz, nu)), kron(eye_n, plant.b)])
    return a0, b_u, np.hstack([z((nu, nx)), kz, kx]), np.vstack([z((nx, ne)), g2, l_bar])


def peak_relative_deviation(a, b):
    """Worst deviation of trace ``a`` from trace ``b``, each signal's
    ``|a - b|`` scaled by ``max(1, peak |a|, peak |b|)`` over the run:
    rounding a loop amplified, as a share of the largest value it took."""
    worst = 0.0
    for name in ("v", "x", "z", "xi", "u", "y", "e", "e_v"):
        sa, sb = getattr(a, name), getattr(b, name)
        if sa is None or sb is None or sa.size == 0:
            continue
        worst = max(worst, float(np.max(np.abs(sa - sb)) / max(1.0, np.max(np.abs(sa)), np.max(np.abs(sb)))))
    return worst


def dense_compact_oracle(scenario, gains):
    """The uncertain networked loop iterated as dense Kronecker blocks: the structured oracle's reference.

    Takes ``A0``, ``A1 = B U`` and the virtual-error drive from
    ``network_blocks``, called with every follower's uncertain ``(A_i,
    B_i, C_i)``, and runs ``w(t+1) = A0 w(t) + A1 w(t - r) + B_v v(t)``,
    each step two ``(N w)^2`` products, so it also guards the block
    builder behind the certificate.  It has no divergence guard: use it on
    runs that stay finite.
    """
    nfoll = scenario.n_agents
    n, m, p = scenario.plant.n, scenario.plant.m, scenario.plant.p
    nz = scenario.im.dim
    r, r_com = scenario.delays.r, scenario.delays.r_com
    T = scenario.horizon

    _, _, c, e_in = scenario.agent_stacks()
    h, _ = h_matrix(scenario.graph)
    a0, b_u, u_map, drive = network_blocks(scenario.plant, h, scenario.im, gains, scenario.mode, scenario.agent_matrices())
    a1 = b_u @ u_map
    c_blk = block_diag(c)
    f_bar = kron(h @ np.ones((nfoll, 1)), scenario.exo.f)
    b_in = drive @ f_bar
    b_in[: nfoll * n] = e_in.reshape(nfoll * n, -1)

    v = scenario.exo.trajectory(T)
    states = scenario.initial_states()[: 2 if scenario.mode == "state" else 3]
    whist = np.empty((r + T + 1, b_in.shape[0]))
    whist[: r + 1] = np.concatenate([s.reshape(-1) for s in states])
    np.matmul(v, b_in.T, out=whist[r + 1 :])
    for k in range(r, r + T):
        whist[k + 1] += a0 @ whist[k]
        whist[k + 1] += a1 @ whist[k - r]

    rows = whist[r : r + T]
    x = rows[:, : nfoll * n]
    y = (x @ c_blk.T).reshape(T, nfoll, p)
    return SimulationTrace(
        t=np.arange(T, dtype=int),
        v=v,
        x=x.reshape(T, nfoll, n),
        z=rows[:, nfoll * n : nfoll * (n + nz)].reshape(T, nfoll, nz),
        u=(whist[r - r_com : r - r_com + T] @ u_map.T).reshape(T, nfoll, m),
        y=y,
        e=y + (v @ scenario.exo.f.T)[:, None],
        e_v=(x @ (kron(h, np.eye(p)) @ c_blk).T + v @ f_bar.T).reshape(T, nfoll, p),
        xi=rows[:, nfoll * (n + nz) :].reshape(T, nfoll, n) if scenario.mode == "output" else None,
    )
