"""Shared fixtures and randomized-case generators for the test suite.

All generators take an explicit ``numpy.random.Generator`` so every
test controls its own seed; nothing here reads global random state.
"""

import numpy as np
import pytest
import scipy.linalg as sla

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
from coopreg import reference as ref
from coopreg.matrixops import spectral_radius


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
