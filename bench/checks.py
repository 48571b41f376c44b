"""Correctness checks on the program's outputs, run outside the timed region.

Each check recomputes what it checks from the defining equations, not
through the program's own routines:

* the parametric Riccati residual of every solve;
* the certificate radius, slice by slice over the exact coupling
  eigenvalues, for every design the program calls stable;
* agentwise traces against the compact oracle, entry by entry;
* a trace read back from CSV against the trace that was written;
* the recursion of the delayed (literal) control law on its own trace.
"""

import os

import numpy as np

RICCATI_TOL = 1e-10
ORACLE_TOL = 1e-9
LAW_TOL = 1e-9
SIGNALS = ("v", "x", "z", "xi", "u", "y", "e", "e_v")


def riccati_residual(a, b, gamma, p):
    """Parametric Riccati residual ``||.||_F / max(1, ||P||_F)``."""
    a, b, p = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (a, b, p))
    r = np.eye(b.shape[1]) + b.T @ p @ b
    res = a.T @ p @ a - p - a.T @ p @ b @ np.linalg.solve(r, b.T @ p @ a) + gamma * p
    return float(np.linalg.norm(res, "fro") / max(1.0, np.linalg.norm(p, "fro")))


def coupling_matrix(g):
    """Follower block ``H`` of the Laplacian, assembled from the edge list."""
    h = np.zeros((g.n_followers, g.n_followers))
    for src, dst, w in g.edges:
        h[dst - 1, dst - 1] += w
        if src:
            h[dst - 1, src - 1] -= w
    return h


def coupling_eigenvalues(g):
    """Distinct eigenvalues of ``H``, exactly, for a graph whose edges run forward.

    Every benchmark graph only has edges from a lower node number to a higher
    one, so ``H`` is lower triangular and its eigenvalues are its diagonal.
    """
    if any(0 < src > dst for src, dst, _ in g.edges):
        raise ValueError("exact coupling eigenvalues need edges from lower to higher nodes")
    return np.unique(np.diag(coupling_matrix(g)))


def _slice_lift(plant, im, gains, r, mode, lam):
    a, b, c = plant.a, plant.b, plant.c
    n, nz = plant.n, im.dim
    g1, g2c = im.g1, im.g2 @ c
    if mode == "state":
        a0 = np.block([[a, np.zeros((n, nz))], [lam * g2c, g1]])
        a1 = np.block([[lam * b @ gains.k_x, b @ gains.k_z], [np.zeros((nz, n + nz))]])
    else:
        lc = gains.l_obs @ c
        bk1, bk2 = b @ gains.k_z, lam * b @ gains.k_x
        zn, znz = np.zeros((n, n)), np.zeros((n, nz))
        a0 = np.block([[a, znz, zn], [lam * g2c, g1, znz.T], [lam * lc, znz, a - lam * lc]])
        a1 = np.block([[zn, bk1, bk2], [np.zeros((nz, 2 * n + nz))], [zn, bk1, bk2]])
    w = a0.shape[0]
    lift = np.zeros(((r + 1) * w, (r + 1) * w))
    lift[:w, :w] = a0
    lift[:w, r * w :] += a1
    lift[w:, : r * w] = np.eye(r * w)
    return lift


def slice_radius(plant, g, im, gains, delays, mode):
    """Exact lifted closed-loop radius: the largest over one-eigenvalue slices."""
    return max(
        float(np.max(np.abs(np.linalg.eigvals(_slice_lift(plant, im, gains, delays.r, mode, lam)))))
        for lam in coupling_eigenvalues(g)
    )


def lift_dim(plant, g, im, delays, mode):
    """Width of the dense lifted matrix the certificate builds."""
    width = plant.n + im.dim + (plant.n if mode == "output" else 0)
    return (delays.r + 1) * g.n_followers * width


def deviation(a, b):
    """Worst ``|a - b| / max(1, |a|, |b|)`` over the signals both traces carry."""
    worst = 0.0
    for name in SIGNALS:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None or x.size == 0:
            continue
        if x.shape != y.shape:
            return float("inf")
        worst = max(worst, float(np.max(np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y))))))
    return worst


def traces_equal(a, b):
    """True when every recorded array of ``b`` equals that of ``a`` exactly."""
    for name in ("t",) + SIGNALS:
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
            return False
    return True


def _lag(arr, d):
    """``arr`` delayed by ``d`` steps, held at its first value before ``t = 0``."""
    return arr[np.maximum(np.arange(arr.shape[0]) - d, 0)]


def delayed_law_residual(scenario, gains, trace):
    """Largest relative residual of the delayed-law recursion over a trace.

    The delayed law feeds the controller the communication-delayed virtual
    error and, in state mode, the communication-delayed neighbour states;
    the plant receives the input delayed by ``r_con`` and, in output mode,
    the observer replays the input delayed by ``r_con + r_com``.
    """
    mats = scenario.agent_matrices()
    a_i, b_i, c_i, e_i = (np.stack([m[k] for m in mats]) for k in range(4))
    h = coupling_matrix(scenario.graph)
    r_con, r_com = scenario.delays.r_con, scenario.delays.r_com
    g1, g2, f = scenario.im.g1, scenario.im.g2, scenario.exo.f
    x, z, u, e, ev, v = trace.x, trace.z, trace.u, trace.e, trace.e_v, trace.v

    def net(s):
        return np.einsum("ij,tjk->tik", h, s)

    def agent(m, s):
        return np.einsum("nij,tnj->tni", m, s)

    def local(m, s):
        return np.einsum("ij,tnj->tni", m, s)

    ev_late = _lag(ev, r_com)
    pairs = [
        (v[1:], v[:-1] @ scenario.exo.s.T),
        (e, agent(c_i, x) + (v @ f.T)[:, None, :]),
        (ev, net(e)),
        (x[1:], (agent(a_i, x) + agent(b_i, _lag(u, r_con)) + np.einsum("nij,tj->tni", e_i, v))[:-1]),
        (z[1:], (local(g1, z) + local(g2, ev_late))[:-1]),
    ]
    if trace.xi is None:
        pairs.append((u, local(gains.k_x, net(_lag(x, r_com))) + local(gains.k_z, z)))
    else:
        xi, lc = trace.xi, gains.l_obs @ scenario.plant.c
        pairs.append((u, local(gains.k_z, z) + local(gains.k_x, net(xi))))
        xi_next = (
            local(scenario.plant.a, xi)
            + local(scenario.plant.b, _lag(u, r_con + r_com))
            - local(lc, net(xi))
            + local(gains.l_obs, ev_late)
        )
        pairs.append((xi[1:], xi_next[:-1]))
    worst = 0.0
    for lhs, rhs in pairs:
        if lhs.size:
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / max(1.0, float(np.max(np.abs(lhs))))))
    return worst


def check_capture(cap):
    """Record what one probed call measured in ``cap.notes``; return its problems."""
    a, name = cap.args, cap.name.rsplit(".", 1)[-1]
    if name == "solve_parametric_dare":
        res = cap.notes["residual"] = riccati_residual(a["a"], a["b"], a["gamma"], cap.result)
        return [] if res <= RICCATI_TOL else [f"Riccati residual {res:.3e} at gamma={a['gamma']}"]
    if name in ("certify_closed_loop", "auto_tune_gamma"):
        design = (a["plant"], a["g"], a["im"])
        gains = a["gains"] if name == "certify_closed_loop" else cap.result
        claimed = cap.result[0] if name == "certify_closed_loop" else True
        exact = slice_radius(*design, gains, a["delays"], a["mode"])
        if name == "certify_closed_loop":
            if claimed:
                cap.notes["radius_err"] = abs(cap.result[1] - exact)
            cap.notes["false_reject"] = int(not claimed and exact < 1.0)
            cap.notes["lift_dim"] = lift_dim(*design, a["delays"], a["mode"])
        if claimed and not exact < 1.0:
            return [f"{name} accepted a design whose exact radius is {exact:.6f}"]
    elif name in ("to_csv", "load_trace_csv"):
        cap.notes["bytes"] = os.path.getsize(a["path"])
    elif name.startswith("simulate_"):
        sc = a["scenario"]
        cap.notes["agent_steps"] = sc.n_agents * sc.horizon
    return []
