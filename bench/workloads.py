"""The three benchmark workloads.

Each workload has a set-up, timed as ``setup_s``, and a fixed list of
operations that makes one timed pass. An operation returns a result that
its check inspects after the pass, outside the timed region; probed calls
made inside the operation are checked as well (see ``checks.check_capture``).

* ``bench4_session`` drives the bundled four-follower benchmark through
  ``coopreg.cli.main`` the way a designer would. Small N and small gamma
  make the fixed-point Riccati solve of the sweep dominate.
* ``tune_chain64`` tunes gamma on a 64-follower chain, whose coupling
  matrix has one defective eigenvalue, so the dense certificate
  eigensolve dominates and its radius drifts from the exact one.
* ``sim_tree64`` simulates a random 64-follower tree with 64 distinct
  coupling eigenvalues, so agentwise stepping, the oracle and CSV I/O
  dominate.

Every graph and initial-state seed derives from the workload seed.
"""

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import checks
import coopreg
import coopreg.cli
import coopreg.reference

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "benchmark_scenario.yaml"
GAMMA0 = 0.5


@dataclass
class Op:
    """One timed operation: ``run(done)`` returns its result, ``check`` its problems.

    ``dense`` marks an operation whose time goes mostly into eigensolves of
    lifts too large for the core's own caches (see ``speed.DENSE_EXPONENT``).
    """

    name: str
    run: object
    check: object = None
    design: bool = False
    dense: bool = False


def derived_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def network_scenario(g, mode, horizon, seed):
    """The bundled agent, exosystem and delays on graph ``g``, followers nominal."""
    ref = coopreg.reference
    plant = ref.reference_plant()
    return coopreg.simulation.Scenario(
        plant=coopreg.synthesis.NominalPlant(plant.a, plant.b, plant.c, e=[[0.0, 0.0], [0.0, 1.0]]),
        exo=ref.reference_exosystem(),
        graph=g,
        delays=ref.reference_delays(),
        im=ref.reference_internal_model(),
        mode=mode,
        horizon=horizon,
        seed=seed,
    )


def tune(sc):
    return coopreg.synthesis.auto_tune_gamma(sc.plant, sc.graph, sc.im, sc.delays, GAMMA0, mode=sc.mode)


def simulate(sc, gains, law="transformed"):
    sim = coopreg.simulation
    run = sim.simulate_state_feedback if sc.mode == "state" else sim.simulate_output_feedback
    return run(sc, gains, law=law)


def oracle_problems(trace, oracle):
    dev = checks.deviation(trace, oracle)
    return [] if dev <= checks.ORACLE_TOL else [f"agentwise trace deviates from the oracle by {dev:.3e}"]


def law_problems(sc, gains, trace):
    res = checks.delayed_law_residual(sc, gains, trace)
    return [] if res <= checks.LAW_TOL else [f"delayed-law recursion residual {res:.3e}"]


def finite_problems(trace, horizon):
    ok = trace.horizon == horizon and all(np.all(np.isfinite(getattr(trace, n))) for n in ("x", "z", "u", "e"))
    return [] if ok else ["trace has the wrong length or non-finite values"]


def readback_problems(trace, loaded):
    return [] if checks.traces_equal(trace, loaded) else ["trace read back from CSV differs from the trace written"]


# --- bench4_session -------------------------------------------------------

SWEEP = [0.32 / 2**k for k in range(9)]  # 0.32 down to 1.25e-3
STABLE_LINE = "delay-lifted closed loop: stable (spectral radius 0.9516, delay 2)"


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = coopreg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect(result, code, *lines):
    """Problems with an exit code or with pinned lines missing from the output."""
    got, out, err = result
    found = [] if got == code else [f"exit code {got}, expected {code}: {err.strip()}"]
    return found + [f"missing output line {line!r}" for line in lines if line not in out]


def _sweep_problems(result, grid):
    found = expect(result, 0, "sweep table written to")
    rows = [line.split() for line in result[1].splitlines()[1 : 1 + len(grid)]]
    stable = [row[-1] for row in rows]
    if stable != ["no"] + ["yes"] * (len(grid) - 1):
        found.append(f"sweep stable column {stable}")
    return found


def _selftest_problems(result):
    code, out, _ = result
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    if code == 0 and "6/6 stages passed" in out:
        return []
    if code == 1 and "5/6 stages passed" in out and len(fails) == 1 and fails[0].startswith(
        "FAIL  feedback gain reproduction"
    ):
        return []
    return [f"selftest exit {code}: {fails}"]


def _simulate_problems(result, caps, oracle=True, law=False):
    found = expect(result, 0, *(["trace written to"] if oracle else []))
    out = result[1]
    if out.count("max |e| over final") != 4:
        found.append("expected four per-agent error lines")
    sims = [c for c in caps if c.name.startswith("simulation.simulate_") and "oracle" not in c.name]
    if len(sims) != 1:
        return found + [f"expected one agentwise run, saw {len(sims)}"]
    cap = sims[0]
    if oracle:
        marker = "max deviation from compact-form oracle = "
        devs = [float(line.split("=")[1]) for line in out.splitlines() if line.startswith(marker)]
        if not devs or not devs[0] <= checks.ORACLE_TOL:
            found.append(f"oracle deviation {devs}")
        path = out.split("trace written to ")[-1].strip()
        found += readback_problems(cap.result, coopreg.simulation.load_trace_csv(path))
    if law:
        found += law_problems(cap.args["scenario"], cap.args["gains"], cap.result)
    return found


def bench4_setup(seed, work, tiny):
    data = yaml.safe_load(DEMO.read_text())
    data["simulation"]["seed"] = derived_seeds(seed, 1)[0]
    if tiny:
        data["simulation"]["horizon"] = 50
    paths = {"work": work, "grid": SWEEP[:3] if tiny else SWEEP}
    for mode in ("state", "output"):
        data["mode"] = mode
        paths[mode] = work / f"scenario_{mode}.yaml"
        paths[mode].write_text(yaml.safe_dump(data, sort_keys=False))
    return paths


def bench4_ops(st):
    w, cfg_s, cfg_o, grid = st["work"], str(st["state"]), str(st["output"]), st["grid"]
    gs, go = str(w / "gains_state.yaml"), str(w / "gains_output.yaml")
    gammas = ",".join(repr(g) for g in grid)

    def cli(*argv):
        return lambda done: call_cli(list(argv))

    return [
        Op("check", cli("check", cfg_s), lambda r, c, d: expect(r, 0, "all assumptions satisfied")
           + ([] if r[1].count("PASS") == 6 else ["expected six PASS lines"])),
        Op("synthesize_state", cli("synthesize", cfg_s, "--out", gs),
           lambda r, c, d: expect(r, 0, "gamma = 0.0800", STABLE_LINE, "gains written to"), design=True),
        Op("synthesize_output", cli("synthesize", cfg_o, "--out", go),
           lambda r, c, d: expect(r, 0, "gamma_l = 0.1800", STABLE_LINE, "gains written to"), design=True),
        Op("sweep", cli("sweep", cfg_s, "--gammas", gammas, "--out", str(w / "sweep.csv")),
           lambda r, c, d: _sweep_problems(r, grid), design=True),
        Op("auto_tune", cli("synthesize", cfg_s, "--auto-tune"),
           lambda r, c, d: expect(r, 0, "gamma = 0.0800", STABLE_LINE), design=True),
        Op("simulate_state", cli("simulate", cfg_s, "--gains", gs, "--oracle", "--trace", str(w / "trace_state.csv")),
           lambda r, c, d: _simulate_problems(r, c)),
        Op("simulate_output", cli("simulate", cfg_o, "--gains", go, "--oracle", "--trace", str(w / "trace_output.csv")),
           lambda r, c, d: _simulate_problems(r, c)),
        Op("simulate_delayed", cli("simulate", cfg_s, "--gains", gs, "--law", "delayed"),
           lambda r, c, d: _simulate_problems(r, c, oracle=False, law=True)),
        Op("selftest", cli("selftest"), lambda r, c, d: _selftest_problems(r)),
    ]


# --- tune_chain64 ---------------------------------------------------------


CHAIN_SIM_RUNS = 3  # initial states simulated per mode and pass


def chain_setup(seed, work, tiny):
    n = 4 if tiny else 64
    g = coopreg.graphs.Digraph(n, tuple((i, i + 1, 1.0) for i in range(n)))
    horizon = 20 if tiny else 100
    inits = derived_seeds(seed, CHAIN_SIM_RUNS)
    return {mode: [network_scenario(g, mode, horizon, init) for init in inits] for mode in ("state", "output")}


def chain_ops(st):
    def simulate_op(mode, k):
        sc = st[mode][k]
        return Op(
            f"simulate_{mode}_{k}",
            lambda d: simulate(sc, d[f"tune_{mode}"]),
            lambda r, c, d: oracle_problems(r, coopreg.simulation.simulate_compact_oracle(sc, d[f"tune_{mode}"])),
        )

    ops = [Op(f"tune_{mode}", lambda d, m=mode: tune(st[m][0]), design=True, dense=True) for mode in ("state", "output")]
    return ops + [simulate_op(mode, k) for mode in ("state", "output") for k in range(CHAIN_SIM_RUNS)]


# --- sim_tree64 -----------------------------------------------------------


def random_tree(n, seed):
    """Each follower's parent is uniform over earlier nodes (leader included); weights U[1, 2]."""
    rng = np.random.default_rng(seed)
    edges = tuple((int(rng.integers(0, i)), i, float(rng.uniform(1.0, 2.0))) for i in range(1, n + 1))
    return coopreg.graphs.Digraph(n, edges)


def tree_setup(seed, work, tiny):
    graph_seed, init = derived_seeds(seed, 2)
    g = random_tree(4 if tiny else 64, graph_seed)
    st = {"work": work}
    for mode in ("state", "output"):
        st[mode] = network_scenario(g, mode, 20 if tiny else 500, init)
        st[f"gains_{mode}"] = tune(st[mode])
    return st


def tree_ops(st):
    sim = coopreg.simulation

    def certify(mode):
        sc = st[mode]
        return lambda d: coopreg.synthesis.certify_closed_loop(
            sc.plant, sc.graph, sc.im, st[f"gains_{mode}"], sc.delays, mode
        )

    def csv_roundtrip(mode):
        path = st["work"] / f"trace_{mode}.csv"

        def run(d):
            d[f"sim_{mode}"].to_csv(path)
            return sim.load_trace_csv(path)

        return run

    ops = [Op(f"certify_{m}", certify(m), lambda r, c, d: [] if r[0] else ["set-up design no longer certifies"],
              design=True, dense=True) for m in ("state", "output")]
    for mode in ("state", "output"):
        ops += [
            Op(f"sim_{mode}", lambda d, m=mode: simulate(st[m], st[f"gains_{m}"]),
               lambda r, c, d, m=mode: oracle_problems(r, d[f"oracle_{m}"])),
            Op(f"oracle_{mode}", lambda d, m=mode: sim.simulate_compact_oracle(st[m], st[f"gains_{m}"]),
               lambda r, c, d, m=mode: finite_problems(r, st[m].horizon)),
            Op(f"csv_{mode}", csv_roundtrip(mode), lambda r, c, d, m=mode: readback_problems(d[f"sim_{m}"], r)),
        ]
    ops.append(Op("sim_output_delayed", lambda d: simulate(st["output"], st["gains_output"], law="delayed"),
                  lambda r, c, d: law_problems(st["output"], st["gains_output"], r)))
    return ops


# Workload name: (set-up, operations, whether set-up is dense like an ``Op``).
WORKLOADS = {
    "bench4_session": (bench4_setup, bench4_ops, False),
    "tune_chain64": (chain_setup, chain_ops, False),
    "sim_tree64": (tree_setup, tree_ops, True),
}
