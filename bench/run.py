"""Benchmark of coopreg: design, certification and simulation workloads.

Run one workload from the root of a checkout::

    python3 bench/run.py --workload sim_tree64 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it sets the workload up several times and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. ``--workload all`` runs every
workload, each in a process of its own. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up runs at least SETUP_REPS times, and more, up to SETUP_MAX_REPS,
# until it has taken SETUP_MIN_S, so that a cheap set-up has a steady median.
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 3.0, 12
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
AGENTWISE = ("simulation.simulate_state_feedback", "simulation.simulate_output_feedback")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import coopreg; print(time.perf_counter() - t)"
)

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("design_s", "s", "lower"),
    ("sim_agent_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def _calls(span, metric=None):
    return (metric or span) + ".calls", "count", "lower", lambda c: c.total(lambda p: p.calls(span))


def _self_s(*spans, metric=None):
    return (metric or spans[0]) + ".self_s", "s", "lower", lambda c: c.total(lambda p: p.self_s(*spans))


def _note(probe, key, metric, unit, how="sum", better="lower"):
    return metric, unit, better, lambda c: c.note(probe, key, how)


DARE, CERT = "synthesis.solve_parametric_dare", "synthesis.certify_closed_loop"
ORACLE, TO_CSV, LOAD_CSV = "simulation.simulate_compact_oracle", "simulation.SimulationTrace.to_csv", "simulation.load_trace_csv"

# Per-layer metrics of the traced run. Each covers one traced set-up plus
# the median traced pass; the README maps each to the end-to-end metric it
# should move.
PER_LAYER = [
    _calls(DARE),
    _self_s(DARE),
    _note(DARE, "residual", DARE + ".residual_max", "1", "max"),
    _calls(CERT),
    _self_s(CERT),
    _note(CERT, "lift_dim", CERT + ".lift_dim_max", "rows", "max"),
    _note(CERT, "radius_err", CERT + ".radius_err_max", "1", "max"),
    _note(CERT, "false_reject", CERT + ".false_rejects", "count"),
    _self_s("synthesis.closed_loop_blocks"),
    _self_s("synthesis.delay_lift"),
    _self_s("matrixops.kron"),
    _self_s("matrixops.spectral_radius"),
    _self_s("matrixops.eigenvalues"),
    ("synthesis.auto_tune_gamma.certify_per_design", "ratio", "lower", lambda c: c.certify_per_design()),
    _calls("graphs.Digraph.in_edges"),
    _self_s("graphs.Digraph.in_edges"),
    _calls("simulation.edgewise_virtual_errors"),
    _self_s("simulation.edgewise_virtual_errors"),
    ("simulation.agentwise.calls", "count", "lower", lambda c: c.total(lambda p: p.calls(*AGENTWISE))),
    _self_s(*AGENTWISE, metric="simulation.agentwise"),
    ("simulation.agentwise.agent_steps", "count", "higher", lambda c: sum(c.note(n, "agent_steps") for n in AGENTWISE)),
    _self_s(ORACLE),
    _note(ORACLE, "agent_steps", ORACLE + ".agent_steps", "count", better="higher"),
    _self_s(TO_CSV, metric="simulation.to_csv"),
    _note(TO_CSV, "bytes", "simulation.to_csv.bytes", "bytes"),
    _self_s(LOAD_CSV),
    _note(LOAD_CSV, "bytes", LOAD_CSV + ".bytes", "bytes"),
    _self_s("synthesis.check_assumptions"),
    _calls("graphs.h_matrix"),
    _self_s("graphs.h_matrix"),
    _self_s("config.load_config"),
    _self_s("config.save_gains"),
    _self_s("config.load_gains"),
    *[_self_s(f"cli.cmd_{sub}", metric=f"cli.{sub}") for sub in ("check", "synthesize", "sweep", "simulate", "selftest")],
    _self_s("internal_model.build_internal_model"),
    ("trace.overhead_s", "s", "lower", lambda c: c.overhead_s),
]


def limit_blas_threads():
    """Run BLAS on one thread.

    On a 2-CPU machine, two OpenBLAS threads made a dense eigensolve slower
    (0.97 s against 0.75 s at n = 1000) and slowed plain interpreter work by
    a third, because the idle thread spins; one thread is faster and steadier.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def git_commit():
    """Commit of the checkout, or None where the checkout is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref[5:])), None)


def environment(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pyyaml": metadata.version("PyYAML"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "git_commit": git_commit(),
    }


def import_seconds():
    """Time ``import coopreg`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout.split()[-1])


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op}: {'; '.join(problems)}")


class Runner:
    """Sets one workload up, runs its passes and checks every operation."""

    def __init__(self, name, seed, tiny):
        # Imported here, not at the top, so that numpy loads only after
        # main() has fixed the BLAS thread count.
        import checks
        import instrument
        import speed
        import workloads

        self.checks, self.instrument = checks, instrument
        self.speed = speed.Speed()
        self.setup_fn, self.ops_fn, self.dense_setup = workloads.WORKLOADS[name]
        self.seed, self.tiny = seed, tiny
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.inst = instrument.Instrument()
        self.ledger = Ledger()
        self.notes = []  # (probe name, run id, notes) of every checked capture

    def _check(self, label, caps, extra=()):
        found = list(extra)
        for cap in caps:
            try:
                found += self.checks.check_capture(cap)
            except Exception as ex:
                found.append(f"check of {cap.name} raised {ex!r}")
            self.notes.append((cap.name, cap.run, cap.notes))
        self.ledger.record(label, found)

    def setup(self, traced):
        """Set the workload up once; returns its state and wall seconds."""
        self.inst.op, self.inst.captures = -1, []
        with self.inst.installed(traced), self.inst.span("setup"):
            t0 = perf_counter()
            state = self.setup_fn(self.seed, self.work, self.tiny)
            seconds = perf_counter() - t0
        self._check("setup", self.inst.captures)
        return state, seconds

    def one_pass(self, state, traced):
        """Run every operation once, then check each; returns the pass timings."""
        ops = self.ops_fn(state)
        inst = self.inst
        inst.captures, done, errors, scale, wall = [], {}, {}, [], []
        with inst.installed(traced), inst.span("pass"):
            before = self.speed.sample()
            for i, op in enumerate(ops):
                inst.op = i
                t = perf_counter()
                with inst.span("op." + op.name):
                    try:
                        done[op.name] = op.run(done)
                    except Exception as ex:
                        errors[op.name] = f"raised {ex!r}"
                wall.append(perf_counter() - t)
                after = self.speed.sample()
                scale.append(self.speed.factor(before, after, op.dense))
                before = after
        caps = inst.captures
        for i, op in enumerate(ops):
            mine = [c for c in caps if c.op == i]
            if op.name in errors:
                self._check(op.name, mine, [errors[op.name]])
                continue
            try:
                extra = op.check(done[op.name], mine, done) if op.check else []
            except Exception as ex:
                extra = [f"check raised {ex!r}"]
            self._check(op.name, mine, extra)
        sims = [c for c in caps if c.name in AGENTWISE]
        return {
            "run_s": sum(w * f for w, f in zip(wall, scale)),
            "design_s": sum(w * f for w, f, op in zip(wall, scale, ops) if op.design),
            "sim_s": sum(c.seconds * scale[c.op] for c in sims),
            "agent_steps": sum(c.notes.get("agent_steps", 0) for c in sims),
            "run_wall_s": sum(wall),
            "op_wall_s": wall,
            "op_scale": scale,
        }

    def untraced(self, seconds):
        setups, setup_wall = [], []
        while len(setups) < SETUP_REPS or (sum(setup_wall) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
            before = self.speed.sample()
            imp = import_seconds()
            mid = self.speed.sample()
            state, t = self.setup(False)
            after = self.speed.sample()
            setups.append(imp * self.speed.factor(before, mid) + t * self.speed.factor(mid, after, self.dense_setup))
            setup_wall.append(imp + t)
        passes, last = [], 0.0
        t0 = perf_counter()
        while not passes or perf_counter() - t0 + last <= seconds:
            self.inst.run += 1
            t = perf_counter()
            passes.append(self.one_pass(state, False))
            last = perf_counter() - t
            if len(passes) == 1:
                # Later passes add a few MB each to the peak, so the peak
                # over the whole run would follow how many passes fit.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples = {k: [p[k] for p in passes] for k in passes[0]}
        samples["setup_s"], samples["setup_wall_s"] = setups, setup_wall
        samples["speed_s"] = self.speed.samples
        metrics = {k: statistics.median(samples[k]) for k in ("run_s", "design_s", "setup_s")}
        # A rate over the whole run: the agentwise calls of one pass can be
        # as short as 0.4 s, too short for a per-pass median to be steady.
        sim_s = sum(samples["sim_s"])
        metrics["sim_agent_steps_per_s"] = sum(samples["agent_steps"]) / sim_s if sim_s else 0.0
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        return metrics, samples, END_TO_END

    def traced(self, seconds):
        self.inst.run = 0
        state, _ = self.setup(True)
        plain, traced_runs, traced_s, last = [], [], [], 0.0
        t0 = perf_counter()
        while not traced_runs or perf_counter() - t0 + last <= seconds:
            t = perf_counter()
            self.inst.run += 1
            plain.append(self.one_pass(state, False)["run_s"])
            self.inst.run += 1
            traced_runs.append(self.inst.run)
            traced_s.append(self.one_pass(state, True)["run_s"])
            last = perf_counter() - t
        ctx = LayerContext(self, traced_runs, statistics.median(traced_s) - statistics.median(plain))
        metrics = {name: fn(ctx) for name, _, _, fn in PER_LAYER}
        self.inst.write_spans(self.work / "spans.npz")
        samples = {"run_s_untraced": plain, "run_s_traced": traced_s, "speed_s": self.speed.samples}
        return metrics, samples, [(n, u, b) for n, u, b, _ in PER_LAYER]


class LayerContext:
    """Per-layer values: one traced set-up (run 0) plus the median traced pass."""

    def __init__(self, runner, traced_runs, overhead_s):
        spans = runner.inst.spans()
        profile = runner.instrument.Profile
        self.setup = profile(runner.inst, spans, [0])
        self.passes = [profile(runner.inst, spans, [r]) for r in traced_runs]
        self.all = profile(runner.inst, spans, [0, *traced_runs])
        self.runs = [0, *traced_runs]
        self.notes = runner.notes
        self.overhead_s = overhead_s

    def total(self, f):
        return f(self.setup) + statistics.median(f(p) for p in self.passes)

    def note(self, probe, key, how="sum"):
        def values(run):
            return [n[key] for name, r, n in self.notes if name == probe and r == run and key in n]

        if how == "max":
            return max((v for r in self.runs for v in values(r)), default=0.0)
        return sum(values(0)) + statistics.median(sum(values(r)) for r in self.runs[1:])

    def certify_per_design(self):
        tunes = self.all.calls("synthesis.auto_tune_gamma")
        return self.all.calls_under(CERT, "synthesis.auto_tune_gamma") / tunes if tunes else 0.0


def run_workload(name, seed, seconds, trace, tiny=False):
    """Measure one workload; returns the result object and a detail record."""
    runner = Runner(name, seed, tiny)
    metrics, samples, table = (runner.traced if trace else runner.untraced)(seconds)
    led = runner.ledger
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u, _ in table},
    }
    detail = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "samples": samples,
        "problems": led.problems,
        "absent": sorted(set(runner.inst.absent) | runner.inst.missing),
    }
    return result, detail


def run_all(args, names):
    """Run every workload in its own process; print each metric by name and unit."""
    ok = True
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print(f"{name}: exit {out.returncode}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_blas_threads()
    if not (SRC / "coopreg" / "__init__.py").is_file():
        print(f"error: no coopreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coopreg

    if Path(coopreg.__file__).resolve().parent != SRC / "coopreg":
        print(f"error: coopreg imported from {coopreg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    (WORK / args.workload / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail["environment"]))
    for problem in detail["problems"]:
        print("problem:", problem)
    for metric, v in result["metrics"].items():
        print(f"{metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
