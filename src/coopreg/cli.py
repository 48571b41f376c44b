"""Command-line front end.

Subcommands
-----------
``check``       evaluate the structural assumptions of a scenario file
``synthesize``  compute controller gains and their stability certificate
``simulate``    run a closed-loop simulation, write a CSV trace
``sweep``       tabulate gain norm and closed-loop radius over gamma values
``selftest``    re-derive the bundled benchmark and verify it end to end

Exit codes: 0 on success, 1 when an operation ran but failed (assumption
violation, no stabilizing gain, divergence, selftest failure), 2 for
usage or configuration errors.  Matrices are displayed to 4 decimals;
files always carry full precision.
"""

import argparse
import sys

import numpy as np

from . import reference
from .config import load_config, load_gains, save_gains
from .errors import ConfigurationError, CoopregError, DimensionError
from .simulation import simulate_compact_oracle, simulate_output_feedback, simulate_state_feedback
from .synthesis import (
    auto_tune_gamma,
    certify_closed_loop,
    check_assumptions,
    design_search,
    synthesize_and_certify,
    synthesize_gains,
)

_USAGE_ERRORS = (ConfigurationError, DimensionError, FileNotFoundError)


def _print_matrix(label, arr):
    text = np.array2string(np.asarray(arr, dtype=float), precision=4, floatmode="fixed")
    if "\n" in text:
        pad = " " * (len(label) + 3)
        text = text.replace("\n", "\n" + pad)
    print(f"{label} = {text}")


def cmd_check(args):
    cfg = load_config(args.config)
    sc = cfg.scenario
    report = check_assumptions(sc.plant, sc.exo, sc.graph)
    for line in report.lines():
        print(line)
    if report.all_ok:
        print("all assumptions satisfied")
        return 0
    failed = sum(1 for _, ok, _ in report if not ok)
    print(f"{failed} assumption(s) violated")
    return 1


def _problem(cfg):
    """The configured design problem: ``(plant, g, im, delays)`` and the synthesis settings."""
    sc, st = cfg.scenario, cfg.synthesis
    settings = dict(nu=st.nu, mode=sc.mode, gamma_l=st.gamma_l, nu_l=st.nu_l, observer_r=st.observer_r)
    return (sc.plant, sc.graph, sc.im, sc.delays), settings


def _file_gamma(cfg, purpose):
    """The file's ``gamma``; ``purpose`` completes the error raised when it is missing."""
    if cfg.synthesis.gamma is None:
        raise ConfigurationError(f"synthesis.gamma: required {purpose}")
    return cfg.synthesis.gamma


def cmd_synthesize(args):
    cfg = load_config(args.config)
    sc = cfg.scenario
    problem, settings = _problem(cfg)
    if args.auto_tune:
        gamma0 = _file_gamma(cfg, "as the auto-tune starting point")
        gains = auto_tune_gamma(*problem, gamma0, **settings)
        stable, rho = certify_closed_loop(sc.plant, sc.graph, sc.im, gains, sc.delays, sc.mode)
    else:
        gains, stable, rho = synthesize_and_certify(*problem, _file_gamma(cfg, "for gain synthesis"), **settings)

    print(f"mode: {sc.mode}   gamma = {gains.gamma:.4f}   nu = {gains.nu:.4f}")
    _print_matrix("K_x", gains.k_x)
    _print_matrix("K_z", gains.k_z)
    if gains.l_obs is not None:
        print(f"gamma_l = {gains.gamma_l:.4f}   nu_l = {gains.nu_l:.4f}")
        _print_matrix("L", gains.l_obs)
    verdict = "stable" if stable else "NOT stable"
    print(f"delay-lifted closed loop: {verdict} (spectral radius {rho:.4f}, delay {sc.delays.r})")
    if args.out:
        cert = {"mode": sc.mode, "stable": stable, "spectral_radius": rho, "delay": sc.delays.r}
        save_gains(gains, args.out, certificate=cert)
        print(f"gains written to {args.out}")
    if not stable and not args.allow_unstable:
        print("refusing success: certificate failed (use --allow-unstable to keep the gains)")
        return 1
    return 0


def cmd_simulate(args):
    if args.oracle and args.law != "transformed":
        raise ConfigurationError("--oracle compares against the transformed law; rerun with --law transformed")
    cfg = load_config(args.config)
    sc = cfg.scenario
    if args.gains:
        gains, _ = load_gains(args.gains)
    else:
        problem, settings = _problem(cfg)
        gains = synthesize_gains(*problem, _file_gamma(cfg, "for gain synthesis"), **settings)
    run = simulate_state_feedback if sc.mode == "state" else simulate_output_feedback
    trace = run(sc, gains, law=args.law)

    tail = min(200, sc.horizon)
    per_agent = trace.tail_max_error_per_agent(tail)
    print(f"mode: {sc.mode}   law: {args.law}   horizon: {sc.horizon}   seed: {sc.seed}")
    for i, val in enumerate(per_agent, start=1):
        print(f"agent {i}: max |e| over final {tail} steps = {val:.4e}")
    if args.oracle:
        oracle = simulate_compact_oracle(sc, gains)
        dev = trace.max_relative_deviation(oracle)
        print(f"max deviation from compact-form oracle = {dev:.4e}")
    if args.trace:
        trace.to_csv(args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _gamma_list(text):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty gamma list")
    for v in vals:
        if not (0.0 < v < 1.0):
            raise argparse.ArgumentTypeError(f"gamma values must lie in (0, 1), got {v}")
    return vals


def cmd_sweep(args):
    problem, settings = _problem(load_config(args.config))
    rows = []
    print(f"{'gamma':>10}  {'||K||_F':>10}  {'radius':>10}  stable")
    gamma_l = settings.pop("gamma_l")
    candidate = design_search(*problem, **settings)
    for gamma in args.gammas:
        gains, stable, rho = candidate(gamma, gamma_l)
        knorm = float(np.linalg.norm(np.hstack([gains.k_x, gains.k_z])))
        rows.append((gamma, knorm, rho, stable))
        print(f"{gamma:>10.4f}  {knorm:>10.4f}  {rho:>10.4f}  {'yes' if stable else 'no'}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("gamma,gain_norm,spectral_radius,stable\n")
            for gamma, knorm, rho, stable in rows:
                fh.write(f"{gamma!r},{knorm!r},{rho!r},{int(stable)}\n")
        print(f"sweep table written to {args.out}")
    return 0


def cmd_selftest(args):
    """Re-derive the bundled benchmark and verify every stage of the pipeline."""
    stages = []

    def stage(name, ok, detail):
        stages.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    sc_state = reference.reference_scenario(mode="state")
    sc_output = reference.reference_scenario(mode="output")

    report = check_assumptions(sc_state.plant, sc_state.exo, sc_state.graph)
    stage(
        "assumptions",
        report.all_ok,
        "all structural checks pass" if report.all_ok else "; ".join(report.lines()),
    )

    gains_stated = reference.reference_gains(mode="output", gamma=reference.GAMMA)
    k_full = np.hstack([gains_stated.k_x, gains_stated.k_z])
    dev_k = float(np.max(np.abs(k_full - reference.EXPECTED_K)))
    stage(
        "feedback gain reproduction",
        dev_k <= 5e-4,
        f"K at stated gamma={reference.GAMMA} deviates from the benchmark target by "
        f"{dev_k:.3e} (tolerance 5e-4)",
    )

    dev_l = float(np.max(np.abs(gains_stated.l_obs - reference.EXPECTED_L)))
    stage(
        "observer gain reproduction",
        dev_l <= 5e-4,
        f"L at gamma_l={reference.GAMMA_L}, delay power {reference.OBSERVER_R} "
        f"deviates by {dev_l:.3e} (tolerance 5e-4)",
    )

    target = reference.target_gains()
    ok_state, rho_state = certify_closed_loop(
        sc_state.plant, sc_state.graph, sc_state.im, target, sc_state.delays, "state"
    )
    ok_out, rho_out = certify_closed_loop(
        sc_output.plant, sc_output.graph, sc_output.im, target, sc_output.delays, "output"
    )
    stage(
        "stability certificates",
        ok_state and ok_out,
        f"lifted radii: state {rho_state:.4f}, output {rho_out:.4f} (both must be < 1)",
    )

    tail = 200
    tr_state = simulate_state_feedback(sc_state, target)
    err_state = tr_state.tail_max_error(tail)
    stage(
        "state-feedback convergence",
        err_state < 1e-2,
        f"max |e| over final {tail} of {sc_state.horizon} steps = {err_state:.3e}",
    )
    tr_out = simulate_output_feedback(sc_output, target)
    err_out = tr_out.tail_max_error(tail)
    stage(
        "output-feedback convergence",
        err_out < 1e-2,
        f"max |e| over final {tail} of {sc_output.horizon} steps = {err_out:.3e}",
    )

    passed = sum(1 for _, ok in stages if ok)
    print(f"{passed}/{len(stages)} stages passed")
    return 0 if passed == len(stages) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coopreg",
        description="Distributed internal-model control of delayed multi-agent systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate the structural assumptions of a scenario")
    p.add_argument("config", help="scenario file (YAML)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="compute gains and certify the closed loop")
    p.add_argument("config", help="scenario file (YAML)")
    p.add_argument("--out", help="write gains and certificate to this file")
    p.add_argument(
        "--auto-tune",
        action="store_true",
        help="halve gamma from the configured value until the certificate accepts",
    )
    p.add_argument(
        "--allow-unstable",
        action="store_true",
        help="exit 0 even when the certificate fails",
    )
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="run the closed loop and report tracking errors")
    p.add_argument("config", help="scenario file (YAML)")
    p.add_argument("--gains", help="gain file from 'synthesize' (default: synthesize now)")
    p.add_argument("--trace", help="write the trace CSV to this path")
    p.add_argument(
        "--law",
        choices=("transformed", "delayed"),
        default="transformed",
        help="controller form to execute (default: transformed)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the compact-form oracle and print the max deviation",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate gain norm and closed-loop radius over gamma")
    p.add_argument("config", help="scenario file (YAML)")
    p.add_argument(
        "--gammas",
        type=_gamma_list,
        required=True,
        help="comma-separated gamma values in (0, 1), e.g. 0.32,0.16,0.08",
    )
    p.add_argument("--out", help="write the table as CSV to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="verify the bundled benchmark end to end")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except CoopregError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
