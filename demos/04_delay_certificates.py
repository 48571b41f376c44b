"""Schur certification of the delay-lifted networked closed loop.

Assembles the two-term closed-loop recursion (an instantaneous block
and a block acting through the total delay), lifts it to a first-order
system on the delay-augmented state, and certifies stability through
the spectral radius of the lifted matrix.  Then exploits the Kronecker
structure to decompose the network-sized certificate into one small
slice per eigenvalue of the coupling matrix H -- the way
certify_closed_loop computes it -- and sweeps gamma to show
the low-gain trade-off: small gamma buys delay tolerance at the price
of slower gains.

Run:  python3 demos/04_delay_certificates.py
"""

import numpy as np

from coopreg import certify_closed_loop, closed_loop_blocks, delay_lift
from coopreg import reference as ref
from coopreg.graphs import h_matrix
from coopreg.matrixops import spectral_radius


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main():
    np.set_printoptions(precision=4, suppress=True)

    plant = ref.reference_plant()
    g = ref.reference_graph()
    im = ref.reference_internal_model()
    delays = ref.reference_delays()
    h, _ = h_matrix(g)

    banner("Two-term closed-loop recursion")
    gains = ref.reference_gains(mode="state")
    a0, a1 = closed_loop_blocks(plant, h, im, gains, mode="state")
    n_cl = a0.shape[0]
    print(f"x_cl(t+1) = A0 x_cl(t) + A1 x_cl(t - r),  r = {delays.r}")
    print(f"A0, A1 are {n_cl} x {n_cl}: four followers, each carrying a")
    print("plant state (n = 2) and an internal-model state (2), so")
    print(f"n_cl = N (n + im) = 4 * 4 = {n_cl}.")
    print(f"||A0|| = {np.linalg.norm(a0):.4f}, ||A1|| = {np.linalg.norm(a1):.4f}")
    print("A1 carries every gain term: all feedback acts through the delay.")

    banner("Delay lifting")
    lifted = delay_lift(a0, a1, delays.r)
    print(f"stacking [x_cl(t); x_cl(t-1); ...; x_cl(t-r)] gives a single")
    print(f"update matrix of size {lifted.shape[0]} x {lifted.shape[1]}"
          f"  ((r + 1) n_cl = {delays.r + 1} * {n_cl}).")
    rho = spectral_radius(lifted)
    print(f"spectral radius of the lifted matrix : {rho:.7f}")
    print("The delayed recursion is asymptotically stable iff this radius")
    print("is below 1.  The certificate computes the same radius without")
    print("building this matrix; see the eigenwise decomposition below.")

    banner("Certificates for both architectures")
    for mode in ("state", "output"):
        gm = ref.reference_gains(mode=mode)
        stable, radius = certify_closed_loop(plant, g, im, gm, delays, mode)
        print(f"{mode:>6}-feedback, gamma = {ref.GAMMA}: "
              f"rho = {radius:.7f}, stable = {stable}")
    gains_cal = ref.reference_gains(mode="output", gamma=ref.CALIBRATED_GAMMA)
    stable, radius = certify_closed_loop(plant, g, im, gains_cal, delays, "output")
    print(f"output-feedback, gamma = {ref.CALIBRATED_GAMMA} (calibrated "
          f"design): rho = {radius:.7f}, stable = {stable}")

    banner("Eigenwise decomposition over the coupling spectrum")
    print("Both closed-loop blocks are Kronecker products against either I_N")
    print("or H, so a Schur triangularization of H block-triangularizes the")
    print("whole loop: the network certificate equals the worst certificate")
    print("over 1x1 complex slices, one per eigenvalue of H.")
    eigs = np.linalg.eigvals(h)
    distinct = []
    for lam in eigs:
        if not any(abs(lam - d) < 1e-9 for d in distinct):
            distinct.append(lam)
    worst = 0.0
    for lam in distinct:
        h_slice = np.array([[lam]])
        s0, s1 = closed_loop_blocks(plant, h_slice, im, gains, mode="state")
        rho_slice = spectral_radius(delay_lift(s0, s1, delays.r))
        worst = max(worst, rho_slice)
        print(f"  slice at lambda = {lam:.4f} : rho = {rho_slice:.7f}")
    certified = certify_closed_loop(plant, g, im, gains, delays, "state")[1]
    print(f"worst slice              : {worst:.7f}")
    print(f"certify_closed_loop      : {certified:.7f}")
    print(f"dense lift (above)       : {rho:.7f}")
    print(f"dense lift - certificate : {rho - certified:.2e}")
    print("The certificate lifts one slice per distinct eigenvalue of H.")
    print("Here the two routes agree; on a chain of N followers, whose H is")
    print("one N x N Jordan block at 1, the dense eigensolve drifts from the")
    print("exact slice radius (by about 2e-2 at N = 64) and costs cubic time")
    print("in N, while the slice stays exact and small.")

    banner("Low-gain sweep: gamma versus delay margin")
    print(f"{'gamma':>7} {'||K||':>9} {'rho':>10} {'stable':>7}")
    for gm_val in (0.64, 0.32, 0.16, 0.11, 0.08, 0.04):
        gset = ref.reference_gains(mode="state", gamma=gm_val)
        k_norm = np.linalg.norm(np.hstack([gset.k_x, gset.k_z]))
        stable, radius = certify_closed_loop(plant, g, im, gset, delays, "state")
        print(f"{gm_val:7.2f} {k_norm:9.4f} {radius:10.6f} {str(stable):>7}")
    print()
    print("Shrinking gamma shrinks the gain and pulls the lifted radius under")
    print("1 despite the two-step delay; pushing gamma up re-destabilizes the")
    print("loop.  auto_tune_gamma automates exactly this halving search.")


if __name__ == "__main__":
    main()
