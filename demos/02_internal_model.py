"""Minimal p-copy internal model of a harmonic exosystem.

Shows how the controller's signal generator is derived from the
exosystem: extract the minimal polynomial of S, realize it as a
controllable companion pair (beta, sigma), replicate it once per error
channel, and confirm that the replicated generator reproduces exactly
the exosystem's modes.  Also demonstrates the override hook that lets a
scenario supply its own (beta, sigma) realization, as the benchmark
does.

Run:  python3 demos/02_internal_model.py
"""

import numpy as np

from coopreg import Exosystem, build_internal_model
from coopreg.matrixops import (
    companion_pair,
    controllability_matrix,
    minimal_polynomial,
    numeric_rank,
)
from coopreg.reference import reference_beta_override, reference_exosystem


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main():
    np.set_printoptions(precision=4, suppress=True)

    banner("Exosystem: rotation by 1 rad (marginally stable oscillator)")
    exo = reference_exosystem()
    print("S =")
    print(exo.s)
    print("F =")
    print(exo.f)
    print(f"eigenvalues of S     : {np.sort_complex(np.linalg.eigvals(exo.s))}")
    print(f"all on unit circle   : {exo.modes_on_unit_circle()}")

    banner("Minimal polynomial and its companion realization")
    coeffs = minimal_polynomial(exo.s)
    print(f"non-leading coefficients (ascending): {coeffs}")
    monic = np.concatenate(([1.0], coeffs[::-1]))
    print(f"monic polynomial (descending)       : {monic}")
    print(f"roots                               : {np.sort_complex(np.roots(monic))}")
    beta, sigma = companion_pair(coeffs)
    print("beta (companion) =")
    print(beta)
    print("sigma =")
    print(sigma.T, "(transposed for display)")
    rank = numeric_rank(controllability_matrix(beta, sigma))
    print(f"rank of controllability matrix      : {rank} / {beta.shape[0]}")

    banner("p-copy assembly (one copy per error channel, here p = 1)")
    im = build_internal_model(exo)
    print(f"channels p        : {im.p}")
    print(f"degree            : {im.degree}")
    print(f"state dimension   : {im.dim}")
    print("G1 = I_p (x) beta =")
    print(im.g1)
    print("G2 = I_p (x) sigma =")
    print(im.g2)
    sg1 = np.sort_complex(np.linalg.eigvals(im.g1))
    ss = np.sort_complex(np.linalg.eigvals(exo.s))
    print(f"eigenvalues of G1 : {sg1}")
    print(f"eigenvalues of S  : {ss}")
    print(f"max mode mismatch : {np.max(np.abs(sg1 - ss)):.2e}")

    banner("Override hook: supplying a custom (beta, sigma) pair")
    override = reference_beta_override()
    im2 = build_internal_model(exo, beta_override=override)
    print("benchmark override uses beta = S itself and sigma = [0; 1]:")
    print("beta =")
    print(im2.beta)
    print("sigma =")
    print(im2.sigma.T, "(transposed for display)")
    print("The override is accepted only if its characteristic polynomial")
    print("matches the minimal polynomial of S and the pair is controllable;")
    print("the companion pair and the override realize the same modes:")
    print(f"  sigma(G1, companion) : {np.sort_complex(np.linalg.eigvals(im.g1))}")
    print(f"  sigma(G1, override)  : {np.sort_complex(np.linalg.eigvals(im2.g1))}")

    banner("A two-channel example (p = 2) with a richer spectrum")
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    s_big = np.block(
        [[rot, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]]
    )
    # Two error channels: F has p = 2 rows; its entries do not enter the model.
    im3 = build_internal_model(Exosystem(s=s_big, f=np.zeros((2, 3))))
    print(f"S modes           : {np.sort_complex(np.linalg.eigvals(s_big))}")
    print(f"degree            : {im3.degree} (one factor per distinct mode)")
    print(f"state dimension   : {im3.dim} = p * degree")
    print(f"sigma(G1)         : {np.sort_complex(np.linalg.eigvals(im3.g1))}")
    print("Each exosystem mode appears in G1 with multiplicity p, ready to")
    print("absorb that frequency on every error channel simultaneously.")


if __name__ == "__main__":
    main()
