"""Low-gain Riccati synthesis of the delay-compensating feedback gains.

Builds the augmented plant (follower chained with the internal model),
solves the parametric Riccati equation at a small gamma, forms the
delay-compensating state-feedback gain, and constructs the dual
observer gain.  Along the way it verifies the structural identities the
test suite leans on: the scalar closed form, the delay-power identity
K_r = K_0 A^r, and the feedback/observer duality.  Finally it compares
the freshly synthesized gains against the recorded benchmark targets,
and the calibrated design that the tracking demos use against its own
record.

Run:  python3 demos/03_gain_synthesis.py
"""

import numpy as np

from coopreg import (
    build_augmented,
    observer_gain,
    solve_parametric_dare,
    state_feedback_gain,
    synthesize_gains,
)
from coopreg import reference as ref


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def parametric_residual(a, b, p, gamma):
    """Frobenius norm of the parametric Riccati defect at ``p``."""
    r = np.eye(b.shape[1]) + b.T @ p @ b
    defect = a.T @ p @ a - p - a.T @ p @ b @ np.linalg.solve(r, b.T @ p @ a) + gamma * p
    return np.linalg.norm(defect)


def main():
    np.set_printoptions(precision=4, suppress=True)

    banner("Augmented design pair (follower + internal model)")
    plant = ref.reference_plant()
    im = ref.reference_internal_model()
    a_c, b_c = build_augmented(plant, im)
    print("A_bar =")
    print(a_c)
    print("B_bar =")
    print(b_c)
    print(f"dimensions: plant n = {plant.a.shape[0]}, internal model {im.dim},"
          f" augmented {a_c.shape[0]}")

    banner("Parametric Riccati equation at gamma = 0.08")
    gamma = ref.GAMMA
    p = solve_parametric_dare(a_c, b_c, gamma)
    print("P =")
    print(p)
    print(f"residual ||A'PA - P - A'PB(I+B'PB)^-1 B'PA + gamma P||_F : "
          f"{parametric_residual(a_c, b_c, p, gamma):.2e}")
    print(f"min eigenvalue of P : {np.min(np.linalg.eigvalsh(p)):.4f} (positive definite)")
    print()
    print("Scalar sanity check: for a = b = 1 the solution is gamma/(1-gamma).")
    for gm in (0.08, 0.3, 0.5):
        p1 = solve_parametric_dare(np.eye(1), np.eye(1), gm)[0, 0]
        print(f"  gamma = {gm:4.2f}: solver {p1:.12f}, closed form {gm / (1 - gm):.12f}")

    banner("Delay-compensating state-feedback gain")
    delays = ref.reference_delays()
    r = delays.r
    print(f"input delay r_con = {delays.r_con}, communication delay r_com = {delays.r_com},"
          f" total r = {r}")
    k = state_feedback_gain(a_c, b_c, gamma, ref.NU, r)
    print(f"K (gamma = {gamma}) = {k}")
    k0 = state_feedback_gain(a_c, b_c, gamma, ref.NU, 0)
    print(f"delay-power identity: ||K_r - K_0 A^r|| = "
          f"{np.linalg.norm(k - k0 @ np.linalg.matrix_power(a_c, r)):.2e}")
    print("The A^r prefactor predicts the augmented state r steps ahead, which")
    print("is what cancels the accumulated input and communication delay.")

    banner("Dual observer gain")
    l_obs = observer_gain(plant.a, plant.c, ref.GAMMA_L, ref.NU_L)
    print(f"L (gamma_l = {ref.GAMMA_L}, nu_l = {ref.NU_L}) =")
    print(l_obs)
    k_dual = state_feedback_gain(plant.a.T, plant.c.T, ref.GAMMA_L, ref.NU_L, 0)
    print(f"duality check ||L + K(A', C')'|| = {np.linalg.norm(l_obs + k_dual.T):.2e}")
    print("The observer design is the feedback design applied to the")
    print("transposed pair; estimation runs on local measurements and")
    print("needs no delay compensation of its own.")

    banner("One-call synthesis and the recorded benchmark targets")
    gains = ref.reference_gains(mode="output")
    print(f"K_x (plant block)          : {gains.k_x}")
    print(f"K_z (internal-model block) : {gains.k_z}")
    print(f"L                          : {gains.l_obs.ravel()}")
    full_k = np.hstack([gains.k_x, gains.k_z])
    dev_k = np.max(np.abs(full_k - ref.EXPECTED_K))
    dev_l = np.max(np.abs(gains.l_obs - ref.EXPECTED_L))
    print()
    print(f"recorded target K : {ref.EXPECTED_K}")
    print(f"recorded target L : {ref.EXPECTED_L.ravel()}")
    print(f"deviation from recorded K at gamma = {gamma} : {dev_k:.3e}")
    print(f"deviation from recorded L                  : {dev_l:.3e}")
    print()
    print("Both recorded targets come out of the stated design.  The tracking")
    print("demos drive the benchmark with a more aggressive design of the same")
    print(f"family, gamma = {ref.CALIBRATED_GAMMA}, whose gain is recorded as CALIBRATED_K.")
    gains_cal = ref.reference_gains(mode="output", gamma=ref.CALIBRATED_GAMMA)
    full_cal = np.hstack([gains_cal.k_x, gains_cal.k_z])
    print(f"recorded calibrated K : {ref.CALIBRATED_K}")
    print(f"deviation at gamma = {ref.CALIBRATED_GAMMA} : "
          f"{np.max(np.abs(full_cal - ref.CALIBRATED_K)):.3e}")
    print("Both designs certify stable (see demo 04); simulations in demos")
    print("05-06 use the calibrated gain.")

if __name__ == "__main__":
    main()
