#!/usr/bin/env python3
"""Cross-check the fitted device rates against the interference model.

The single-emitter extraction gives each emitter's per-point coupling and
intrinsic loss. The two-mode fits at each working point give the
interference-modulated decay rates plus the coherent (J) and dissipative
(Gamma) exchange couplings. Those are not independent: inverting the decay
rates for the propagation phases predicts J and Gamma through the pairwise
interference sums. This script performs that inversion for both working
points and prints predicted vs fitted exchange couplings, along with the
structural bounds set by fully constructive interference.

Usage:
    python scripts/reproduce_device_rates.py
"""

import argparse
import math

MHZ = 1e6

# per-point couplings from the single-emitter extraction
KAPPA_INNER = 0.76 * MHZ
KAPPA_OUTER = 0.70 * MHZ

# two-mode fit results: (f_work, kappa_iG, kappa_oG, |J|, |Gamma|)
FITTED_ROWS = [
    (4.35e9, 1.15 * MHZ, 1.26e-4 * MHZ, 1.01 * MHZ, 3.28e-4 * MHZ),
    (4.96e9, 2.98 * MHZ, 2.78 * MHZ, 6.11e-4 * MHZ, 2.89 * MHZ),
]


def predict_couplings(kappa_i_g, kappa_o_g):
    """Every (|J|, |Gamma|) consistent with the two decay rates.

    Each decay rate pins its emitter's round-trip phase up to a sign, and
    halving the outer phase leaves a pi ambiguity, so eight symmetric-layout
    phase assignments are enumerated and all eight candidates returned;
    `main` reports the one nearest the fitted couplings.
    """
    root = math.sqrt(KAPPA_INNER * KAPPA_OUTER)
    cos_i = min(1.0, max(-1.0, kappa_i_g / (2 * KAPPA_INNER) - 1.0))
    cos_o = min(1.0, max(-1.0, kappa_o_g / (2 * KAPPA_OUTER) - 1.0))
    candidates = []
    for sign_i in (1.0, -1.0):
        for sign_o in (1.0, -1.0):
            phi_i = sign_i * math.acos(cos_i)
            phi_o = sign_o * math.acos(cos_o)
            for k in (0, 1):
                phi1 = (phi_o - phi_i) / 2 + k * math.pi
                j = root * (math.sin(phi1) + math.sin(phi1 + phi_i))
                gamma = 2 * root * (math.cos(phi1) + math.cos(phi1 + phi_i))
                candidates.append((abs(j), abs(gamma)))
    return candidates


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    root = math.sqrt(KAPPA_INNER * KAPPA_OUTER)
    print(f"structural bounds: |Gamma| <= 4*sqrt(ki*ko) = {4 * root / MHZ:.3f} MHz, "
          f"|J| <= 2*sqrt(ki*ko) = {2 * root / MHZ:.3f} MHz")
    print(f"decay maxima: 4*kappa_i = {4 * KAPPA_INNER / MHZ:.2f} MHz, "
          f"4*kappa_o = {4 * KAPPA_OUTER / MHZ:.2f} MHz\n")

    for f_work, k_ig, k_og, j_fit, g_fit in FITTED_ROWS:
        candidates = predict_couplings(k_ig, k_og)
        best = min(candidates,
                   key=lambda c: (c[0] - j_fit) ** 2 + (c[1] - g_fit) ** 2)
        print(f"working point {f_work / 1e9:.2f} GHz "
              f"(kappa_iG = {k_ig / MHZ:.4g} MHz, kappa_oG = {k_og / MHZ:.4g} MHz)")
        print(f"  fitted    |J| = {j_fit / MHZ:8.4f} MHz, |Gamma| = {g_fit / MHZ:8.4f} MHz")
        print(f"  predicted |J| = {best[0] / MHZ:8.4f} MHz, |Gamma| = {best[1] / MHZ:8.4f} MHz"
              f"  (closest of {len(candidates)} phase assignments)")
        print()


if __name__ == "__main__":
    main()
