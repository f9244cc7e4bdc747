"""Walkthrough: one embedded level turning into a resonance.

The model: an external channel with absolutely continuous spectrum on
(0, 2R), one internal level at R sitting right in the middle of it, and a
constant coupling of strength beta. As soon as the coupling is switched on,
the embedded level leaves the real axis through the cut and becomes a
resonance on a neighboring sheet. This script computes it twice: by the
contraction solver on a deformed contour, and from the closed-form
logarithmic self-energy, then compares.

Run:  python3 demos/single_level_walkthrough.py
"""

import math

import numpy as np

import resonances as rs

R = 1.0
BETA_SQ = 3.0 / (16.0 * math.pi)

print("== model ==")
model = rs.friedrichs_model(R, beta_sq=BETA_SQ)
print(f"interval (0, {2 * R}), level {R}, beta^2 = {BETA_SQ:.6f}")
report = rs.validate_model(model)
print(f"validation: {'clean' if report.empty else report}")

print("\n== solvability certificate on the half-circle contour ==")
contour = rs.build_contour(model, rs.Semicircle(), [1])
cert = rs.solvability_certificate(contour)
print(f"separation distance  d0    = {cert.d0:.15g}   (exact closest point)")
print(f"coupling variation   v0    = {cert.v0:.15g}   (pi * beta^2 * R)")
print(f"admissible (v0 < d0^2/4)   = {cert.admissible}")
print(f"ball radii                 = [{cert.r_min:.15g}, {cert.r_max:.15g}]")
print(f"admissibility would flip at beta^2 = {1.0 / (4.0 * math.pi):.15g}")

print("\n== contraction solve ==")
sol = rs.solve_fixed_point(contour)
z_solver = complex(sol.effective[0, 0])
print(f"iterations                 = {sol.iterations}")
print(f"resonance (solver)         = {z_solver:.15g}")
print(f"a-posteriori bound         = {sol.a_posteriori_bound:.3e}")
print(f"fixed-point residual       = {rs.fixed_point_residual(sol):.3e}")

print("\n== closed-form cross-check ==")
params = rs.params_from_model(model, nu=1)
root = rs.resonance_root(params)
print(f"resonance (closed form)    = {root.z:.15g}")
print(f"|solver - closed form|     = {abs(z_solver - root.z):.3e}")
print(f"angle-equation residual    = {root.angle_residual:.3e}")

mirror = rs.solve_fixed_point(rs.mirrored(contour))
print(f"mirror sheet conjugate gap = "
      f"{abs(np.conj(complex(mirror.effective[0, 0])) - z_solver):.3e}")

print("\n== the two real roots outside the interval ==")
bs = rs.bound_states(params)
print(f"root below zero            = {bs.z0:.10g}  (|f| = {bs.residual0:.1e})")
print(f"root above the interval    = {bs.za:.10g}  (|f| = {bs.residual_a:.1e})")
print(f"small-coupling asymptote ratios: "
      f"{bs.z0 / bs.z0_asymptote(params):.6f}, "
      f"{bs.za_offset / bs.za_gap_asymptote(params):.6f}")

print("\n== asymptote trend as the coupling shrinks ==")
for denom in (6, 8, 10, 12):
    p = rs.FriedrichsParams(2 * R, R, math.sqrt(R / denom))
    b = rs.bound_states(p)
    dev = abs(b.z0 / b.z0_asymptote(p) - 1.0)
    print(f"beta^2 = lambda/{denom:<3d} |ratio - 1| = {dev:.3e}")
