"""Defective resonances: recovering a Jordan block from the residue calculus.

An effective operator with an exact 2-Jordan block is constructed first,
then the internal matrix is defined backwards so that this operator solves
the fixed-point equation exactly. Re-solving from zero recovers it, and the
decomposition reproduces the algebraic multiplicity 2, geometric
multiplicity 1, and pole order 2, along with the projection and nilpotent
equations. The Jordan block leaves no usable eigenvector basis, so every
cluster takes the residue path.

Run:  python3 demos/jordan_structure.py
"""

import numpy as np

import resonances as rs

z0 = 0.55 + 0.12j
j = np.zeros((4, 4), dtype=complex)
j[0, 0] = j[1, 1] = z0
j[0, 1] = 1.0
j[2, 2] = 0.30 + 0.07j
j[3, 3] = 1.40
rng = np.random.default_rng(5)
s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
s = np.eye(4) + 0.3 * s / np.linalg.norm(s, 2)
h = s @ j @ np.linalg.inv(s)
print("target effective operator: levels", np.round(np.diag(j), 4).tolist())

rng2 = np.random.default_rng(6)
g0 = rng2.standard_normal((4, 4)) + 1j * rng2.standard_normal((4, 4))
g0 /= np.linalg.norm(g0, 2)
g1 = rng2.standard_normal((4, 4)) + 1j * rng2.standard_normal((4, 4))
g1 *= 0.1 / np.linalg.norm(g1, 2)
sc = 0.001
coupling = rs.CouplingFunction.polynomial([
    sc * (g0.conj().T @ g0),
    sc * (g0.conj().T @ g1 + g1.conj().T @ g0),
    sc * (g1.conj().T @ g1),
])

interval = rs.Interval(0.0, 1.0, 0.6)
seed_model = rs.SpectralModel(np.eye(4), [interval], (), coupling)
contour = rs.build_contour(seed_model, rs.Semicircle(), [1])
x_exact = rs.self_energy_of_operator(contour, h)
model = rs.SpectralModel(h - x_exact, [interval], (), coupling)
contour = rs.build_contour(model, rs.Semicircle(), [1])
print("internal matrix set to (target - self-energy of target); "
      "the target is then an exact fixed point")

resolved = rs.solve_fixed_point(contour, tol=1e-12)
print(f"re-solve from zero: {resolved.iterations} iterations, "
      f"distance to target {np.linalg.norm(resolved.effective - h, 2):.3e}")

dec = rs.eigen_decompose(resolved.effective, cluster_tol=1e-4)
print("\nrecovered spectral structure (eigenvalue, alg, geom, pole order, path):")
for i, ev in enumerate(dec.eigenvalues):
    print(f"  {ev:.8f}  m={dec.algebraic[i]} g={dec.geometric[i]} "
          f"n={dec.pole_orders[i]}  {dec.paths[i]}")

report = rs.verify_projection_equations(contour, resolved, dec)
print("\nprojection/nilpotent equation residuals:")
for row in report.rows:
    extras = ", ".join(f"{v:.2e}" for v in row.nilpotent_residuals) or "-"
    print(f"  {row.eigenvalue:.6f}: projection {row.projection_residual:.2e}, "
          f"nilpotent [{extras}]")
print(f"reconstruction error {report.reconstruction_error:.3e}; "
      f"correction norm {report.correction_norm:.4f} "
      f"stays inside the larger certified ball: {report.within_larger_ball}")
