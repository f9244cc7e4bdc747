"""Every proved operator identity, checked numerically on an n=4 model.

Four embedded levels, a polynomial matrix coupling, semicircle contour.
The script solves on both mirror sheets and then evaluates: the left
factorization of the transfer function, the overlap operator and its norm
bound, the resolvent moments of the inverse transfer function, the residue
product identities at every resonance, the binormalized Gram matrix, the
adjoint fixed-point equation on the mirror sheet, and the independence of
the solution from the contour.

Run:  python3 demos/contour_identities.py
"""

import numpy as np

import resonances as rs


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


u = random_unitary(4, 11)
a1 = u @ np.diag([1.6, 2.0, 2.4, 2.8]) @ u.conj().T
a1 = 0.5 * (a1 + a1.conj().T)
rng = np.random.default_rng(7)
g0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
g0 /= np.linalg.norm(g0, 2)
g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
g1 *= 0.15 / np.linalg.norm(g1, 2)
s = 0.01
coupling = rs.CouplingFunction.polynomial([
    s * (g0.conj().T @ g0),
    s * (g0.conj().T @ g1 + g1.conj().T @ g0),
    s * (g1.conj().T @ g1),
])
model = rs.SpectralModel(a1, [rs.Interval(0.0, 4.0, 2.6)], (), coupling)

contour = rs.build_contour(model, rs.Semicircle(), [1])
cert = rs.solvability_certificate(contour)
print(f"certificate: d0={cert.d0:.4f} v0={cert.v0:.4f} "
      f"r_min={cert.r_min:.4f} admissible={cert.admissible}")

sol = rs.solve_fixed_point(contour)
sol_m = rs.solve_fixed_point(rs.mirrored(contour))
print(f"solved in {sol.iterations} iterations; resonances:")
for ev in np.sort_complex(np.linalg.eigvals(sol.effective)):
    print(f"  {ev:.12f}")

print("\nfactorization of the transfer function")
z = 2.0 + 0.3j
f = rs.factorize(sol, z)
print(f"  residual at z={z}: {f.residual:.3e}")
print(f"  left-factor inverse norm {np.linalg.norm(np.linalg.inv(f.left_factor), 2):.4f}"
      f" <= certified bound {rs.left_factor_inverse_bound(cert):.4f}")

print("\noverlap operator")
om = rs.overlap_operator(sol, sol_m)
print(f"  norm {om.norm:.3e} < bound {om.norm_bound_check:.3e} < 1")
om_m = rs.overlap_operator(sol_m, sol)
print(f"  adjoint-mirror defect {np.linalg.norm(om.matrix.conj().T - om_m.matrix, 2):.3e}")

print("\nresolvent moments of the inverse transfer function")
metric_inv = np.linalg.inv(om.metric())
gamma = rs.enclosure_circles(sol)
moments = rs.contour_moment(sol, sol_m, gamma)
m0, m1 = moments.m0, moments.m1
print(f"  moment 0 vs inverse metric:      {np.linalg.norm(m0 - metric_inv, 2):.3e}")
print(f"  moment 1 vs metric-adjoint form: "
      f"{np.linalg.norm(m1 - metric_inv @ sol_m.effective.conj().T, 2):.3e}")
print(f"  moment 1 vs effective form:      "
      f"{np.linalg.norm(m1 - sol.effective @ metric_inv, 2):.3e}")

print("\nresidue product identities per resonance")
dec = rs.eigen_decompose(sol.effective)
dec_m = rs.eigen_decompose(sol_m.effective)
for lam in dec.eigenvalues:
    res = rs.residue_at(sol, dec, dec_m, metric_inv, lam)
    print(f"  {lam:.6f}: vs adjoint projection {res.residual_vs_adjoint_projection:.3e}, "
          f"vs projection {res.residual_vs_projection:.3e}")

print("\nbinormalized Gram matrix under the modified inner product")
g = rs.riesz_gram(dec, dec_m, om.metric())
print(f"  ||G - I|| = {g.gram_defect:.3e} for {g.gram.shape[0]} eigenvectors")

print("\nthe solution and its contour")
print(f"  adjoint equation at the mirror solution: {rs.adjoint_equation_residual(sol, sol_m):.3e}")
for name, spec in (("rectangle of depth 1", rs.Rectangle(depth=1.0)),
                   ("semicircle of radius 1.8", rs.Semicircle(radius=1.8))):
    second = rs.build_contour(model, spec, [1])
    print(f"  vs a re-solve on a {name}: {rs.contour_independence(sol, second):.3e}")
