"""Walk through the certificate pipeline on the built-in polynomial pair.

The switched family couples a diagonal contraction (-a z1, -a z2) with a
cubic perturbation of strength b.  For 3 b < a the uniform weight scheme
certifies a common Lyapunov function on the whole unit polydisk; the
script prints every intermediate quantity the pipeline looks at.
"""

import numpy as np

from koopman_clf.analysis import analyze_family
from koopman_clf.config import example1_config
from koopman_clf.koopman import build_matrix
from koopman_clf.multiindex import build_basis

a, b, degree = 1.0, 0.3, 12
cfg = example1_config(a=a, b=b, degree=degree)
family = cfg.build_family()
basis = build_basis(2, degree)

print(f"family: {len(family)} subsystems, dimension 2, truncation degree {degree}")
print(f"basis size (constant excluded): {basis.size}")

# corner of the generator matrix of the perturbed subsystem: the diagonal
# carries -a |alpha|, couplings sit strictly above it
M = build_matrix(family[1], basis)
corner = np.zeros((9, 9), dtype=complex)
top = (M.k <= 9) & (M.j <= 9)
corner[M.k[top] - 1, M.j[top] - 1] = M.v[top]
print("\ngenerator matrix of subsystem 2, degrees 1..3:")
with np.printoptions(precision=3, suppress=True, linewidth=100):
    print(corner.real)

report = analyze_family(family, degree, scheme_kind="polynomial")
cond = report.poly_condition

print("\nxi-free ratio maxima by degree (closed form 9 b^2 (d-1) / (a^2 d)):")
for d in sorted(cond["by_degree"]):
    closed = 9 * b * b * (d - 1) / (a * a * d)
    print(f"  degree {d:2d}: {cond['by_degree'][d]:.6f}   closed {closed:.6f}")
print(f"supremum over the truncation: {cond['q_sup']:.6f}")
print(f"extrapolated limit:           {cond['extrapolated']:.6f}"
      f"   (9 b^2 / a^2 = {9 * b * b / (a * a):.6f})")

assert report.certified
print(f"\ncertified radius: {report.rho_certified}")
print(f"effective weight growth eta: {report.eta_effective:.6f}")
eps = report.epsilon
print(f"weights: eps_1 = {eps[0]}, eps_min = {eps.min():.3e}, "
      f"eps_max = {eps.max():.3e}")
print(f"tail ratio of the weight series: {report.convergence['ratio']:.6f}")

# pushing the coupling past the a > 3 b threshold makes the scheme refuse
strong = example1_config(a=a, b=0.5, degree=degree)
refused = analyze_family(strong.build_family(), degree, scheme_kind="polynomial")
assert not refused.certified
print(f"\nb = 0.5 is refused: {refused.failure['message']}")
