"""Built-in consistency checks runnable from the command line.

Each check exercises a structural identity of the generator matrices
that ``analyze`` builds, through this module's ``build_matrix``.
"""

import numpy as np

from .koopman import build_matrix
from .multiindex import build_basis, order_key
from .vectorfield import PolyVectorField, lie_bracket


def _random_field(rng, n=2, degree=2):
    comps = []
    for l in range(n):
        table = {}
        for _ in range(4):
            alpha = tuple(int(rng.integers(0, degree + 1)) for _ in range(n))
            if not 1 <= sum(alpha) <= degree:
                continue
            table[alpha] = complex(
                int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            )
        if not table:
            table = {tuple(1 if c == l else 0 for c in range(n)): -1.0 + 0j}
        comps.append(table)
    return PolyVectorField(comps)


def check_basis_order():
    """Basis enumeration agrees with sorting all indices by the order key."""
    import itertools

    for n in (1, 2, 3):
        basis = build_basis(n, 5)
        everything = [
            alpha
            for alpha in itertools.product(range(6), repeat=n)
            if sum(alpha) <= 5
        ]
        expected = sorted(everything, key=order_key)
        got = [basis.alpha(k) for k in range(basis.size + 1)]
        if got != expected:
            return False, f"basis order mismatch for n={n}"
    return True, "basis order matches the comparator sort"


def check_bracket_identity():
    """Matrix commutator equals the matrix of the field bracket.

    For the generator matrices built from F and G, the identity
    L(G) L(F) - L(F) L(G) = L([F, G]) holds entrywise on any basis whose
    degree window contains all three supports.
    """
    rng = np.random.default_rng(12345)
    basis = build_basis(2, 6)
    for trial in range(5):
        F = _random_field(rng, degree=2)
        G = _random_field(rng, degree=2)
        LF = build_matrix(F, basis).to_dense()
        LG = build_matrix(G, basis).to_dense()
        LB = build_matrix(lie_bracket(F, G), basis).to_dense()
        # restrict to columns of degree <= 5: bracket degree is <= 3, so
        # entries there involve only rows/targets inside the basis
        cols = [j - 1 for j in range(1, basis.size + 1) if basis.degree(j) <= 5]
        lhs = (LG @ LF - LF @ LG)[:, cols]
        rhs = LB[:, cols]
        err = float(np.max(np.abs(lhs - rhs)))
        if err > 1e-9:
            return False, f"bracket identity violated (trial {trial}, err {err:.2e})"
    return True, "commutator of generator matrices matches the bracket field"


def check_triangularity():
    """Jacobian-triangular fields give exactly upper-triangular matrices."""
    rng = np.random.default_rng(999)
    basis = build_basis(2, 5)
    for trial in range(5):
        F = _random_field(rng, degree=3)
        comps = []
        for l, table in enumerate(F.components):
            t = {
                a: v
                for a, v in table.items()
                if not (sum(a) == 1 and any(a[r] and r < l for r in range(2)))
            }
            t[tuple(1 if c == l else 0 for c in range(2))] = -2.0 + 0j
            comps.append(t)
        tri_field = PolyVectorField(comps)
        M = build_matrix(tri_field, basis).to_dense()
        if np.any(np.tril(M, -1) != 0):
            return False, f"sub-diagonal entry appeared (trial {trial})"
    return True, "triangular Jacobians give triangular generator matrices"


def check_diagonal():
    """Diagonal entries are the exponent-weighted linear diagonals."""
    basis = build_basis(2, 5)
    F = PolyVectorField([{(1, 0): -1.5 + 0.5j, (2, 1): 2.0}, {(0, 1): -2.0 - 1j}])
    lam = np.array([-1.5 + 0.5j, -2.0 - 1j])
    diagonal = np.diag(build_matrix(F, basis).to_dense())
    for k in range(1, basis.size + 1):
        alpha = basis.alpha(k)
        expected = alpha[0] * lam[0] + alpha[1] * lam[1]
        if abs(diagonal[k - 1] - expected) > 1e-12:
            return False, f"diagonal mismatch at {alpha}"
    return True, "diagonal entries match the exponent-weighted eigenvalues"


def run_selftest(out=None):
    """Run all checks; returns 0 when everything passes, 1 otherwise."""
    checks = [
        ("basis-order", check_basis_order),
        ("bracket-identity", check_bracket_identity),
        ("triangularity", check_triangularity),
        ("diagonal-eigenvalues", check_diagonal),
    ]
    failed = 0
    for name, fn in checks:
        ok, msg = fn()
        line = f"{'PASS' if ok else 'FAIL'} {name}: {msg}"
        if out is not None:
            out.write(line + "\n")
        if not ok:
            failed += 1
    return 1 if failed else 0
