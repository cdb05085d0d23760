"""Complex polynomial vector fields on the unit polydisk.

Fields vanish at the origin and are stored sparsely, one coefficient table
per component.  Components may carry an optional exact l1 norm
(``tail_l1``) covering coefficients beyond the stored truncation, which
downstream absolute-sum operations use instead of the truncated sum.

A field holds only its terms; the audit's RK4 steps of a family live in
``kernels``.  ``boundary_invariance_check`` bounds the field on a
polydisk's faces.
"""

import cmath
import math
import warnings

import numpy as np

from .rounding import lower, upper


def _validate_component(table, dimension):
    clean = {}
    for alpha, value in table.items():
        for a in alpha:
            if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
                raise ValueError(f"exponent {alpha} must hold integers, got {a!r}")
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != dimension:
            raise ValueError(f"exponent {alpha} has wrong length for n={dimension}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        if max(alpha) >= 2**63:  # the matrices index in int64
            raise ValueError(f"exponent in {alpha} is above 2**63 - 1")
        if sum(alpha) == 0:
            raise ValueError("constant terms are not allowed; fields fix the origin")
        value = complex(value)
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient {value!r} of {alpha} is not finite")
        if value != 0:
            clean[alpha] = clean.get(alpha, 0) + value
    return {a: clean[a] for a in sorted(clean) if clean[a] != 0}


class PolyVectorField:
    """Sparse polynomial (or truncated analytic) vector field on C^n.

    ``components`` holds one dict per component, multi-index tuple ->
    complex coefficient, in ascending exponent order whatever the caller's
    order; zero coefficients are dropped, constant terms rejected.
    ``stored_l1`` holds each component's stored absolute sum, an ``fsum``
    of its moduli (one rounding, whatever their order).  ``tail_l1``,
    optional, holds the exact l1 coefficient norm of each component's full
    series; one below ``stored_l1`` by more than the sum's rounding
    (``rounding.lower`` with 8) is refused.
    ``truncated`` marks the table as a truncated analytic series: without
    ``tail_l1``, absolute-sum queries then warn that they are truncated.
    """

    def __init__(self, components, tail_l1=None, truncated=False):
        components = list(components)
        if not components:
            raise ValueError("need at least one component")
        n = len(components)
        self.dimension = n
        self.components = tuple(
            _validate_component(dict(c), n) for c in components
        )
        self.stored_l1 = tuple(
            math.fsum(abs(v) for v in c.values()) for c in self.components
        )
        self.truncated = bool(truncated) or tail_l1 is not None
        if tail_l1 is not None:
            tail_l1 = tuple(float(t) for t in tail_l1)
            if len(tail_l1) != n:
                raise ValueError("tail_l1 must have one entry per component")
            for l, (t, stored) in enumerate(zip(tail_l1, self.stored_l1)):
                if not math.isfinite(t):
                    raise ValueError(f"tail_l1[{l}]={t} is not finite")
                if t < lower(stored, stored, 8):
                    raise ValueError(
                        f"tail_l1[{l}]={t} is below the stored coefficient sum {stored}"
                    )
        self.tail_l1 = tail_l1
        self.degree = max(
            (sum(a) for c in self.components for a in c), default=1
        )

    def l1_norm(self, component):
        """Exact l1 norm when available, else the stored (truncated) sum;
        never below the stored sum."""
        stored = self.stored_l1[component]
        if self.tail_l1 is not None:
            return max(self.tail_l1[component], stored)
        if self.truncated:
            warnings.warn(
                "tail_l1 missing for a truncated field; "
                "returning the truncated coefficient sum",
                stacklevel=2,
            )
        return stored

    def coupling_count(self):
        """Number of stored coefficients other than each component l's z_l
        term: the coupling count of the polynomial weight scheme."""
        return sum(
            1
            for l, c in enumerate(self.components)
            for alpha in c
            if not (sum(alpha) == 1 and alpha[l] == 1)
        )

    def jacobian_at_origin(self):
        n = self.dimension
        J = np.zeros((n, n), dtype=complex)
        for l in range(n):
            for r in range(n):
                alpha = tuple(1 if s == r else 0 for s in range(n))
                J[l, r] = self.components[l].get(alpha, 0j)
        return J

    def __repr__(self):
        terms = sum(len(c) for c in self.components)
        return (
            f"PolyVectorField(n={self.dimension}, degree={self.degree}, "
            f"terms={terms}, tail_l1={'yes' if self.tail_l1 else 'no'})"
        )


def add_terms(acc, terms):
    """Add (exponent, coefficient) pairs into the dict ``acc`` in order; an
    exponent whose sum becomes exactly zero is removed.  Returns ``acc``."""
    for key, v in terms:
        s = acc.get(key, 0) + v
        if s == 0:
            acc.pop(key, None)
        else:
            acc[key] = s
    return acc


def poly_mul(a, b):
    """Product of two polynomials stored as exponent -> coefficient dicts."""
    return add_terms(
        {},
        (
            (tuple(x + y for x, y in zip(ka, kb)), va * vb)
            for ka, va in a.items()
            for kb, vb in b.items()
        ),
    )


def boundary_invariance_check(fields, rho):
    """Closed-form upper bounds of Re(conj(w_l) F_l(w)) on the faces
    |w_l| = rho of the polydisk of radius rho in (0, 1]: one list of n
    bounds per field, or None for a truncated field with no ``tail_l1``.
    A negative bound proves its face inward-pointing; when every face of
    every field is, the closed polydisk is forward invariant under any
    switching (Nagumo's condition; Blanchini, Automatica 35, 1999).

    On the face every |w_c| <= rho, so with c_l the coefficient of w_l in
    F_l, and the unstored terms (of degree >= 1) counted at rho^2:

        bound = rho^2 Re c_l + S_l,  S_l = sum_{beta != e_l}
                |c_beta| rho^(|beta| + 1) + (tail_l1 - stored) rho^2.

    Both round outward by ``rounding``: the stored sum, an ``fsum`` of
    moduli, down by ``lower`` with 8, and the bound up by ``upper`` with
    m_l + 4 >= 5 for m_l stored terms, against six roundings on a path at
    most (a modulus or a power, two each, a product, the ``fsum`` and two
    additions), relative to rho^2 |c_l| + S_l, not rho^2 |Re c_l| + S_l, so
    that a float evaluation of the face value stays below the bound too:
    with c_l imaginary that value is 0, but reads about 1e-17 |c_l| rho^2.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    rho2 = rho * rho
    bounds = []
    for f in fields:
        if f.truncated and f.tail_l1 is None:
            bounds.append(None)
            continue
        faces = []
        for l, comp in enumerate(f.components):
            e_l = tuple(int(c == l) for c in range(f.dimension))
            c_l = comp.get(e_l, 0j)
            # fsum: one rounding, whatever the order of the terms
            s = math.fsum(
                abs(v) * rho ** (sum(a) + 1) for a, v in comp.items() if a != e_l
            )
            if f.tail_l1 is not None:
                stored = f.stored_l1[l]
                s += max(f.tail_l1[l] - lower(stored, stored, 8), 0.0) * rho2
            size = rho2 * abs(c_l) + s
            faces.append(upper(rho2 * c_l.real + s, size, len(comp) + 4))
        bounds.append(faces)
    return bounds


class SwitchedFamily:
    """A finite family of vector fields sharing one state space."""

    def __init__(self, fields):
        fields = tuple(fields)
        if not fields:
            raise ValueError("family must contain at least one field")
        n = fields[0].dimension
        if any(f.dimension != n for f in fields):
            raise ValueError("all fields must share the same dimension")
        self.fields = fields
        self.dimension = n

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, i):
        return self.fields[i]

    def __iter__(self):
        return iter(self.fields)

    def jacobians_at_origin(self):
        return [f.jacobian_at_origin() for f in self.fields]
