"""Complex polynomial vector fields on the unit polydisk.

Fields vanish at the origin and are stored sparsely, one coefficient table
per component.  Components may carry an optional exact l1 norm
(``tail_l1``) covering coefficients beyond the stored truncation, which
downstream absolute-sum operations use instead of the truncated sum.

Each field is compiled once, at construction, into an evaluation plan
over the K stored terms of all components together: an (n, K) index of
the power-table rows whose product is each term's monomial, and a
(K, n) coefficient matrix holding each component's coefficients in its
own column.  Evaluating a batch of B points fills one power-major
(P + 1, n, B) table of coordinate powers up to the largest exponent P.
Points run along the last axis, so each power is one contiguous multiply
of the previous power by the transposed batch, and each coordinate's
factor of all K monomials is one gather of whole contiguous rows; the
(B, K) monomials are then multiplied by the coefficient matrix.
``flow_step`` calls this evaluator directly on its four Runge-Kutta
stages.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .multiindex import order_key


class NonFiniteStateError(RuntimeError):
    """Raised when numerical integration produces NaN or infinity."""


def _validate_component(table, dimension):
    clean = {}
    for alpha, value in table.items():
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != dimension:
            raise ValueError(f"exponent {alpha} has wrong length for n={dimension}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        if sum(alpha) == 0:
            raise ValueError("constant terms are not allowed; fields fix the origin")
        value = complex(value)
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient {value!r} of {alpha} is not finite")
        if value != 0:
            clean[alpha] = clean.get(alpha, 0) + value
    return {a: v for a, v in clean.items() if v != 0}


class PolyVectorField:
    """Sparse polynomial (or truncated analytic) vector field on C^n.

    Parameters
    ----------
    components : sequence of mappings
        One dict per component, multi-index tuple -> complex coefficient.
        Zero coefficients are dropped; constant terms are rejected.
    tail_l1 : sequence of float, optional
        Exact per-component l1 coefficient norms of the full (untruncated)
        series.  Must dominate the stored absolute sums.
    truncated : bool
        Mark the stored table as a truncation of an analytic series.  When
        set without tail_l1, absolute-sum queries warn that they return
        truncated values.
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
        self.truncated = bool(truncated) or tail_l1 is not None
        if tail_l1 is not None:
            tail_l1 = tuple(float(t) for t in tail_l1)
            if len(tail_l1) != n:
                raise ValueError("tail_l1 must have one entry per component")
            for l, t in enumerate(tail_l1):
                if not math.isfinite(t):
                    raise ValueError(f"tail_l1[{l}]={t} is not finite")
                stored = sum(abs(v) for v in self.components[l].values())
                if t < stored - 1e-12 * max(1.0, stored):
                    raise ValueError(
                        f"tail_l1[{l}]={t} is below the stored coefficient sum {stored}"
                    )
        self.tail_l1 = tail_l1
        self.degree = max(
            (sum(a) for c in self.components for a in c), default=1
        )
        # evaluation plan: the stored terms of all components in one list;
        # term t is the product over coordinates c of the power-table
        # rows _gather[c, t] (row p * n + c holds z_c ** p), and _C[t]
        # holds its coefficient in the column of its component
        terms = [
            (l, alpha, c[alpha])
            for l, c in enumerate(self.components)
            for alpha in sorted(c, key=order_key)
        ]
        exps = np.array([a for _, a, _ in terms], dtype=np.int64).reshape(-1, n)
        self._max_pow = int(exps.max()) if terms else 0
        self._gather = (exps * n + np.arange(n)).T
        self._C = np.zeros((len(terms), n), dtype=complex)
        for t, (l, _, v) in enumerate(terms):
            self._C[t, l] = v

    def stored_abs_sum(self, component):
        return float(sum(abs(v) for v in self.components[component].values()))

    def l1_norm(self, component):
        """Exact l1 norm when available, else the stored (truncated) sum."""
        if self.tail_l1 is not None:
            return self.tail_l1[component]
        if self.truncated:
            warnings.warn(
                "tail_l1 missing for a truncated field; "
                "returning the truncated coefficient sum",
                stacklevel=2,
            )
        return self.stored_abs_sum(component)

    def term_count(self, exclude_linear_diag=False):
        """Total number of stored coefficients.

        With ``exclude_linear_diag`` the z_l term of component l does not
        count, which is the coupling count used by the polynomial weight
        scheme.
        """
        total = 0
        for l, c in enumerate(self.components):
            for alpha in c:
                if exclude_linear_diag and sum(alpha) == 1 and alpha[l] == 1:
                    continue
                total += 1
        return total

    def jacobian_at_origin(self):
        n = self.dimension
        J = np.zeros((n, n), dtype=complex)
        for l in range(n):
            for r in range(n):
                alpha = tuple(1 if s == r else 0 for s in range(n))
                J[l, r] = self.components[l].get(alpha, 0j)
        return J

    def evaluate(self, z):
        """Evaluate at one point (n,) or a batch (B, n)."""
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 1
        zb = z.reshape(1, -1) if single else z
        if zb.shape[1] != self.dimension:
            raise ValueError("point dimension mismatch")
        out = self._evaluate_batch(zb)
        return out[0] if single else out

    def _evaluate_batch(self, zb):
        """F at a (B, n) complex batch, by the plan built in ``__init__``.

        The batch is copied once into a contiguous (n, B) array and the
        power table is power-major, (P + 1, n, B): each power is one
        contiguous multiply of the previous one by that copy, for all
        coordinates and points at once.  Viewed as ((P + 1) n, B), row
        p * n + c holds z_c ** p, so each coordinate's factor of all K
        monomials is one gather of whole rows; the (K, B) product is
        turned to (B, K) and contracted with the coefficient matrix.
        """
        B, n = zb.shape
        zT = np.ascontiguousarray(zb.T)
        pows = np.empty((self._max_pow + 1, n, B), dtype=complex)
        pows[0] = 1
        for p in range(1, self._max_pow + 1):
            np.multiply(pows[p - 1], zT, out=pows[p])
        pows = pows.reshape(-1, B)
        mono = pows[self._gather[0]]
        for c in range(1, n):
            mono *= pows[self._gather[c]]
        return np.ascontiguousarray(mono.T) @ self._C

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


def _poly_diff(table, slot):
    out = {}
    for alpha, v in table.items():
        if alpha[slot] == 0:
            continue
        beta = list(alpha)
        beta[slot] -= 1
        out[tuple(beta)] = v * alpha[slot]
    return out


def lie_bracket(F, G):
    """Bracket [F, G] = JG . F - JF . G, computed on exact coefficients."""
    if F.dimension != G.dimension:
        raise ValueError("fields live on different spaces")
    n = F.dimension
    comps = []
    for l in range(n):
        acc = {}
        for s in range(n):
            plus = poly_mul(_poly_diff(G.components[l], s), F.components[s])
            minus = poly_mul(_poly_diff(F.components[l], s), G.components[s])
            add_terms(acc, plus.items())
            add_terms(acc, ((k, -v) for k, v in minus.items()))
        comps.append(acc)
    return PolyVectorField(comps)


def flow_step(field, z, dt):
    """One classical Runge-Kutta step of z' = F(z); works on batches.

    ``z`` is one point (n,) or a batch (B, n); ``dt`` is a scalar or a
    (B, 1) array of per-row steps.  The shape is checked once and the four
    stages call the field's batch evaluator directly.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim not in (1, 2) or z.shape[-1] != field.dimension:
        raise ValueError("point dimension mismatch")
    zb = z.reshape(-1, field.dimension)
    F = field._evaluate_batch
    k1 = F(zb)
    k2 = F(zb + 0.5 * dt * k1)
    k3 = F(zb + 0.5 * dt * k2)
    k4 = F(zb + dt * k3)
    out = zb + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteStateError(
            f"non-finite state after an RK4 step (dt up to {float(np.max(dt))!r})"
        )
    return out.reshape(z.shape)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def halton(index, base):
    """Radical-inverse (van der Corput) values of an array of indices in
    ``base``; every index runs through the same digit steps as the scalar
    recursion, so the values do not depend on the batch."""
    i = np.array(index, dtype=np.int64)
    result, f = np.zeros(i.shape), 1.0
    while np.any(i > 0):
        f /= base
        result += f * (i % base)
        i //= base
    return result


@dataclass(frozen=True)
class BoundaryReport:
    """Outcome of the inward-pointing test on one polydisk boundary."""

    holds: bool
    worst_value: float
    worst_point: np.ndarray
    samples: int
    margin: float
    rho: float


def boundary_invariance_check(field, rho, samples=8, margin=0.0):
    """Sample Re(F_l(z) conj(z_l)) on each face |z_l| = rho of the polydisk.

    Every face is probed on a uniform phase grid of 64*samples points in
    z_l, paired with a low-discrepancy fill (Halton moduli and phases) of
    the remaining coordinates inside the polydisk.  The field points
    inward at a sample when the tested value is negative; the report keeps
    the worst (largest) value and the point attaining it.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    n = field.dimension
    count = 64 * samples
    # the fill of the k-th other coordinate is the same on every face
    index = np.arange(1, count + 1)
    fill = []
    for slot in range(n - 1):
        h_mod = halton(index, _PRIMES[(2 * slot) % len(_PRIMES)])
        h_arg = halton(index, _PRIMES[(2 * slot + 1) % len(_PRIMES)])
        fill.append(rho * np.sqrt(h_mod) * np.exp(2j * np.pi * h_arg))
    worst = -np.inf
    worst_point = None
    for face in range(n):
        z = np.zeros((count, n), dtype=complex)
        phases = 2.0 * np.pi * np.arange(count) / count
        z[:, face] = rho * np.exp(1j * phases)
        others = [c for c in range(n) if c != face]
        for values, c in zip(fill, others):
            z[:, c] = values
        vals = np.real(field.evaluate(z)[:, face] * np.conj(z[:, face]))
        i = int(np.argmax(vals))
        if vals[i] > worst:
            worst = float(vals[i])
            worst_point = z[i].copy()
    return BoundaryReport(
        holds=bool(worst < -margin),
        worst_value=worst,
        worst_point=worst_point,
        samples=n * count,
        margin=float(margin),
        rho=float(rho),
    )


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
