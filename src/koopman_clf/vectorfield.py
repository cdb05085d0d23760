"""Complex polynomial vector fields on the unit polydisk.

Fields vanish at the origin and are stored sparsely, one coefficient table
per component.  Components may carry an optional exact l1 norm
(``tail_l1``) covering coefficients beyond the stored truncation, which
downstream absolute-sum operations use instead of the truncated sum.

Each field is compiled once, at construction, into an evaluation plan
over the K stored terms of all components together: an (n, K) index of
the power-table rows whose product is each term's monomial, and an
(n, K) coefficient matrix holding each component's coefficients in its
own row.

Evaluation is points-last: a batch of B points is read as its (n, B)
transpose, and every intermediate keeps the points along the last axis.
The kernel fills one power-major (P + 1, n, B) table of coordinate powers
up to the largest exponent P, one contiguous multiply per power; forms
each of the K monomials as a product of whole rows of that table; and
contracts the (K, B) monomials with the coefficient matrix into the
(n, B) values.  Every array it writes lives in a ``FieldScratch``, which
also holds the stage input and the running sum of ``flow_step``'s four
Runge-Kutta stages.  A scratch plans one field or a whole family: the
family's terms are concatenated, each row is stepped by the field
``select`` gives it, and a step forms the monomials of the fields that
hold a row once and contracts each such field's slice of them.  A
scratch is made for a fixed number of rows and refuses any other batch
size.  It belongs to whoever made it, never to a field: ``evaluate``
and a plain ``flow_step`` call make their own, and an integration makes
one over the family for all its rows and reuses it every step, so a
step allocates no batch-sized array and concurrent integrations of one
family never share one.
"""

import cmath
import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

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
        # rows _gather[c, t] (row p * n + c holds z_c ** p), and
        # _coeffs[:, t] holds its coefficient in the row of its component
        terms = [
            (l, alpha, c[alpha])
            for l, c in enumerate(self.components)
            for alpha in sorted(c, key=order_key)
        ]
        exps = np.array([a for _, a, _ in terms], dtype=np.intp).reshape(-1, n)
        self._max_pow = int(exps.max()) if terms else 0
        self._gather = np.ascontiguousarray((exps * n + np.arange(n)).T)
        self._coeffs = np.zeros((n, len(terms)), dtype=complex)
        for t, (l, _, v) in enumerate(terms):
            self._coeffs[l, t] = v

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
        z, zT = _points_last(self, z)
        scratch = FieldScratch(self, zT.shape[1])
        return scratch.evaluate(np.ascontiguousarray(zT)).T.reshape(z.shape).copy()

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


def _points_last(field, z):
    """``z`` as a complex array and its points-last (n, B) view ``z.T``,
    after checking that it is one point (n,) or a batch (B, n)."""
    z = np.asarray(z, dtype=complex)
    n = field.dimension
    if z.ndim not in (1, 2) or z.shape[-1] != n:
        raise ValueError("point dimension mismatch")
    return z, z.reshape(-1, n).T


class FieldScratch:
    """Field plan and work arrays of one caller's points-last evaluations
    and RK4 steps of ``rows`` points, over one field or a whole family.

    ``fields`` is a ``PolyVectorField`` or a sequence of them (a
    ``SwitchedFamily``); a single field is a family of one.  The plan
    lists the power-table rows of every field's K_i terms one field after
    another, K terms in all; field i keeps its (n, K_i) coefficients and
    its K-slice ``terms[i]``.  ``select`` says which field steps each row.

    The scratch holds the (P + 1, n, rows) power table up to the family's
    largest exponent P, the (K, rows) monomials, the (n, rows) field
    values ``k``, one field's values in a mixed batch, and for
    ``flow_step`` a stage input ``stage``, the running Runge-Kutta sum
    ``acc`` and per-row half, sixth and whole steps ``steps`` filled from
    one (3, rows) real row ``steps_row``; in a mixed selection a boolean
    (n, rows) array per active field after the first holds its row mask.
    Every array is made once, here, and the scratch refuses a batch of any
    other size.  Whoever makes a scratch owns it: every evaluation
    overwrites it.
    """

    def __init__(self, fields, rows):
        self.field = fields
        fields = (fields,) if isinstance(fields, PolyVectorField) else tuple(fields)
        self.fields = fields
        sizes = [f._coeffs.shape[1] for f in fields]
        self.terms = [slice(end - K, end) for K, end in zip(sizes, accumulate(sizes))]
        # each term's power-table rows, over the whole family
        self._factors = [rows for f in fields for rows in f._gather.T.tolist()]
        n, K = fields[0].dimension, len(self._factors)
        top = max(f._max_pow for f in fields)
        self.rows = rows
        self.pows = np.empty((top + 1, n, rows), dtype=complex)
        self.pows[0] = 1
        self.table = self.pows.reshape((top + 1) * n, rows)
        self.mono = np.empty((K, rows), dtype=complex)
        self.k, self.part, self.stage, self.acc = np.empty((4, n, rows), dtype=complex)
        self.steps = np.empty((3, n, rows), dtype=complex)
        self.steps_row = np.empty((3, rows))
        self._flags = np.empty((len(fields) - 1, n, rows), dtype=bool)
        self.active, self.masks = ((0,) if len(fields) == 1 else ()), ()
        self._compile()

    def _require_rows(self, rows):
        if rows != self.rows:
            raise ValueError(f"scratch holds {self.rows} rows, not {rows}")

    def select(self, sub):
        """Choose the field that steps each row: ``sub`` is one field index
        for every row, or an integer array with one index per row.
        Returns the scratch.

        The step then evaluates only the fields that hold a row: their
        monomials, and each one's contraction over the whole batch; in a
        mixed batch each field after the first keeps, through the row
        masks built here, the values of the rows it holds.
        """
        if np.ndim(sub) == 0:
            active, masks = (int(sub),), ()
        else:
            self._require_rows(len(sub))
            held = np.bincount(sub, minlength=len(self.fields))
            active = tuple(np.flatnonzero(held).tolist())
            masks = self._flags[:len(active[1:])]
            for mask, i in zip(masks, active[1:]):
                np.equal(sub, i, out=mask[0])  # row by row: no broadcast buffer
                np.copyto(mask[1:], mask[0])
        self.masks = masks
        if active != self.active:
            self.active = active
            self._compile()
        return self

    def _compile(self):
        """The selected fields' work as views of the current arrays: the
        power table up to their largest exponent, each of their monomials
        as the product of its coordinates' rows of that table, written
        straight into its row of the monomials (a copy when n = 1), and
        each field's contraction."""
        if not self.active:
            self._plan = None
            return
        table, pows, mono, products = self.table, self.pows, self.mono, []
        for i in self.active:
            terms = self.terms[i]
            for t in range(terms.start, terms.stop):
                head, *factors = [table[r] for r in self._factors[t]]
                if factors:
                    products.append((np.multiply, (head, factors[0], mono[t])))
                else:
                    products.append((np.copyto, (mono[t], head)))
                products += [(np.multiply, (mono[t], f, mono[t])) for f in factors[1:]]
        top = max(self.fields[i]._max_pow for i in self.active)
        self._plan = (
            list(zip(pows[:top], pows[1:top + 1])),
            products,
            [(self.fields[i]._coeffs, self.mono[self.terms[i]]) for i in self.active],
        )

    def evaluate(self, zT, out=None):
        """F at the contiguous points-last batch ``zT`` (n, rows), each row
        under its selected field, written to and returned as ``out``
        (``self.k`` when not given).

        Row p * n + c of the power table holds z_c ** p, so every factor
        of a monomial is a whole row of it.
        """
        if self._plan is None:
            raise ValueError("no field is selected for these rows")
        powers, products, parts = self._plan
        for prev, pows in powers:
            np.multiply(prev, zT, out=pows)
        for op, args in products:
            op(*args)
        out = self.k if out is None else out
        (coeffs, terms), *rest = parts
        np.matmul(coeffs, terms, out=out)
        for (coeffs, terms), mask in zip(rest, self.masks):
            np.matmul(coeffs, terms, out=self.part)
            np.putmask(out, mask, self.part)
        return out


def flow_step(field, z, dt, scratch=None, out=None):
    """One classical Runge-Kutta step of z' = F(z); works on batches.

    ``field`` is a ``PolyVectorField``, or a ``SwitchedFamily`` whose
    ``scratch`` says which field steps each row.  ``z`` is one point (n,)
    or a batch (B, n); ``dt`` is a scalar or a (B, 1) array of per-row
    steps.  The step runs points-last on ``z.T`` (copied once when it is
    not contiguous) inside ``scratch``, a ``FieldScratch`` of ``field``
    for B rows that is made for the call when none is given: the four
    stages, their inputs and the weighted sum
    ((k1 + 2 k2) + 2 k3 + k4) * (dt / 6) + z are all computed in place.
    The new state is written to ``out`` (any array of z's shape, z itself
    included) or to a new array, and returned; it never shares memory
    with the scratch, and ``z`` is read only.  Raises ValueError when the
    scratch belongs to another field or holds another number of rows, and
    NonFiniteStateError, before anything is written to ``out``, when the
    new state is not finite.
    """
    z, zT = _points_last(field, z)
    if scratch is None:
        scratch = FieldScratch(field, zT.shape[1])
    elif scratch.field is not field:
        raise ValueError("scratch belongs to another field")
    scratch._require_rows(zT.shape[1])
    zT = np.ascontiguousarray(zT)
    F, k, st, acc = scratch.evaluate, scratch.k, scratch.stage, scratch.acc
    steps, row = scratch.steps, scratch.steps_row
    if isinstance(dt, np.ndarray):
        # per-row steps run along the points axis.  They are held as the
        # complex values the products would cast them to, in every row,
        # so that no product casts or broadcasts them through a buffer.
        h = dt.reshape(-1)
        np.multiply(0.5, h, out=row[0])
        np.divide(h, 6.0, out=row[1])
        np.copyto(row[2], h)
        np.copyto(steps, row[:, None])
        half, sixth, step = steps
    else:
        half, sixth, step = 0.5 * dt, dt / 6.0, dt
    np.multiply(F(zT, acc), half, out=st)
    st += zT
    F(st)
    np.multiply(k, half, out=st)
    st += zT
    k *= 2.0
    acc += k
    F(st)
    np.multiply(k, step, out=st)
    st += zT
    k *= 2.0
    acc += k
    acc += F(st)
    acc *= sixth
    acc += zT
    if not np.isfinite(acc.view(float)).all():
        raise NonFiniteStateError(
            f"non-finite state after an RK4 step (dt up to {float(np.max(dt))!r})"
        )
    new = acc.T.reshape(z.shape)
    if out is None:
        return new.copy()
    np.copyto(out, new)
    return out


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
    rho: float


def boundary_invariance_check(field, rho):
    """Sample Re(F_l(z) conj(z_l)) on each face |z_l| = rho of the polydisk.

    Every face is probed on a uniform phase grid of 512 points in z_l,
    paired with a low-discrepancy fill (Halton moduli and phases) of the
    remaining coordinates inside the polydisk.  The field points inward at
    a sample when the tested value is negative, and the check holds when
    every sample does; the report keeps the worst (largest) value and the
    point attaining it.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    n = field.dimension
    count = 512
    # the fill of the k-th other coordinate is the same on every face
    index = np.arange(1, count + 1)
    fill = []
    for slot in range(n - 1):
        h_mod = halton(index, _PRIMES[(2 * slot) % len(_PRIMES)])
        h_arg = halton(index, _PRIMES[(2 * slot + 1) % len(_PRIMES)])
        fill.append(rho * np.sqrt(h_mod) * np.exp(2j * np.pi * h_arg))
    worst = -np.inf
    worst_point = None
    scratch = FieldScratch(field, count)  # one plan for every face
    for face in range(n):
        zT = np.zeros((n, count), dtype=complex)  # points-last
        phases = 2.0 * np.pi * np.arange(count) / count
        zT[face] = rho * np.exp(1j * phases)
        others = [c for c in range(n) if c != face]
        for values, c in zip(fill, others):
            zT[c] = values
        values = scratch.evaluate(zT)[face]
        vals = np.real(values * np.conj(zT[face]))
        i = int(np.argmax(vals))
        if vals[i] > worst:
            worst = float(vals[i])
            worst_point = zT[:, i].copy()
    return BoundaryReport(
        holds=bool(worst < 0.0),
        worst_value=worst,
        worst_point=worst_point,
        samples=n * count,
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
