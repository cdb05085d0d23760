"""Complex polynomial vector fields on the unit polydisk.

Fields vanish at the origin and are stored sparsely, one coefficient table
per component.  Components may carry an optional exact l1 norm
(``tail_l1``) covering coefficients beyond the stored truncation, which
downstream absolute-sum operations use instead of the truncated sum.

A field holds only its terms; a ``FieldScratch`` plans and runs its
evaluation, and is the only code that knows the plan's layout.
Evaluation is points-last: a batch of B points is read as its (n, B)
transpose, and every intermediate keeps the points along the last axis.
The scratch fills one power-major (P + 1, n, B) table of coordinate
powers up to the largest exponent P, the points themselves in row 1 and
one contiguous multiply per higher power; forms each of the K stored
terms' monomials as a product of whole rows of that table; and contracts
the (K, B) monomials with an (n, K) coefficient matrix, each component's
coefficients in its own row, into the (n, B) values.  It holds every
array it writes, and runs the whole RK4 step of ``flow_step``: the four
stages and their running sum.  A scratch compiles one field or a whole
family, once, when it is made: the family's terms are concatenated, each
row is stepped by the field ``select`` gives it, and ``select`` lists
the evaluation's ufunc calls from the compiled pieces: the monomials of
the fields that hold a row, formed once, and each such field's
contraction of its slice of them.  A scratch is made for a fixed number
of rows and refuses any other batch size.  It belongs to whoever made
it, never to a field: ``evaluate`` makes its own, ``flow_step`` uses its
caller's, and an integration makes one over the family for all its rows
and reuses it every step, so a step allocates no batch-sized array and
concurrent integrations of one family never share one.
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
        return FieldScratch(self, zT.shape[1]).evaluate(zT).T.reshape(z.shape).copy()

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
    ``SwitchedFamily``); a single field is a family of one, selected
    here.  Each field's pieces are compiled here, once, from its
    ``components``: its K_i terms, by component and then in basis order,
    get an (n, K_i) coefficient matrix, their largest exponent, and one
    product of power-table rows per monomial (row p * n + c holds
    z_c ** p), written into the field's K_i rows of the monomials; the
    fields' rows follow one another, K in all.  ``select`` says which
    field steps each row, and joins the pieces of the fields that hold a
    row into the evaluation's flat list of ufunc calls; it makes no array.

    The scratch holds the (P + 1, n, cols) power table up to the family's
    largest exponent P (at least 1), whose row 1 is the input ``stage`` of
    an evaluation and of each Runge-Kutta stage; the (K, cols) monomials;
    (n, cols) arrays for the field values ``k``, one field's values in a
    mixed batch and the running Runge-Kutta sum ``acc``; per-row half,
    sixth and whole steps ``steps``, filled from one (3, cols) real row
    ``steps_row``; and a scalar step's three and the factor 2 as complex
    0-d arrays, rewritten when the step changes.  In a mixed selection a
    boolean (n, cols) array per active field after the first holds its
    row mask, and a boolean (n, 2 cols) array takes the finiteness of the
    new state.  ``cols`` is ``rows``, but at least two: a lone row gets a
    padding column at the origin, which every field fixes, so that its
    coefficient products run over two columns, and round as a larger
    batch's do, instead of through numpy's matrix-vector path.  Every
    array is made once, here, and the scratch refuses a batch of any other
    size.  Whoever makes a scratch owns it: every evaluation overwrites
    it.
    """

    def __init__(self, fields, rows):
        fields = (fields,) if isinstance(fields, PolyVectorField) else tuple(fields)
        self.fields = fields
        n = fields[0].dimension
        terms = [
            [
                (l, alpha, c[alpha])
                for l, c in enumerate(f.components)
                for alpha in sorted(c, key=order_key)
            ]
            for f in fields
        ]
        self._tops = [max((max(a) for _, a, _ in t), default=0) for t in terms]
        self.rows = rows
        cols = max(rows, 2)
        # zeros, so that padding columns stay at the origin; the stage
        # input is row 1 of the power table
        self.pows = np.zeros((max(max(self._tops), 1) + 1, n, cols), dtype=complex)
        self.pows[0] = 1
        self.stage = self.pows[1]
        self.mono = np.empty((sum(map(len, terms)), cols), dtype=complex)
        self.k, self.part, self.acc = np.zeros((3, n, cols), dtype=complex)
        self._padded = np.zeros((n, cols), dtype=complex) if cols > rows else None
        self.steps = np.zeros((3, n, cols), dtype=complex)
        self.steps_row = np.zeros((3, cols))
        self._sizes = tuple(np.full((), x, dtype=complex) for x in (0, 0, 0, 2))
        self._dt = None
        self._finite = np.empty((n, 2 * cols), dtype=bool)
        self._flags = np.empty((len(fields) - 1, n, cols), dtype=bool)
        table = self.pows.reshape(len(self.pows) * n, cols)
        self._powers = list(zip(self.pows[1:-1], self.pows[2:]))
        self._products, self._parts, start = [], [], 0
        for field_terms in terms:
            mono = self.mono[start:start + len(field_terms)]
            start += len(field_terms)
            coeffs = np.zeros((n, len(field_terms)), dtype=complex)
            products = []
            for t, ((l, alpha, v), m) in enumerate(zip(field_terms, mono)):
                coeffs[l, t] = v
                head, *factors = [table[p * n + c] for c, p in enumerate(alpha)]
                if factors:
                    products.append((np.multiply, (head, factors[0], m)))
                else:
                    products.append((np.copyto, (m, head)))
                products += [(np.multiply, (m, f, m)) for f in factors[1:]]
            self._products.append(products)
            self._parts.append((coeffs, mono))
        self.active, self._plans = (), ()
        if len(fields) == 1:
            self.select(0)

    def _require_rows(self, rows):
        if rows != self.rows:
            raise ValueError(f"scratch holds {self.rows} rows, not {rows}")

    def select(self, sub):
        """Choose the field that steps each row: ``sub`` is one field index
        for every row, or an integer array with one index per row.
        Returns the scratch.  Raises ValueError, naming the index, when one
        is not an integer in [0, len(fields)).

        The evaluation is then one flat list of ufunc calls, planned here
        from the compiled pieces of the fields that hold a row: the power
        table up to their largest exponent, their monomials, and each
        one's contraction over the whole batch; in a mixed batch each
        field after the first is contracted into its own array and keeps,
        through the row masks built here, the values of the rows it holds.
        There are two such lists, which differ only in the array the
        contraction writes: ``acc`` for a step's first stage, ``k`` for
        the others and for ``evaluate``.
        """
        index, count = np.asarray(sub), len(self.fields)
        if index.ndim:
            self._require_rows(len(index))
        if index.size and (index.dtype.kind not in "iu"
                           or index.min() < 0 or index.max() >= count):
            bad = next(i for i in index.ravel().tolist()
                       if type(i) is not int or not 0 <= i < count)
            raise ValueError(
                f"subsystem index {bad!r} is not an integer in [0, {count})"
            )
        if index.ndim == 0:
            active, masks = (int(index),), ()
        else:
            held = np.bincount(index, minlength=count)
            active = tuple(np.flatnonzero(held).tolist())
            masks = self._flags[:len(active[1:])]
            for mask, i in zip(masks, active[1:]):
                np.equal(index, i, out=mask[0])  # row by row: no broadcast buffer
                np.copyto(mask[1:], mask[0])
        self.active, self._plans = active, ()
        if active:
            top = max(self._tops[i] for i in active)
            head = [
                (np.multiply, (prev, self.stage, pows))
                for prev, pows in self._powers[:max(top - 1, 0)]
            ]
            for i in active:
                head += self._products[i]
            first, *rest = active
            self._plans = tuple(
                head + [(np.matmul, (*self._parts[first], out))] + [
                    call
                    for i, mask in zip(rest, masks)
                    for call in ((np.matmul, (*self._parts[i], self.part)),
                                 (np.putmask, (out, mask, self.part)))
                ]
                for out in (self.acc, self.k)
            )
        return self

    def _planned(self):
        if not self.active:
            raise ValueError("no field is selected for these rows")
        return self._plans

    def evaluate(self, zT):
        """F at the points-last batch ``zT`` (n, rows), each row under its
        selected field: ``zT`` is copied into ``stage``, and the values are
        returned as a view of ``k``."""
        plan = self._planned()[1]
        np.copyto(self.stage[:, :self.rows], zT)
        for op, args in plan:
            op(*args)
        return self.k[:, :self.rows]

    def _step_sizes(self, dt):
        """Half, sixth and whole step and the factor 2, as the complex
        operands the products would cast them to: per-row steps in the
        rows of ``steps``, a scalar step in the 0-d arrays, which are
        rewritten only when it changes."""
        half, sixth, whole, two = self._sizes
        if isinstance(dt, np.ndarray):
            # per-row steps run along the points axis, and fill every row
            # so that no product broadcasts them through a buffer
            h, row = dt.reshape(-1), self.steps_row[:, :self.rows]
            np.multiply(0.5, h, out=row[0])
            np.divide(h, 6.0, out=row[1])
            np.copyto(row[2], h)
            np.copyto(self.steps, self.steps_row[:, None])
            half, sixth, whole = self.steps
        elif dt != self._dt or dt == 0:  # a zero step keeps its sign
            self._dt = dt
            half[()], sixth[()], whole[()] = 0.5 * dt, dt / 6.0, dt
        return half, sixth, whole, two

    def step(self, zT, dt):
        """One classical Runge-Kutta step of the points-last batch ``zT``
        (n, rows), of any memory layout, each row under its selected field,
        by ``dt``, a scalar or a (rows, 1) array of per-row steps.  The four
        stages, their inputs and the weighted sum
        ((k1 + 2 k2) + 2 k3 + k4) * (dt / 6) + z are computed in place, in
        that order.  Raises NonFiniteStateError when the new state is not
        finite, and returns it otherwise, as a view of ``acc``."""
        acc_plan, k_plan = self._planned()
        if self._padded is not None:
            np.copyto(self._padded[:, :self.rows], zT)
            zT = self._padded
        half, sixth, whole, two = self._step_sizes(dt)
        st, k, acc = self.stage, self.k, self.acc
        mul, add = np.multiply, np.add
        np.copyto(st, zT)
        for op, args in acc_plan:
            op(*args)
        mul(acc, half, st)
        add(st, zT, st)
        for op, args in k_plan:
            op(*args)
        mul(k, half, st)
        add(st, zT, st)
        mul(k, two, k)
        add(acc, k, acc)
        for op, args in k_plan:
            op(*args)
        mul(k, whole, st)
        add(st, zT, st)
        mul(k, two, k)
        add(acc, k, acc)
        for op, args in k_plan:
            op(*args)
        add(acc, k, acc)
        mul(acc, sixth, acc)
        add(acc, zT, acc)
        np.isfinite(acc.view(float), self._finite)
        if not np.logical_and.reduce(self._finite, axis=None):
            raise NonFiniteStateError(
                f"non-finite state after an RK4 step (dt up to {float(np.max(dt))!r})"
            )
        return acc[:, :self.rows]


def flow_step(scratch, z, dt, out=None):
    """One classical Runge-Kutta step of z' = F(z); works on batches.

    ``scratch`` is a ``FieldScratch`` of B rows, whose selection says
    which field steps each row.  ``z`` is one point (n,) or a batch
    (B, n), of any memory layout; ``dt`` is a scalar or a (B, 1) array of
    per-row steps.  The step is ``FieldScratch.step`` of ``z.T``.  The new
    state is written to ``out`` (any array of z's shape, z itself
    included) or to a new array, and returned; it never shares memory
    with the scratch, and ``z`` is read only.  Raises ValueError when the
    scratch holds another number of rows, and NonFiniteStateError, before
    anything is written to ``out``, when the new state is not finite.
    """
    z, zT = _points_last(scratch.fields[0], z)
    scratch._require_rows(zT.shape[1])
    new = scratch.step(zT, dt).T.reshape(z.shape)
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


def boundary_invariance_check(fields, rho):
    """Sample Re(F_l(z) conj(z_l)) on each face |z_l| = rho of the polydisk,
    for each of ``fields``; returns one ``BoundaryReport`` per field.

    Every face is probed on a uniform phase grid of 512 points in z_l,
    paired with a low-discrepancy fill (Halton moduli and phases) of the
    remaining coordinates inside the polydisk.  The samples are built
    once, and every field is evaluated on them through one scratch over
    all the fields.  A field points inward at a sample when the tested
    value is negative, and its check holds when every sample does; its
    report keeps the worst (largest) value and the point attaining it.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    n = fields[0].dimension
    count = 512
    # the fill of the k-th other coordinate is the same on every face
    index = np.arange(1, count + 1)
    fill = []
    for slot in range(n - 1):
        h_mod = halton(index, _PRIMES[(2 * slot) % len(_PRIMES)])
        h_arg = halton(index, _PRIMES[(2 * slot + 1) % len(_PRIMES)])
        fill.append(rho * np.sqrt(h_mod) * np.exp(2j * np.pi * h_arg))
    faces = np.zeros((n, n, count), dtype=complex)  # face, then points-last
    phases = 2.0 * np.pi * np.arange(count) / count
    for face, zT in enumerate(faces):
        zT[face] = rho * np.exp(1j * phases)
        for values, c in zip(fill, [c for c in range(n) if c != face]):
            zT[c] = values
    scratch = FieldScratch(fields, count)
    reports = []
    for i in range(len(fields)):
        scratch.select(i)
        worst, worst_point = -np.inf, None
        for face, zT in enumerate(faces):
            vals = np.real(scratch.evaluate(zT)[face] * np.conj(zT[face]))
            j = int(np.argmax(vals))
            if vals[j] > worst:
                worst, worst_point = float(vals[j]), zT[:, j].copy()
        reports.append(BoundaryReport(
            holds=bool(worst < 0.0),
            worst_value=worst,
            worst_point=worst_point,
            samples=n * count,
            rho=float(rho),
        ))
    return reports


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
