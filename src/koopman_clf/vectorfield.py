"""Complex polynomial vector fields on the unit polydisk.

Fields vanish at the origin and are stored sparsely, one coefficient table
per component.  Components may carry an optional exact l1 norm
(``tail_l1``) covering coefficients beyond the stored truncation, which
downstream absolute-sum operations use instead of the truncated sum.

A field holds only its terms.  A ``FieldScratch`` compiles a family of
fields once and runs the points-last RK4 steps of ``flow_step`` in arrays
it holds and its maker owns (see its docstring).
``boundary_invariance_check`` bounds the field on a polydisk's faces.
"""

import cmath
import math
import warnings

import numpy as np

from .multiindex import order_key
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
    ``tail_l1``, optional, holds the exact l1 coefficient norm of each
    component's full series, at least its stored absolute sum.
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


class FieldScratch:
    """Field plan and work arrays of one caller's points-last RK4 steps of
    ``rows`` points, over a sequence of fields.

    ``fields`` is a sequence of ``PolyVectorField`` (a ``SwitchedFamily``,
    or a list of one field); a new scratch has no selection.  Each field
    is compiled here, once, from its ``components``, into its own slice of
    one (A, K, cols) monomial array ``mono``, A fields in all.  A slice
    starts with the n stage rows z_0 .. z_{n-1}, so a linear term takes no
    product; then come the field's monomials of degree >= 2, each once
    however many components use it, in basis order, each the product of
    its non-zero factors only; the rows past the field's own stay zero.
    Factors of exponent 1 are the slice's stage rows, higher ones rows of
    one power table ``pows``, (P - 1, n, cols), shared by the fields,
    whose row p - 2 holds z ** p for p up to the family's largest exponent
    P; a plan fills it over the components that its fields raise to p or
    more only, and a pure power is copied from it.  A field of
    K_i = n + (its monomials) rows has an (n, K_i) coefficient matrix C,
    held zero-padded to K columns in an (A, n, K) stack, and its double
    2C, made by doubling every real and imaginary part.  Doubling is exact
    barring overflow, and so is every product and sum of a contraction
    with 2C, which is therefore twice the contraction with C, bit for bit;
    halving a step is exact too, so the second and third stages contract
    with 2C and build the next stage input with dt/4 and dt/2 (see
    ``step``).

    ``select`` says which field steps each row, and plans one contraction
    per stage for the set of fields that hold a row, or takes the plan it
    made for that set before.  For a lone field it is one
    (n, K_i) @ (K_i, cols) product of its slice, whose stage rows are the
    stage input ``stage``.  In a mixed batch ``stage`` is the first active
    slice's stage rows, which the plan copies into every other active
    slice; one stacked product over the slices from the first active field
    to the last then writes (m, n, cols) values ``out``, and each row takes
    its own field's values through the flat indices ``index``, which
    ``select`` fills for the rows it is given.  An inactive slice in that
    range is zeroed there, so that no value a field left in an earlier
    selection meets its coefficients.  No coefficient ever multiplies
    another field's monomial, but an active field's monomials are formed
    on every row, and may overflow on rows it does not hold.

    The scratch also holds (n, cols) arrays for the field values ``k`` and
    the running Runge-Kutta sum ``acc``; per-row half, quarter and sixth
    steps ``steps``, filled from one (3, cols) real row ``steps_row``; and
    a scalar step's three as complex 0-d arrays, rewritten when the step
    changes.  ``cols`` is ``rows``, but at least two: a lone row gets a
    padding column at the origin, which every field fixes, so that its
    coefficient products run over two columns, and round as a larger
    batch's do, instead of through numpy's matrix-vector path.  Every
    array is made once, here, and the scratch refuses a batch of any other
    size.  Whoever makes a scratch owns it: every step overwrites it.  A
    step only steps: a row whose own values overflow comes out infinite
    or NaN, and the caller tests what it needs (the audit tests V).
    """

    def __init__(self, fields, rows):
        self.fields = fields = tuple(fields)
        n = fields[0].dimension
        monos = [
            sorted({a for c in f.components for a in c if sum(a) > 1}, key=order_key)
            for f in fields
        ]
        # each field's largest exponent of each component
        self._tops = [[max((a[c] for comp in f.components for a in comp), default=0)
                       for c in range(n)] for f in fields]
        self.rows = rows
        cols = max(rows, 2)
        K, A = n + max(map(len, monos)), len(fields)
        # zeros, so that padding columns stay at the origin and the rows
        # past a field's own monomials add nothing
        self.mono = np.zeros((A, K, cols), dtype=complex)
        top = max(map(max, self._tops))
        self.pows = np.zeros((max(top - 1, 0), n, cols), dtype=complex)
        self.out = np.zeros((A, n, cols), dtype=complex)
        self.index = np.zeros((n, cols), dtype=np.intp)
        self._cells = np.arange(n * cols).reshape(n, cols)
        self._offsets = np.zeros(cols, dtype=np.intp)  # padding columns: 0
        self.k, self.acc = np.zeros((2, n, cols), dtype=complex)
        self._padded = np.zeros((n, cols), dtype=complex) if cols > rows else None
        self.steps = np.zeros((3, n, cols), dtype=complex)
        self.steps_row = np.zeros((3, cols))
        self._sizes = tuple(np.full((), 0, dtype=complex) for _ in range(3))
        self._dt = None
        self._coeffs = np.zeros((2, A, n, K), dtype=complex)  # C and 2C
        self._widths, self._products = [], []
        for f, field_monos, slice_, coeffs in zip(
                fields, monos, self.mono, self._coeffs[0]):
            column = {a: n + t for t, a in enumerate(field_monos)}
            for l, c in enumerate(f.components):
                for alpha, v in c.items():
                    coeffs[l, alpha.index(1) if sum(alpha) == 1 else column[alpha]] = v
            products = []
            for alpha, m in zip(field_monos, slice_[n:]):
                head, *factors = [slice_[c] if p == 1 else self.pows[p - 2, c]
                                  for c, p in enumerate(alpha) if p]
                if factors:
                    products.append((np.multiply, (head, factors[0], m)))
                else:
                    products.append((np.copyto, (m, head)))
                products += [(np.multiply, (m, f, m)) for f in factors[1:]]
            self._widths.append(n + len(field_monos))
            self._products.append(products)
        flat = self._coeffs.view(float)
        np.multiply(flat[0], 2.0, out=flat[1])
        self._plans = {}  # by the tuple of active fields
        self._plan = None  # until the first selection

    def _require_rows(self, rows):
        if rows != self.rows:
            raise ValueError(f"scratch holds {self.rows} rows, not {rows}")

    def select(self, sub):
        """Choose the field that steps each row: ``sub`` is an integer
        array with one field index per row.  Returns the scratch.  Raises
        ValueError when ``sub`` is not one index per row, and, naming the
        index, when one is not an integer in [0, len(fields)).

        A stage is then one flat list of ufunc calls, planned for the
        fields that hold a row, or taken from the plans made for the same
        set of fields before: each power p, as one product over the range
        of components that one of these fields raises to p or more, their
        monomials, and the one contraction, into ``acc``
        with C at the first stage, into ``k`` with 2C at the second and
        third, and into ``k`` with C at the fourth.  A mixed selection
        also fills ``index`` and zeroes the inactive slices in its range.
        """
        index, count = np.asarray(sub), len(self.fields)
        if index.ndim != 1:
            raise ValueError(
                "select takes a 1-d array of subsystem indices, one per row, "
                f"not an array of shape {index.shape}"
            )
        self._require_rows(len(index))
        if index.size and (index.dtype.kind not in "iu"
                           or index.min() < 0 or index.max() >= count):
            bad = next(i for i in index.tolist()
                       if type(i) is not int or not 0 <= i < count)
            raise ValueError(
                f"subsystem index {bad!r} is not an integer in [0, {count})"
            )
        # an empty list of indices is a float array
        index = index.astype(np.intp, copy=False)
        held = np.bincount(index, minlength=count)
        active = tuple(np.flatnonzero(held).tolist())
        if active not in self._plans:
            self._plans[active] = self._plan_stages(active)
        self.stage, self._plan = self._plans[active]
        if len(active) > 1:
            lo, hi = active[0], active[-1] + 1
            # row j of field i takes cell i - lo of the stacked values; a
            # padding column takes field lo's
            offsets = self._offsets[:len(index)]
            np.subtract(index, lo, out=offsets)
            np.multiply(offsets, self.index.size, out=offsets)
            np.add(self._cells, self._offsets, out=self.index)
            for i in range(lo, hi):
                if not held[i]:
                    self.mono[i].fill(0)
        return self

    def _plan_stages(self, active):
        """The stage input and the first, middle and last stage's calls of
        the fields ``active``, by their indices in increasing order."""
        n = self.k.shape[0]
        if not active:  # a scratch of no rows has nothing to run
            return self.mono[0, :n], ([], [], [])
        lo, hi = active[0], active[-1] + 1
        stage = self.mono[lo, :n]
        prep = [(np.copyto, (self.mono[i, :n], stage)) for i in active[1:]]
        tops = [max(t) for t in zip(*(self._tops[i] for i in active))]
        for p in range(2, max(tops) + 1):
            # z ** p of the components an active field raises to p or more
            raised = [c for c, t in enumerate(tops) if t >= p]
            part = slice(raised[0], raised[-1] + 1)
            prev = self.pows[p - 3] if p > 2 else stage
            prep.append((np.multiply, (prev[part], stage[part], self.pows[p - 2, part])))
        for i in active:
            prep += self._products[i]
        stages = []
        C, C2 = self._coeffs
        for coeffs, target in ((C, self.acc), (C2, self.k), (C, self.k)):
            if len(active) == 1:
                width = self._widths[lo]
                calls = [(np.matmul, (np.ascontiguousarray(coeffs[lo, :, :width]),
                                      self.mono[lo, :width], target))]
            else:
                out = self.out[:hi - lo]
                calls = [(np.matmul, (coeffs[lo:hi], self.mono[lo:hi], out)),
                         (out.take, (self.index, None, target, "clip"))]
            stages.append(prep + calls)
        return stage, tuple(stages)

    def _step_sizes(self, dt):
        """Half, quarter and sixth step, as the complex operands the
        products would cast them to: per-row steps in the rows of
        ``steps``, a scalar step in the 0-d arrays, which are rewritten
        only when it changes."""
        half, quarter, sixth = self._sizes
        if isinstance(dt, np.ndarray):
            # per-row steps run along the points axis, and fill every row
            # so that no product broadcasts them through a buffer
            h, row = dt.reshape(-1), self.steps_row[:, :self.rows]
            np.multiply(0.5, h, out=row[0])
            np.multiply(0.25, h, out=row[1])
            np.divide(h, 6.0, out=row[2])
            np.copyto(self.steps, self.steps_row[:, None])
            half, quarter, sixth = self.steps
        elif dt != self._dt or dt == 0:  # a zero step keeps its sign
            self._dt = dt
            half[()], quarter[()], sixth[()] = 0.5 * dt, 0.25 * dt, dt / 6.0
        return half, quarter, sixth

    def step(self, zT, dt):
        """One classical Runge-Kutta step of the points-last batch ``zT``
        (n, rows), of any memory layout, each row under its selected field,
        by ``dt``, a scalar or a (rows, 1) array of per-row steps.  The four
        stages, their inputs and the weighted sum
        ((k1 + 2 k2) + 2 k3 + k4) * (dt / 6) + z are computed in place, in
        that order: k1 straight into ``acc``, 2 k2 and 2 k3 into ``k`` by
        the doubled coefficients, so that their stage inputs take a
        quarter and a half step, and k4 into ``k``.  Halving dt is exact,
        so (2 k2) (dt / 4) is k2 (dt / 2) and (2 k3) (dt / 2) is k3 dt, bit
        for bit.  Returns the new state, finite or not, as a view of
        ``acc``."""
        plan = self._plan
        if plan is None:
            raise ValueError("no field is selected for these rows")
        first, doubled, last = plan
        if self._padded is not None:
            np.copyto(self._padded[:, :self.rows], zT)
            zT = self._padded
        half, quarter, sixth = self._step_sizes(dt)
        st, k, acc = self.stage, self.k, self.acc
        mul, add = np.multiply, np.add
        np.copyto(st, zT)
        for op, args in first:
            op(*args)
        mul(acc, half, st)
        add(st, zT, st)
        for op, args in doubled:
            op(*args)
        mul(k, quarter, st)
        add(st, zT, st)
        add(acc, k, acc)
        for op, args in doubled:
            op(*args)
        mul(k, half, st)
        add(st, zT, st)
        add(acc, k, acc)
        for op, args in last:
            op(*args)
        add(acc, k, acc)
        mul(acc, sixth, acc)
        add(acc, zT, acc)
        return acc[:, :self.rows]


def flow_step(scratch, z, dt, out=None):
    """One classical Runge-Kutta step of z' = F(z) for a batch of points.

    ``scratch`` is a ``FieldScratch`` of B rows, whose selection says
    which field steps each row.  ``z`` is a batch (B, n), of any memory
    layout; ``dt`` is a scalar or a (B, 1) array of per-row steps.  The
    step is ``FieldScratch.step`` of ``z.T``.  The new state is written to
    ``out`` (any (B, n) array, z itself included) or to a new array, and
    returned; it never shares memory with the scratch, and ``z`` is read
    only.  Raises ValueError when ``z`` is not a (B, n) batch or the
    scratch holds another number of rows.  A row that overflows is
    written as it comes out, infinite or NaN; nothing here tests it.
    """
    z = np.asarray(z, dtype=complex)
    n = scratch.fields[0].dimension
    if z.ndim != 2 or z.shape[1] != n:
        raise ValueError(f"flow_step takes a (B, {n}) batch of points, "
                         f"not an array of shape {z.shape}")
    scratch._require_rows(len(z))
    new = scratch.step(z.T, dt).T
    if out is None:
        return new.copy()
    np.copyto(out, new)
    return out


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
                stored = math.fsum(abs(v) for v in comp.values())
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
