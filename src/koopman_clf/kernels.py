"""The audit's batched kernels: RK4 steps of a switched family and
evaluations of the common Lyapunov function V.

A ``FieldScratch`` compiles a family of fields once and runs the
points-last RK4 steps of ``flow_step`` in arrays it holds and its maker
owns (see its docstring).  A ``CommonLyapunovFunction`` evaluates
V(z) = sum_k eps_k |(P^{-1} z)^{alpha(k)}|^2 of a certificate's weights,
flag change and basis at a batch of points, in the arrays of a
``ValueScratch``.  Only the audit, ``switchsim``, runs them, so this
module loads with it and the analysis never compiles it.
"""

import numpy as np

from .multiindex import order_key


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


class ValueScratch:
    """Work arrays of one caller's batched V evaluations at ``rows`` points
    in dimension n with truncation degree N.

    ``zh`` (rows, n) takes the points in flag coordinates (``value_batch``
    writes its ``hat`` there), ``mod`` (rows, n) their moduli; every
    ``value_batch`` leaves its batch's there.  The (N + 1, n, cols) table
    holds |z_c|^(2p), and the contraction runs in two real buffers of
    max((N + 1)^(n - 1), 2) and (N + 1)^(n - 2) rows, all of
    cols = max(rows, 2) columns, since a lone point is contracted as two
    equal columns.  Whoever makes a scratch owns it: every evaluation
    overwrites it, and the values ``value_batch`` returns are a view into
    it.
    """

    def __init__(self, clf, rows):
        n, N1 = clf.basis.dimension, clf._grid.shape[0]
        cols = max(rows, 2)
        self.rows = rows
        self.zh = np.empty((rows, n), dtype=complex)
        self.mod = np.empty((rows, n))
        self.pows = np.empty((N1, n, cols))
        self.pows[0] = 1.0
        self.acc = np.empty((len(clf._lead), cols))
        self.spare = np.empty((N1 ** max(n - 2, 0), cols))


class CommonLyapunovFunction:
    """Evaluator of V(z) = sum_k eps_k |(P^{-1} z)^{alpha(k)}|^2."""

    def __init__(self, epsilon, P_inv, basis):
        self.epsilon = np.asarray(epsilon, dtype=float)
        if self.epsilon.shape[0] != basis.size:
            raise ValueError("weight vector does not match the basis")
        self.P_inv = np.asarray(P_inv, dtype=complex)
        self.basis = basis
        # degree grid: G[alpha] = eps_k at alpha = alpha(k), zero elsewhere
        N = basis.max_degree
        self._grid = np.zeros((N + 1,) * basis.dimension)
        self._grid[tuple(basis.exponents[1:].T)] = self.epsilon
        # the grid as the matrix of the first contraction; for n = 1 its one
        # row is doubled, so that numpy multiplies it as a matrix
        lead = self._grid.reshape(N + 1, -1).T
        self._lead = np.repeat(lead, 2, axis=0) if len(lead) == 1 else lead

    def hat(self, z, out=None):
        """Flag coordinates P^{-1} z of one point (n,) or of a batch
        (B, n), written to ``out`` when given.

        A point's coordinates do not depend on the batch it is in: numpy's
        matrix-vector product rounds differently from its matrix product,
        so a lone point is multiplied as two equal rows.
        """
        z = np.asarray(z, dtype=complex)
        if z.ndim == 2 and len(z) != 1:
            return np.matmul(z, self.P_inv.T, out=out)
        pair = np.matmul(np.stack((z.reshape(-1),) * 2), self.P_inv.T)
        one = pair[:1].reshape(z.shape)
        if out is None:
            return one
        np.copyto(out, one)
        return out

    def value_batch(self, Z, scratch=None):
        """V at a batch of points (B, n).

        The weight grid is contracted with the power tables |z_c|^(2p),
        p = 0..N, one coordinate axis at a time; for n = 2 this is
        rowsum((X_1 @ G) * X_2).  The tables are laid out (power, coord,
        point), and every operation runs over contiguous rows of points.
        With a ``ValueScratch`` of B rows every array lives in it, the
        flag coordinates are left in ``scratch.zh`` and the moduli |z| in
        ``scratch.mod``, and the returned values are a view into the
        scratch; without one, a scratch is made for the call.  V of a
        point does not depend on the batch it is in: numpy multiplies a
        single row or column through its matrix-vector paths, which round
        differently from its matrix product, so a lone point is
        contracted as two equal columns (and for n = 1 the grid as two
        equal rows).
        """
        Z = np.asarray(Z, dtype=complex)
        B, n = Z.shape
        own = scratch is None
        if own:
            scratch = ValueScratch(self, B)
        elif scratch.rows != B:
            raise ValueError(f"scratch holds {scratch.rows} rows, not {B}")
        W = np.abs(self.hat(Z, out=scratch.zh), out=scratch.mod).T
        X, G = scratch.pows, self._grid  # (N + 1, n, max(B, 2))
        cols = X.shape[2]
        np.multiply(W, W, out=X[1])  # a lone point fills both columns
        for p in range(2, len(X)):
            np.multiply(X[p - 1], X[1], out=X[p])
        acc = np.matmul(self._lead, X[:, 0], out=scratch.acc)
        flat = scratch.acc.reshape(-1), scratch.spare.reshape(-1)
        for c in range(1, n):  # the sums alternate between the two buffers
            acc = acc.reshape(len(G), -1, cols)
            acc *= X[:, c, None]
            out = flat[c % 2][:acc[0].size].reshape(-1, cols)
            acc = np.add.reduce(acc, axis=0, out=out)
        return acc[0, :B].copy() if own else acc[0, :B]
