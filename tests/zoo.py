"""A zoo of small switched families with known answers.

Each builder returns a ``SwitchedFamily`` and its docstring says what the
family shows and what the tool must answer; ``tests/test_zoo.py`` pins one
claim per family.  Components are 0-based, exponents are tuples.
"""

import numpy as np

from koopman_clf.analysis import substitute_linear
from koopman_clf.config import example1_config
from koopman_clf.vectorfield import PolyVectorField, SwitchedFamily

S = np.array([[1.0, 0.4], [-0.3, 1.0]])
S_INV = np.array([[1.0, -0.4], [0.3, 1.0]]) / 1.12  # det S = 1.12


def _family(*fields):
    return SwitchedFamily(PolyVectorField(components) for components in fields)


def conjugate(family):
    """The family S F(S^-1 w), with S^-1 written out, since LAPACK's inverse
    moves in its last bit with the BLAS kernel."""
    return SwitchedFamily(substitute_linear(f, S_INV, S) for f in family)


def diagonal_pair():
    """(-z1, -z2) and (-2 z1, -1.5 z2): |z|^2 decreases on all of C^2, so
    the pair is certified at rho = 1 for every N (ROADMAP item 6: its
    weight floors underflow, and N = 30 exits 4)."""
    return _family([{(1, 0): -1.0}, {(0, 1): -1.0}],
                   [{(1, 0): -2.0}, {(0, 1): -1.5}])


def trap_family():
    """example1 with 10 z1^13 added to the first component of the first
    subsystem.  On the z1 axis that subsystem is z1' = -z1 + 10 z1^13, with
    equilibria at |z1| = 0.1^(1/12) = 0.825, so the unit polydisk is not
    forward invariant and must not be certified at any N (item 20)."""
    cfg = example1_config()
    cfg.subsystems[0][0][0][(13, 0)] = 10.0
    return cfg.build_family()


def focus_pair():
    """(-z1 + 2 z2 + 0.2 z1^2, -2 z1 - z2) and (-1.5 z1 + 3 z2, -3 z1 - 1.5 z2
    + 0.1 z2^2): commuting linear parts with eigenvalues -1 +- 2i and
    -1.5 +- 3i.  The dominance radius rests on an extrapolated sup that
    larger N take back, so it grows when N falls (item 3)."""
    return _family(
        [{(1, 0): -1.0, (0, 1): 2.0, (2, 0): 0.2}, {(1, 0): -2.0, (0, 1): -1.0}],
        [{(1, 0): -1.5, (0, 1): 3.0},
         {(1, 0): -3.0, (0, 1): -1.5, (0, 2): 0.1}],
    )


def split_example1():
    """example1 with subsystem 2's second diagonal at -1.2.  Its Jacobians
    are diagonal and distinct, so the flag is unique up to order and the
    tool keeps P = I; the polynomial scheme certifies it."""
    cfg = example1_config()
    cfg.subsystems[1][0][1][(0, 1)] = -1.2
    return cfg.build_family()


def conjugated_split_example1():
    """``split_example1`` conjugated by S.  The same family in other
    coordinates, so it must get the same verdict; the polynomial scheme
    fails it in the tool's flag coordinates (item 2)."""
    return conjugate(split_example1())


def example1_b034():
    """example1 with b = 0.34: the polynomial scheme's limit 9 b^2 / a^2 =
    1.0404 is above one, so the pair must not be certified on the unit
    polydisk at any N; at N = 12 the computed sup reads 0.9537 and it is
    (item 3, the polynomial twin of the focus pair)."""
    return example1_config(b=0.34).build_family()


def non_solvable_pair():
    """Jacobians [[-1, 1], [0, -1]] and [[-1, 0], [1, -1]]: they generate
    all of gl(2), whose derived series [4, 3, 3] does not reach zero, so
    the analysis stops at solvability (exit 2)."""
    return _family([{(1, 0): -1.0, (0, 1): 1.0}, {(0, 1): -1.0}],
                   [{(1, 0): -1.0}, {(1, 0): 1.0, (0, 1): -1.0}])


def three_dimensional_pair():
    """(-z1 + 0.2 z2 z3, -1.1 z2 + 0.2 z3^2, -1.2 z3) and (-1.3 z1 + 0.3 z2
    + 0.2 z2^2, -z2 - 0.2 z2 z3, -1.1 z3), upper triangular linear parts:
    the polynomial scheme certifies rho = 1 on a sup it computes rather
    than extrapolates (item 19)."""
    return _family(
        [{(1, 0, 0): -1.0, (0, 1, 1): 0.2},
         {(0, 1, 0): -1.1, (0, 0, 2): 0.2},
         {(0, 0, 1): -1.2}],
        [{(1, 0, 0): -1.3, (0, 1, 0): 0.3, (0, 2, 0): 0.2},
         {(0, 1, 0): -1.0, (0, 1, 1): -0.2},
         {(0, 0, 1): -1.1}],
    )


ZOO = {
    "diagonal-pair": diagonal_pair,
    "trap-family": trap_family,
    "focus-pair": focus_pair,
    "split-example1": split_example1,
    "conjugated-split-example1": conjugated_split_example1,
    "example1-b0.34": example1_b034,
    "non-solvable-pair": non_solvable_pair,
    "three-dimensional-pair": three_dimensional_pair,
}
