"""System configuration: JSON schema, validation, example generators.

A config bundles the switched family (sparse complex coefficients, one
list per subsystem), the analysis choices (truncation degree, weight
scheme, optional radius request) and the simulation parameters used by
the audit.  Components are 1-based in the JSON for readability; the
library is 0-based internally.
"""

import json
import math
from typing import NamedTuple

from .vectorfield import PolyVectorField, SwitchedFamily


def _json_typed(name, value, types, what):
    """``value`` if it has one of the JSON ``types``; a bool is neither an
    integer nor a number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _json_float(name, value):
    """``value`` as a float if it is a JSON number that fits one."""
    value = _json_typed(name, value, (int, float), "a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be a number that fits a float, got an integer of "
            f"{len(str(abs(value)))} digits"
        ) from None


def _json_object(name, value, required, optional):
    """``value`` if it is a JSON object with every ``required`` key and no
    key outside ``required`` and ``optional``; ``name`` is its path."""
    _json_typed(name, value, dict, "an object")
    prefix = "" if name == "config" else name + "."
    for key in value:
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {prefix}{key}")
    for key in required:
        if key not in value:
            raise ValueError(f"{prefix}{key} is missing")
    return value


def _optional_number(name, value):
    return None if value is None else _json_float(name, value)


class _SimulationFields(NamedTuple):
    dt: float = 1e-3
    horizon: float = 20.0
    trials: int = 100
    points: int = 50
    seed: int = 7
    min_dwell: float = 0.05
    max_dwell: float = 1.0


class SimulationParams(_SimulationFields):
    """The audit's simulation block.  Every construction, ``_replace``
    included, checks the fields and stores the four times as floats."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raw = super().__new__(cls, *args, **kwargs)
        for name in ("trials", "points", "seed"):
            _json_typed(f"simulation.{name}", getattr(raw, name), int, "an integer")
        if raw.seed < 0:
            raise ValueError(f"simulation.seed must be >= 0, got {raw.seed}")
        floats = {}
        for name in ("dt", "horizon", "min_dwell", "max_dwell"):
            value = _json_float(f"simulation.{name}", getattr(raw, name))
            if not math.isfinite(value):
                raise ValueError(f"simulation.{name} must be finite")
            floats[name] = value
        self = super().__new__(cls, **{**raw._asdict(), **floats})
        for name, bad, bound in (
            ("trials", self.trials < 1, ">= 1"), ("points", self.points < 1, ">= 1"),
            ("dt", self.dt <= 0, "> 0"), ("horizon", self.horizon < 0, ">= 0"),
            ("min_dwell", self.min_dwell <= 0, "> 0"),
            ("max_dwell", self.max_dwell < self.min_dwell,
             f">= simulation.min_dwell {self.min_dwell!r}"),
        ):
            if bad:
                raise ValueError(f"simulation.{name} must be {bound}, "
                                 f"got {getattr(self, name)!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def to_json_dict(self):
        return self._asdict()


class SystemConfig(NamedTuple):
    """Declarative description of one analysis problem."""

    dimension: int
    truncation_degree: int
    subsystems: list  # list of (coefficient dict list per component, tail_l1)
    scheme_kind: str = "polynomial"
    xi: float = None
    kappa: float = None
    eta: float = 0.5
    rho_request: float = None
    simulation: SimulationParams = SimulationParams()

    def build_family(self):
        """The switched family; a field check that fails names the path of
        its subsystem."""
        fields = []
        for s, (comps, tail) in enumerate(self.subsystems):
            try:
                fields.append(PolyVectorField(comps, tail_l1=tail))
            except ValueError as exc:
                raise ValueError(f"subsystems[{s}]: {exc}") from None
        return SwitchedFamily(fields)

    def to_json_dict(self):
        subs = []
        for comps, tail in self.subsystems:
            coeffs = []
            for l, table in enumerate(comps):
                for alpha in sorted(table):
                    v = complex(table[alpha])
                    coeffs.append(
                        {
                            "component": l + 1,
                            "exponents": list(alpha),
                            "re": v.real,
                            "im": v.imag,
                        }
                    )
            subs.append(
                {
                    "coefficients": coeffs,
                    "tail_l1": None if tail is None else list(tail),
                }
            )
        return {
            "dimension": self.dimension,
            "truncation_degree": self.truncation_degree,
            "scheme": {"kind": self.scheme_kind, "xi": self.xi, "kappa": self.kappa},
            "eta": self.eta,
            "rho_request": self.rho_request,
            "subsystems": subs,
            "simulation": self.simulation.to_json_dict(),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data):
        """Read the dict form of ``to_json_dict``, its coefficients in any
        order.  Raises ValueError naming the path of a missing, unknown,
        mistyped or out-of-range field."""
        return cls.from_json_dict_with_family(data)[0]

    @classmethod
    def from_json_dict_with_family(cls, data):
        """``from_json_dict``, and the switched family that it builds to
        check the coefficients: ``(config, family)``."""
        _json_object(
            "config", data, ("dimension", "truncation_degree", "subsystems"),
            ("scheme", "eta", "rho_request", "simulation"),
        )
        n, degree = (
            _json_typed(key, data[key], int, "an integer")
            for key in ("dimension", "truncation_degree")
        )
        raw_subs = _json_typed(
            "subsystems", data["subsystems"], list, "a list of objects"
        )
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if degree < 2:
            raise ValueError("truncation_degree must be >= 2")
        if not raw_subs:
            raise ValueError("config needs at least one subsystem")
        subsystems = []
        for s, raw in enumerate(raw_subs):
            raw = _json_object(f"subsystems[{s}]", raw, (), ("coefficients", "tail_l1"))
            comps = [dict() for _ in range(n)]
            coefficients = _json_typed(
                f"subsystems[{s}].coefficients", raw.get("coefficients", []),
                list, "a list of objects",
            )
            for i, c in enumerate(coefficients):
                where = f"subsystems[{s}].coefficients[{i}]"
                c = _json_object(where, c, ("component", "exponents", "re"), ("im",))
                component = _json_typed(
                    f"{where}.component", c["component"], int, "an integer"
                )
                l = component - 1
                if not 0 <= l < n:
                    raise ValueError(
                        f"{where}.component must lie in 1..{n}, got {component}"
                    )
                exponents = _json_typed(
                    f"{where}.exponents", c["exponents"], list, "a list"
                )
                alpha = tuple(
                    _json_typed(f"{where}.exponents", a, int, "a list of integers")
                    for a in exponents
                )
                if len(alpha) != n:
                    raise ValueError(
                        f"{where}.exponents must have {n} entries, got {list(alpha)}"
                    )
                if alpha in comps[l]:
                    raise ValueError(
                        f"{where}: component {l + 1} lists exponents "
                        f"{list(alpha)} twice"
                    )
                comps[l][alpha] = complex(
                    _json_float(f"{where}.re", c["re"]),
                    _json_float(f"{where}.im", c.get("im", 0.0)),
                )
            tail = raw.get("tail_l1")
            if tail is not None:
                name = f"subsystems[{s}].tail_l1"
                tail = [
                    _json_float(name, t)
                    for t in _json_typed(name, tail, list, "a list or null")
                ]
            subsystems.append((comps, tail))
        eta = _json_float("eta", data.get("eta", 0.5))
        if not (math.isfinite(eta) and eta > 0):
            raise ValueError(f"eta must be finite and positive, got {eta!r}")
        scheme, sim_raw = (
            {} if data.get(key) is None else _json_object(key, data[key], (), keys)
            for key, keys in (("scheme", ("kind", "xi", "kappa")),
                              ("simulation", SimulationParams().to_json_dict()))
        )
        kind = _json_typed(
            "scheme.kind", scheme.get("kind", "polynomial"), str, "a string"
        )
        cfg = cls(
            dimension=n,
            truncation_degree=degree,
            subsystems=subsystems,
            scheme_kind=kind,
            xi=_optional_number("scheme.xi", scheme.get("xi")),
            kappa=_optional_number("scheme.kappa", scheme.get("kappa")),
            eta=eta,
            rho_request=_optional_number("rho_request", data.get("rho_request")),
            simulation=SimulationParams(**sim_raw),
        )
        return cfg, cfg.build_family()


def example1_config(a=1.0, b=0.3, degree=12):
    """Polynomial pair: a diagonal contraction and a cubic perturbation.

    Subsystem 1 is (-a z1, -a z2); subsystem 2 adds b z1^2 - b z1 z2^2 to
    the first component and (b/2) z1 z2 to the second.  The uniform
    scheme certifies the pair on the full polydisk for 3 |b| < a.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    f1 = [{(1, 0): -a}, {(0, 1): -a}]
    f2 = [
        {(1, 0): -a, (2, 0): b, (1, 2): -b},
        {(0, 1): -a, (1, 1): b / 2.0},
    ]
    return SystemConfig(
        dimension=2,
        truncation_degree=degree,
        subsystems=[(f1, None), (f2, None)],
        scheme_kind="polynomial",
    )


def example2_config(mu=3.0, degree=20):
    """Analytic pair with exact tail norms, coupling strength 1/mu.

    Subsystem 1 is (-z1 + z1^2 sin^2(z1) z2 / mu, -z2), subsystem 2 the
    same with cos^2; coefficients are stored to the requested degree and
    the exact l1 norms ride along, so absolute-sum quantities are exact.
    The simulation block takes criterion 8's step, dt = 0.01.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    c1 = {(1, 0): -1.0 + 0j}
    c2 = {(1, 0): -1.0 + 0j, (2, 1): 1.0 / mu}
    p = 1
    while 2 * p + 3 <= degree:
        if 2 * p <= 170:  # (2p)! fits a float
            coeff = 2.0 ** (2 * p - 1) / math.factorial(2 * p) / mu
        else:  # the exact integer quotient
            coeff = 2 ** (2 * p - 1) / math.factorial(2 * p) / mu
        if coeff == 0.0:  # so is every later one (from 2p = 206 at mu = 1)
            break
        c1[(2 * p + 2, 1)] = (-1.0) ** (p + 1) * coeff
        c2[(2 * p + 2, 1)] = (-1.0) ** p * coeff
        p += 1
    tail1 = [1.0 + (math.cosh(2.0) - 1.0) / (2.0 * mu), 1.0]
    tail2 = [1.0 + (math.cosh(2.0) + 1.0) / (2.0 * mu), 1.0]
    f1 = [c1, {(0, 1): -1.0 + 0j}]
    f2 = [c2, {(0, 1): -1.0 + 0j}]
    return SystemConfig(
        dimension=2,
        truncation_degree=degree,
        subsystems=[(f1, tail1), (f2, tail2)],
        scheme_kind="diagonal_dominance",
        simulation=SimulationParams(dt=0.01),  # criterion 8's step
    )
