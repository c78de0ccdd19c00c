"""Run configuration: strict sectioned key-value files.

Unknown sections or keys are hard errors so typos never silently fall back
to defaults.  Every key has a documented default; the minimal valid config
is a bare ``[initial_data]`` section naming a scenario.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .bounds import EstimateConstants
from .errors import ParseError, ValidationError
from .lattice import LatticeSpec
from .potentials import PotentialFamily, PotentialKind
from .scenarios import SCENARIOS, build as build_scenario

_SCHEMA = {
    "lattice": {"dims", "dx"},
    "initial_data": {"scenario", "amplitude", "mode", "width"},
    "integrator": {"cfl", "dt", "steps", "stencil_order"},
    "outputs": {"directory", "csv_cadence", "snapshot_cadence", "plots"},
    "estimate_constants": {"b_n", "C1", "C2", "C3", "c4", "N", "J0"},
    "run": {"seed"},
}


@dataclass
class RunConfig:
    lattice: LatticeSpec = field(default_factory=lambda: LatticeSpec((64, 1, 1), 1.0 / 64))
    scenario: str = "vacuum"
    scenario_params: dict = field(default_factory=dict)
    cfl: float | None = 0.25
    dt: float | None = None
    steps: int = 100
    stencil_order: int = 2
    out_dir: str = "out"
    csv_cadence: int = 1
    snapshot_cadence: int = 0
    plots: bool = True
    constants_raw: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def dt_value(self) -> float:
        if self.dt is not None:
            return self.dt
        return self.cfl * self.lattice.dx

    def build(self):
        """Construct (model, state) for the configured scenario."""
        return build_scenario(self.scenario, self.lattice, self.scenario_params,
                              self.seed, self.stencil_order)

    def estimate_constants(self, J0: float,
                           potential: PotentialFamily) -> EstimateConstants:
        """The configured estimate constants.  N defaults to the degree
        (at least 1) of the built model's potential when it is polynomial,
        else to 1, and J0 "auto" to the given J0."""
        raw = self.constants_raw
        default_N = max(potential.polynomial_degree, 1) \
            if potential.kind is PotentialKind.POLYNOMIAL else 1
        j0 = raw.get("J0", "auto")
        return EstimateConstants(
            b_n=tuple(raw.get("b_n", (1.0, 1.0))),
            C1=raw.get("C1", 0.0), C2=raw.get("C2", 0.0), C3=raw.get("C3", 0.0),
            c4=raw.get("c4", 1.0), N=int(raw.get("N", default_N)),
            J0=float(J0 if j0 == "auto" else j0),
            potential_kind=potential.kind)


def _fail_key(section: str, key: str, value: str, why: str):
    raise ValidationError(f"{section}.{key}: {why} (got {value!r})")


def _as_float(section, key, value):
    try:
        v = float(value)
    except ValueError:
        _fail_key(section, key, value, "expected a number")
    if not math.isfinite(v):
        _fail_key(section, key, value, "expected a finite number")
    return v


def _as_int(section, key, value):
    try:
        return int(value)
    except ValueError:
        _fail_key(section, key, value, "expected an integer")


def _as_bool(section, key, value):
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    _fail_key(section, key, value, "expected a boolean")


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str          # keys are case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"config syntax error in {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ParseError(f"unknown section [{section}] in {path}")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ParseError(f"unknown key {section}.{key} in {path}")

    cfg = RunConfig()
    if parser.has_section("lattice"):
        s = parser["lattice"]
        dims = tuple(cfg.lattice.dims)
        dx = cfg.lattice.dx
        if "dims" in s:
            parts = s["dims"].split()
            if len(parts) != 3:
                _fail_key("lattice", "dims", s["dims"], "expected three integers")
            dims = tuple(_as_int("lattice", "dims", p) for p in parts)
        if "dx" in s:
            dx = _as_float("lattice", "dx", s["dx"])
        if min(dims) < 1 or dx <= 0:
            _fail_key("lattice", "dims/dx", f"{dims} {dx}", "must be positive")
        cfg.lattice = LatticeSpec(dims, dx)

    if parser.has_section("initial_data"):
        s = parser["initial_data"]
        if "scenario" in s:
            cfg.scenario = s["scenario"].strip()
        if cfg.scenario not in SCENARIOS:
            _fail_key("initial_data", "scenario", cfg.scenario,
                      f"must be one of {', '.join(SCENARIOS)}")
        for key in ("amplitude", "width"):
            if key in s:
                cfg.scenario_params[key] = _as_float("initial_data", key, s[key])
        if "mode" in s:
            cfg.scenario_params["mode"] = _as_int("initial_data", "mode", s["mode"])

    if parser.has_section("integrator"):
        s = parser["integrator"]
        if "dt" in s and "cfl" in s:
            _fail_key("integrator", "dt", s["dt"], "give either dt or cfl, not both")
        if "dt" in s:
            cfg.dt = _as_float("integrator", "dt", s["dt"])
            cfg.cfl = None
            if cfg.dt <= 0:
                _fail_key("integrator", "dt", s["dt"], "must be positive")
        if "cfl" in s:
            cfg.cfl = _as_float("integrator", "cfl", s["cfl"])
            if cfg.cfl <= 0:
                _fail_key("integrator", "cfl", s["cfl"], "must be positive")
        if "steps" in s:
            cfg.steps = _as_int("integrator", "steps", s["steps"])
            if cfg.steps < 1:
                _fail_key("integrator", "steps", s["steps"], "must be >= 1")
        if "stencil_order" in s:
            cfg.stencil_order = _as_int("integrator", "stencil_order", s["stencil_order"])
            if cfg.stencil_order not in (2, 4):
                _fail_key("integrator", "stencil_order", s["stencil_order"],
                          "must be 2 or 4")

    if parser.has_section("outputs"):
        s = parser["outputs"]
        if "directory" in s:
            cfg.out_dir = s["directory"].strip()
        if "csv_cadence" in s:
            cfg.csv_cadence = _as_int("outputs", "csv_cadence", s["csv_cadence"])
            if cfg.csv_cadence < 1:
                _fail_key("outputs", "csv_cadence", s["csv_cadence"], "must be >= 1")
        if "snapshot_cadence" in s:
            cfg.snapshot_cadence = _as_int("outputs", "snapshot_cadence",
                                           s["snapshot_cadence"])
            if cfg.snapshot_cadence < 0:
                _fail_key("outputs", "snapshot_cadence", s["snapshot_cadence"],
                          "must be >= 0")
        if "plots" in s:
            cfg.plots = _as_bool("outputs", "plots", s["plots"])

    if parser.has_section("estimate_constants"):
        s = parser["estimate_constants"]
        if "b_n" in s:
            cfg.constants_raw["b_n"] = tuple(
                _as_float("estimate_constants", "b_n", p) for p in s["b_n"].split())
        for key in ("C1", "C2", "C3", "c4"):
            if key in s:
                cfg.constants_raw[key] = _as_float("estimate_constants", key, s[key])
        if "N" in s:
            cfg.constants_raw["N"] = _as_int("estimate_constants", "N", s["N"])
        if "J0" in s:
            v = s["J0"].strip()
            cfg.constants_raw["J0"] = v if v == "auto" \
                else _as_float("estimate_constants", "J0", v)

    if parser.has_section("run") and "seed" in parser["run"]:
        cfg.seed = _as_int("run", "seed", parser["run"]["seed"])
        if cfg.seed < 0:
            _fail_key("run", "seed", parser["run"]["seed"], "must be >= 0")

    # fail fast: scenario model and constants must construct
    try:
        model, _ = cfg.build()
        cfg.estimate_constants(1.0, model.potential)
    except (ParseError, ValidationError):
        raise
    except Exception as exc:
        raise ValidationError(str(exc)) from exc
    return cfg
