"""Run configuration: strict sectioned key-value files.

Unknown sections or keys are hard errors so typos never silently fall back
to defaults.  Every key has a documented default; the minimal valid config
is a bare ``[initial_data]`` section naming a scenario.

``_KEYS`` is the one list of sections and keys: each key's parser converts
its text, checks its range and says why it rejects one.  A key sets the
`RunConfig` field of its name, which holds the default until then; the
scenario parameters and the estimate constants are kept as given, since
their defaults live in `make_state` and `EstimateConstants`.  The scenario
is built once per command: `load_config` builds the model to check it and
keeps it on the `RunConfig`, and `RunConfig.build` adds the initial state.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

from .bounds import EstimateConstants
from .dynamics import ModelSpec
from .errors import ParseError, ValidationError
from .lattice import LatticeSpec
from .scenarios import SCENARIOS, make_model, make_state


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("expected an integer") from None


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("expected a number") from None
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _boolean(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean")


def _dims(text: str) -> tuple[int, ...]:
    parts = text.split()
    if len(parts) != 3:
        raise ValueError("expected three integers")
    return tuple(_integer(p) for p in parts)


def _checked(parse, ok, why: str):
    """parse, then reject a value for which ok is false, saying why."""
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(why)
        return value
    return checked


def _at_least(low: int):
    return _checked(_integer, lambda v: v >= low, f"must be >= {low}")


_positive = _checked(_number, lambda v: v > 0, "must be positive")

# section -> key -> parser, for every config key
_KEYS = {
    "lattice": {"dims": _checked(_dims, lambda d: min(d) >= 1, "must be positive"),
                "dx": _positive},
    "initial_data": {"scenario": _checked(str.strip, SCENARIOS.__contains__,
                                          f"must be one of {', '.join(SCENARIOS)}"),
                     "amplitude": _number, "mode": _integer, "width": _number},
    "integrator": {"dt": _positive, "cfl": _positive, "steps": _at_least(1),
                   "stencil_order": _checked(_integer, (2, 4).__contains__,
                                             "must be 2 or 4")},
    "outputs": {"directory": str.strip, "csv_cadence": _at_least(1),
                "snapshot_cadence": _at_least(0), "plots": _boolean},
    "estimate_constants": {
        "b_n": lambda text: tuple(_number(p) for p in text.split()),
        "C1": _number, "C2": _number, "C3": _number, "c4": _number,
        "N": _integer,
        "J0": lambda text: "auto" if text.strip() == "auto" else _number(text)},
    "run": {"seed": _at_least(0)},
}

# the dict that keeps, as given, the keys of a section with no field of their own
_KEPT_AS_GIVEN = {"initial_data": "scenario_params",
                  "estimate_constants": "constants"}


@contextmanager
def _config_errors():
    """A parsed value that the model, the constants or the initial state
    cannot be built from is a config error."""
    try:
        yield
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ValidationError(str(exc)) from exc


@dataclass
class RunConfig:
    """A run's inputs: one field per config key, at its default unless the
    file sets it, and the scenario parameters and estimate constants that
    the file sets."""

    dims: tuple[int, ...] = (64, 1, 1)
    dx: float = 1.0 / 64
    scenario: str = "vacuum"
    scenario_params: dict = field(default_factory=dict)
    cfl: float | None = 0.25
    dt: float | None = None
    steps: int = 100
    stencil_order: int = 2
    directory: str = "out"
    csv_cadence: int = 1
    snapshot_cadence: int = 0
    plots: bool = True
    constants: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def lattice(self) -> LatticeSpec:
        return LatticeSpec(self.dims, self.dx)

    @property
    def dt_value(self) -> float:
        return self.dt if self.dt is not None else self.cfl * self.dx

    @cached_property
    def model(self) -> ModelSpec:
        """The scenario's model, built on first use and then kept."""
        return make_model(self.scenario, self.stencil_order)

    def build(self):
        """(model, initial state) of the configured scenario: the kept model
        and a newly built state."""
        with _config_errors():
            return self.model, make_state(self.scenario, self.lattice, self.model,
                                          self.scenario_params, self.seed)

    def estimate_constants(self, J0: float) -> EstimateConstants:
        """The estimate constants the config sets, with J0 "auto" (the
        default) read as the given J0 and N by default the degree of the
        model's potential; EstimateConstants holds every other default.
        A value it refuses, such as a J0 that is not finite, is a config
        error."""
        with _config_errors():
            potential = self.model.potential
            given = {"N": potential.polynomial_degree, **self.constants}
            if given.get("J0", "auto") == "auto":
                given["J0"] = float(J0)
            return EstimateConstants(**given, potential_kind=potential.kind)


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


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
        if section not in _KEYS:
            raise ParseError(f"unknown section [{section}] in {path}")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ParseError(f"unknown key {section}.{key} in {path}")

    cfg = RunConfig()
    if parser.has_option("integrator", "dt"):
        if parser.has_option("integrator", "cfl"):
            raise ValidationError(f"integrator.dt: give either dt or cfl, not both "
                                  f"(got {parser['integrator']['dt']!r})")
        cfg.cfl = None
    for section, keys in _KEYS.items():
        for key, parse in keys.items():
            if not parser.has_option(section, key):
                continue
            text = parser[section][key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ValidationError(f"{section}.{key}: {exc} (got {text!r})") from None
            if key in _FIELDS:
                setattr(cfg, key, value)
            else:
                getattr(cfg, _KEPT_AS_GIVEN[section])[key] = value

    # fail fast: the model, kept for the command, and the constants construct
    cfg.estimate_constants(1.0)
    return cfg
