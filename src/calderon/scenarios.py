"""Scenario configuration: strict JSON configs resolved into meshes and
potentials.

All numeric defaults live in the JSON schema below, never in module logic;
unknown keys and non-finite numbers are always fatal.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ConfigurationError, DiskDomain, Mesh, build_disk_mesh, bump
from .holo import HoloFunction, build_amplitude, build_morse_phase

_POTENTIAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["profile"],
    "properties": {
        "profile": {"enum": ["zero", "gaussian", "radial_bump", "piecewise"]},
        "amplitude": {"type": "number", "default": 1.0},
        "center": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
            "default": [0.0, 0.0],
        },
        "width": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.25},
        "pieces": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 3,
                "maxItems": 3,
            },
            "default": [],
        },
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "calderon scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "seed"],
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer"},
        "resolution": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.0175},
        "rho": {
            "description": "constant conformal log-factor, or a named profile",
            "oneOf": [{"type": "number"}, _POTENTIAL_SCHEMA],
            "default": 0.0,
        },
        "gamma0": {
            "description": "inaccessible arc [theta_a, theta_b]; null = full data",
            "oneOf": [
                {"type": "null"},
                {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            ],
            "default": [0.0, 1.5707963267948966],
        },
        "v1": {**_POTENTIAL_SCHEMA, "default": {"profile": "gaussian", "amplitude": 1.0, "center": [0.2, 0.1], "width": 0.25}},
        "v2": {**_POTENTIAL_SCHEMA, "default": {"profile": "zero"}},
        "h_list": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0.0},
            "minItems": 1,
            "default": [0.2, 0.14, 0.1, 0.07, 0.05],
        },
        "degree": {"type": "integer", "minimum": 1, "default": 16},
        "phase_degree": {"type": "integer", "minimum": 4, "default": 36},
        "vanish_order": {"type": "integer", "minimum": 1, "default": 4},
        "epsilon": {"type": "number", "exclusiveMinimum": 0.0, "default": 1.0},
        "psi_target": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.8},
        "point": {
            "description": "interior evaluation point for cgo/reconstruct",
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
            "default": [0.2, 0.1],
        },
        "theta_p": {"type": "number", "default": 3.141592653589793},
        "boundary_h_list": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0.0},
            "minItems": 2,
            "default": [0.15, 0.12, 0.1, 0.08, 0.06, 0.05],
        },
        "grid_n": {"type": "integer", "minimum": 1, "default": 7},
        "grid_radius": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.6},
        "carleman_samples": {"type": "integer", "minimum": 1, "default": 50},
        "carleman_psi_target": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.12},
        "cgo_regimes": {
            "description": "residual-scaling sweep settings; weak phases probe the completion remainder, strong phases the transport hierarchy",
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["psi_target", "cutoff_scale"],
                "properties": {
                    "psi_target": {"type": "number", "exclusiveMinimum": 0.0},
                    "cutoff_scale": {"type": "number", "exclusiveMinimum": 0.0},
                },
            },
            "default": [
                {"psi_target": 0.12, "cutoff_scale": 1.0},
                {"psi_target": 0.45, "cutoff_scale": 1.9},
            ],
        },
    },
}


def _apply_defaults(config: dict) -> dict:
    """A deep copy of config with the schema defaults filled in, so that the
    caller's dict, nested v1/v2 included, is left as it was."""
    out = copy.deepcopy(config)
    for key, sub in SCHEMA["properties"].items():
        if key not in out and "default" in sub:
            out[key] = copy.deepcopy(sub["default"])
    for key in ("v1", "v2"):
        if isinstance(out.get(key), dict):
            out[key] = _with_potential_defaults(out[key])
    return out


def _with_potential_defaults(spec: dict) -> dict:
    """A copy of a potential spec with each missing key set to its
    _POTENTIAL_SCHEMA default."""
    missing = {k: s["default"] for k, s in _POTENTIAL_SCHEMA["properties"].items() if k not in spec and "default" in s}
    return {**spec, **copy.deepcopy(missing)}


# the keywords _schema_errors implements; the last four are annotations
_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties", "items", "minItems", "maxItems",
             "minimum", "exclusiveMinimum", "oneOf", "default", "description", "title", "$schema"}


def _schema_errors(value, schema: dict, path: tuple = (), finite: bool = False) -> list:
    """(path, message) pairs for a JSON value against a schema, by Draft
    2020-12 rules: an integer may be written 1.0, and a bool is no number.
    Only the keywords of SCHEMA and cli.SUMMARY_SCHEMA are implemented
    (additionalProperties false only); any other raises.  finite=True also
    refuses NaN and +-Infinity, which a Draft 2020-12 validator admits."""
    if set(schema) - _KEYWORDS or schema.get("additionalProperties", False) is not False:
        raise ValueError(f"schema keywords not implemented: {schema}")
    if finite and isinstance(value, float) and not math.isfinite(value):
        return [(path, f"{value!r} is not a finite number")]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    is_type = {"object": isinstance(value, dict), "array": isinstance(value, list), "string": isinstance(value, str),
               "boolean": isinstance(value, bool), "null": value is None, "number": number,
               "integer": number and (isinstance(value, int) or value.is_integer())}
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    if types and not any(is_type[t] for t in types):
        return [(path, f"{value!r} is not of type {' or '.join(types)}")]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append((path, f"{value!r} is not one of {schema['enum']}"))
    if "oneOf" in schema and sum(not _schema_errors(value, sub, path, finite) for sub in schema["oneOf"]) != 1:
        errors.append((path, f"{value!r} does not match exactly one of its oneOf schemas"))
    if number and value < schema.get("minimum", value):
        errors.append((path, f"{value!r} is below the minimum {schema['minimum']}"))
    if number and value <= schema.get("exclusiveMinimum", -math.inf):
        errors.append((path, f"{value!r} is not above {schema['exclusiveMinimum']}"))
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            errors.append((path, f"{len(value)} items, not {schema.get('minItems', 0)} to {schema.get('maxItems', 'any')}"))
        for i, item in enumerate(value if "items" in schema else ()):
            errors += _schema_errors(item, schema["items"], path + (i,), finite)
    if isinstance(value, dict):
        errors += [(path, f"required key {k!r} is missing") for k in schema.get("required", ()) if k not in value]
        for key, item in value.items():
            if key in schema.get("properties", {}):
                errors += _schema_errors(item, schema["properties"][key], path + (key,), finite)
            elif "additionalProperties" in schema:
                errors.append((path + (key,), f"unknown key {key!r}"))
    return errors


def _require_schema(value, schema: dict, error: type, what: str, finite: bool = False) -> None:
    """Raise error("<what>: loc: message; ...") if value breaks schema."""
    errors = sorted(_schema_errors(value, schema, (), finite), key=lambda e: e[0])
    if errors:
        raise error(f"{what}: " + "; ".join(f"{'.'.join(map(str, p)) or '<root>'}: {m}" for p, m in errors))


def validate_config(config: dict) -> dict:
    """Strictly validate; unknown keys and non-finite numbers are fatal and named in the error."""
    _require_schema(config, SCHEMA, ConfigurationError, "invalid scenario config", finite=True)
    return _apply_defaults(config)


def make_potential(spec):
    """Resolve a potential description into a vectorized callable (or 0.0);
    a missing key takes its _POTENTIAL_SCHEMA default."""
    if spec is None or spec["profile"] == "zero":
        return 0.0
    spec = _with_potential_defaults(spec)
    amp = float(spec["amplitude"])
    c = complex(*spec["center"])
    w = float(spec["width"])
    if spec["profile"] == "gaussian":
        return lambda z: amp * np.exp(-np.abs(np.asarray(z) - c) ** 2 / w**2)
    if spec["profile"] == "radial_bump":
        return lambda z: amp * bump(np.abs(np.asarray(z) - c) / w)
    if spec["profile"] == "piecewise":
        pieces = spec["pieces"]
        def steps(z):
            r = np.abs(np.asarray(z))
            out = np.zeros(np.shape(r))
            for r0, r1, val in pieces:
                out[(r >= r0) & (r < r1)] = val
            return out
        return steps
    raise ConfigurationError(f"unknown potential profile {spec['profile']!r}")


def make_rho(spec):
    """Conformal log-factor: constant or named profile."""
    if isinstance(spec, (int, float)):
        if spec == 0.0:
            return None
        return lambda z: np.full(np.shape(np.asarray(z)), float(spec))
    f = make_potential(spec)
    return None if f == 0.0 else f


@dataclass
class Scenario:
    """A validated config resolved into domain, potentials, and parameters.

    The mesh is built by the first build_mesh call.  It carries the
    factorized operators, so every pipeline run on one scenario shares them.
    phase and amplitude build every Morse phase and amplitude by the
    config's one recipe (phase_degree; degree, vanish_order).
    """

    config: dict
    domain: DiskDomain
    V1: object
    V2: object
    mesh: Mesh = field(default=None, init=False)

    @property
    def name(self) -> str:
        return self.config["name"]

    @property
    def seed(self) -> int:
        return int(self.config["seed"])

    @property
    def h_list(self) -> list:
        return [float(h) for h in self.config["h_list"]]

    @property
    def point(self) -> complex:
        x, y = self.config["point"]
        return complex(x, y)

    def build_mesh(self) -> Mesh:
        if self.mesh is None:
            self.mesh = build_disk_mesh(float(self.config["resolution"]), self.domain)
        return self.mesh

    def phase(self, p, psi_target: float) -> HoloFunction:
        """The Morse phase with primary critical point p and Im Phi(p) = psi_target."""
        return build_morse_phase(self.domain, p, degree=self.config["phase_degree"], psi_target=psi_target)

    def amplitude(self, phase: HoloFunction) -> HoloFunction:
        """The amplitude of phase: degree `degree`, vanishing to order
        vanish_order at the phase's other critical points."""
        return build_amplitude(phase, self.domain, vanish_order=self.config["vanish_order"], degree=self.config["degree"])


def load_scenario(source) -> Scenario:
    """Build a Scenario from a config path, JSON text, or dict; theta_p
    (boundary's recovery angle) must lie on gamma, not on gamma0."""
    if isinstance(source, dict):
        config = source
    else:
        text = source if str(source).lstrip().startswith("{") else open(source).read()
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    config = validate_config(config)
    gamma0 = config["gamma0"]
    domain = DiskDomain(
        conformal_log_factor=make_rho(config["rho"]),
        gamma0=None if gamma0 is None else (float(gamma0[0]), float(gamma0[1])),
    )
    if domain.on_gamma0(config["theta_p"]):
        a, b = domain.gamma0
        raise ConfigurationError(
            f"theta_p = {config['theta_p']:.3f} lies on gamma0 = [{a:.3f}, {b:.3f}]; it must lie on gamma"
        )
    return Scenario(
        config=config,
        domain=domain,
        V1=make_potential(config["v1"]),
        V2=make_potential(config["v2"]),
    )
