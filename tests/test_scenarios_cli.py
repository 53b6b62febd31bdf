import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calderon import carleman as _carleman
from calderon import cli as _cli
from calderon import reconstruct as _rc
from calderon.forward import SchrodingerOperator
from calderon.geometry import ConfigurationError
from calderon.scenarios import (
    SCHEMA,
    _schema_errors,
    load_scenario,
    make_potential,
    make_rho,
    validate_config,
)

from conftest import CARLEMAN_CHEAP, interior_basis, reference_config, two_point_phase


# ---------------------------------------------------------------------------
# config validation


def test_reference_defaults():
    cfg = reference_config()
    assert cfg["resolution"] == 0.0175
    assert cfg["gamma0"] == [0.0, np.pi / 2]
    assert cfg["v1"]["profile"] == "gaussian"
    assert cfg["v1"]["center"] == [0.2, 0.1]
    assert cfg["v2"]["profile"] == "zero"
    assert cfg["h_list"] == [0.2, 0.14, 0.1, 0.07, 0.05]
    assert len(cfg["cgo_regimes"]) == 2


def test_theta_p_on_gamma0_is_refused_at_load():
    """boundary recovers V at theta_p on gamma, so load_scenario refuses a
    theta_p on gamma0 (here the default pi on the half circle) and names
    both keys; the schema check alone still accepts the config."""
    config = {"name": "x", "seed": 0, "gamma0": [0.0, np.pi]}
    validate_config(dict(config))
    with pytest.raises(ConfigurationError, match=r"theta_p = 3\.142 lies on gamma0 = \[0\.000, 3\.142\]"):
        load_scenario(config)
    assert load_scenario({**config, "theta_p": 1.5 * np.pi}).config["theta_p"] == 1.5 * np.pi


def test_default_epsilon_admits_default_h_list():
    """The defaults pass their own carleman pipeline's h <= epsilon/5."""
    sc = load_scenario({"name": "reference", "seed": 0})
    cfg = sc.config
    h_min = min(cfg["h_list"])
    assert h_min <= cfg["epsilon"] / _carleman.EPSILON_H_FACTOR
    phase = sc.phase(sc.point, cfg["carleman_psi_target"])
    weight = _carleman.build_carleman_weight(sc.build_mesh(), phase, cfg["epsilon"], degree=cfg["degree"])
    _carleman.convexity_check(weight, sc.build_mesh(), h_min)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_scenario_amplitude_honours_vanish_order(k):
    """Scenario.amplitude vanishes to the config's vanish_order k at the
    phase's other critical point q, and to no higher order."""
    p, q = 0.2 + 0.1j, -0.3 - 0.4j
    phase = two_point_phase(p, q)
    sc = load_scenario({"name": "x", "seed": 0, "gamma0": None, "vanish_order": k})
    a = sc.amplitude(phase)
    assert abs(a(p) - 1.0) <= 1e-10
    for j in range(k):
        assert abs(a.derivative(j)(q)) <= 1e-10
    assert abs(a.derivative(k)(q)) >= 1.0


@pytest.mark.parametrize("key", ["resolutoin", "cutoff_scale"])
def test_unknown_top_level_key_fatal(key):
    """A misspelt key, and cutoff_scale, which only cgo_regimes entries take."""
    with pytest.raises(ConfigurationError) as err:
        validate_config({"name": "x", "seed": 0, key: 0.05})
    assert key in str(err.value)


def test_defaults_leave_the_callers_config_alone():
    """validate_config and load_scenario fill the defaults into a copy: the
    dict they are given, nested potentials included, is not changed."""
    config = {"name": "x", "seed": 0, "v1": {"profile": "gaussian"}, "v2": {"profile": "zero"}}
    before = json.loads(json.dumps(config))
    resolved = validate_config(config)
    assert config == before
    assert resolved["v1"]["width"] == 0.25 and resolved["v1"] is not config["v1"]
    load_scenario(config)
    assert config == before


def test_unknown_nested_potential_key_fatal():
    with pytest.raises(ConfigurationError) as err:
        validate_config(
            {"name": "x", "seed": 0, "v1": {"profile": "gaussian", "widht": 0.3}}
        )
    assert "widht" in str(err.value)


def test_missing_required_key_fatal():
    with pytest.raises(ConfigurationError) as err:
        validate_config({"name": "x"})
    assert "seed" in str(err.value)


def test_invalid_json_text_fatal():
    with pytest.raises(ConfigurationError):
        load_scenario('{"name": "x", "seed": 0,}')


def test_wrong_type_fatal():
    with pytest.raises(ConfigurationError):
        validate_config({"name": "x", "seed": 0, "resolution": -0.1})


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"name": "x", "seed": 0, "resolution": NaN}', "resolution"),
        ('{"name": "x", "seed": 0, "epsilon": NaN}', "epsilon"),
        ('{"name": "x", "seed": 0, "psi_target": Infinity}', "psi_target"),
        ('{"name": "x", "seed": 0, "h_list": [NaN, 0.1, 0.07, 0.05]}', "h_list.0"),
    ],
)
def test_non_finite_config_number_fatal(text, key):
    """json.loads reads NaN and Infinity, and a JSON-schema validator
    admits them (NaN passes exclusiveMinimum); a config refuses them."""
    with pytest.raises(ConfigurationError, match=f"{key}: (nan|inf) is not a finite number"):
        load_scenario(text)


def test_summary_keeps_non_finite_numbers(tmp_path):
    """A summary may carry nan (say, an exponent no fit could produce)."""
    results = {"checks": [_cli._check("x", False, float("nan"))], "constants": {"e": float("nan")}}
    _cli.emit_report(results, str(tmp_path), "nan")
    summary = json.loads((tmp_path / "nan_summary.json").read_text())
    assert np.isnan(summary["checks"][0]["value"]) and np.isnan(summary["constants"]["e"])


# ---------------------------------------------------------------------------
# the in-package schema checker against jsonschema, the reference


def _valid(schema):
    """Strategy for finite JSON values that satisfy a (sub)schema."""
    if "oneOf" in schema:
        return st.one_of([_valid(sub) for sub in schema["oneOf"]])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    kind = kind[0] if isinstance(kind, list) else kind
    if kind == "object":
        props = schema.get("properties", {})
        optional = [k for k in props if k not in schema.get("required", ())]
        fixed = st.fixed_dictionaries({k: _valid(props[k]) for k in schema.get("required", ())})
        extra = st.fixed_dictionaries({}, optional={k: _valid(props[k]) for k in optional})
        return st.tuples(fixed, extra).map(lambda pair: {**pair[0], **pair[1]})
    if kind == "array":
        size = {"min_size": schema.get("minItems", 0), "max_size": schema.get("maxItems", schema.get("minItems", 0) + 3)}
        return st.lists(_valid(schema.get("items", {"type": "null"})), **size)
    if kind == "integer":
        return st.integers(min_value=schema.get("minimum"), max_value=2**40)
    if kind == "number":
        low = schema.get("exclusiveMinimum", schema.get("minimum"))
        return st.floats(
            min_value=low, max_value=1e6, exclude_min="exclusiveMinimum" in schema, allow_nan=False, allow_infinity=False
        )
    return {"string": st.text(max_size=5), "boolean": st.booleans(), "null": st.none()}[kind]


_WRONG = st.sampled_from(["x", True, 1.0, 0, -1, 0.0, None, [], [1.0], {}, {"profile": "zero"}, [0.1, 0.2, 0.3]])


def _mutations():
    """Strategy for in-place edits of a config, each of a kind a config
    can go wrong by; some edits leave it valid, which counts as well."""
    keys = sorted(SCHEMA["properties"])
    bounded = [k for k, sub in SCHEMA["properties"].items() if "exclusiveMinimum" in sub or "minimum" in sub]
    arrays = ["gamma0", "h_list", "point", "boundary_h_list", "cgo_regimes"]
    integers = ["seed", "degree", "phase_degree", "grid_n", "carleman_samples"]

    def put(path, value):
        def edit(cfg):
            node = cfg.setdefault(path[0], {"profile": "zero"}) if len(path) > 1 else cfg
            if isinstance(node, dict):
                node[path[-1]] = value
        return edit

    def drop(key, nested=None):
        def edit(cfg):
            node = cfg.setdefault(nested, {"profile": "zero"}) if nested else cfg
            if isinstance(node, dict):
                node.pop(key, None)
        return edit

    regime = {"psi_target": 0.1, "cutoff_scale": 1.0}
    return st.one_of(
        st.tuples(st.sampled_from(keys), _WRONG).map(lambda kv: put([kv[0]], kv[1])),
        st.tuples(st.sampled_from(["v1", "v2"]), st.sampled_from(["amplitude", "center", "width", "pieces"]), _WRONG).map(
            lambda kv: put([kv[0], kv[1]], kv[2])
        ),
        st.sampled_from([
            put(["resolutoin"], 0.1),
            put(["v1", "widht"], 0.3),
            put(["cgo_regimes"], [regime, {**regime, "cutof_scale": 1.0}]),
            put(["cgo_regimes"], [{"psi_target": 0.1}]),
            drop("name"),
            drop("seed"),
            drop("profile", "v1"),
            drop("profile", "v2"),
        ]),
        st.tuples(st.sampled_from(bounded), st.sampled_from([0, 0.0, -0.5, 1, 3, 4])).map(lambda kv: put([kv[0]], kv[1])),
        st.tuples(st.sampled_from(["h_list", "boundary_h_list"]), st.sampled_from([0.0, -1.0, 1e-9])).map(
            lambda kv: put([kv[0]], [kv[1], 0.1, 0.05])
        ),
        st.tuples(st.sampled_from(arrays), st.integers(0, 4)).map(lambda kv: put([kv[0]], [0.1] * kv[1])),
        st.sampled_from([[], [1.0], [1.0, 2.0, 3.0]]).map(lambda v: put(["v1", "center"], v)),
        st.sampled_from([[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], []]).map(lambda v: put(["v2", "pieces"], [v])),
        st.sampled_from(["a", [0.0], {"profile": "gaussian", "x": 1}, {"amplitude": 1.0}, True, None]).map(
            lambda v: put(["rho"], v)
        ),
        st.sampled_from(["a", 0.5, 0, None, [0.0], [0.0, 1.0, 2.0], [True, 1.0], {}, False]).map(lambda v: put(["gamma0"], v)),
        st.tuples(st.sampled_from(["v1", "v2"]), st.sampled_from(["gaussian", "Gaussian", "", None, 0, ["zero"]])).map(
            lambda kv: put([kv[0], "profile"], kv[1])
        ),
        st.tuples(st.sampled_from(integers), st.sampled_from([1.0, 4.0, 36.0])).map(lambda kv: put([kv[0]], kv[1])),
        st.tuples(st.sampled_from(integers), st.sampled_from([True, False, 1.5])).map(lambda kv: put([kv[0]], kv[1])),
    )


_CONFIG_REFERENCE = jsonschema.Draft202012Validator(SCHEMA)


@settings(max_examples=500, deadline=None)
@given(config=_valid(SCHEMA), edits=st.lists(_mutations(), max_size=3))
@example(config={"name": "x", "seed": 1.0}, edits=[])
@example(config={"name": "x", "seed": True}, edits=[])
@example(config={"name": "x", "seed": 0, "resolution": False}, edits=[])
@example(config={"name": ["x"], "seed": 0}, edits=[])
@example(config={"name": "x", "seed": 0, "degree": 0}, edits=[])
@example(config={"name": "x", "seed": 0, "gamma0": 0}, edits=[])
@example(config={"name": "x", "seed": 0, "v2": []}, edits=[])
@example(config={"name": "x", "seed": 0, "v1": {"profile": None}}, edits=[])
def test_config_check_agrees_with_jsonschema(config, edits):
    """validate_config raises exactly when jsonschema, the reference,
    rejects the (finite) config; the pinned examples are its edge cases."""
    for edit in edits:
        edit(config)
    expected = next(_CONFIG_REFERENCE.iter_errors(config), None) is not None
    try:
        validate_config(config)
        raised = False
    except ConfigurationError:
        raised = True
    assert raised == expected, config


_SUMMARY_REFERENCE = jsonschema.Draft202012Validator(_cli.SUMMARY_SCHEMA)
_CHECK = _cli.SUMMARY_SCHEMA["properties"]["checks"]["items"]


@settings(max_examples=300, deadline=None)
@given(
    summary=_valid(_cli.SUMMARY_SCHEMA),
    check_edits=st.lists(
        st.tuples(st.sampled_from(sorted(_CHECK["properties"]) + ["extra"]), _WRONG | st.sampled_from([2.5, "d", False])),
        min_size=1,
        max_size=3,
    ),
    dropped=st.sampled_from([None, "name", "passed"]),
    top_edit=st.none() | st.tuples(st.sampled_from(["name", "constants", "checks"]), _WRONG),
)
@example(summary={"name": "s", "seed": 0, "checks": [], "constants": {}}, check_edits=[("passed", 0)], dropped=None, top_edit=None)
@example(summary={"name": "s", "seed": 0, "checks": [], "constants": {}}, check_edits=[("value", True)], dropped=None, top_edit=None)
def test_summary_check_agrees_with_jsonschema(tmp_path_factory, summary, check_edits, dropped, top_edit):
    """emit_report raises exactly when jsonschema rejects the summary it
    builds (emit_report sets its command, seed and files itself)."""
    summary["checks"].append({"name": "c", "passed": True})
    summary["checks"][-1].update(check_edits)
    summary["checks"][-1].pop(dropped, None)
    if top_edit:
        summary[top_edit[0]] = top_edit[1]
    summary["files"] = ["a.csv"]
    built = {**summary, "command": "run", "seed": int(summary["seed"])}
    expected = next(_SUMMARY_REFERENCE.iter_errors(built), None) is not None
    try:
        _cli.emit_report(summary, str(tmp_path_factory.getbasetemp() / "summaries"), "run")
        raised = False
    except ValueError:
        raised = True
    assert raised == expected, built


def _subschemas(schema):
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ()), schema.get("items")]:
        if sub is not None:
            yield from _subschemas(sub)


def test_schema_checker_refuses_unimplemented_keywords():
    """Every keyword of both schemas is implemented; any other raises, so
    a schema edit cannot go unchecked."""
    for schema in (SCHEMA, _cli.SUMMARY_SCHEMA):
        for sub in _subschemas(schema):
            _schema_errors(None, sub)
    for schema in ({"type": "string", "pattern": "x"}, {"type": "object", "additionalProperties": True}):
        with pytest.raises(ValueError, match="not implemented"):
            _schema_errors("x", schema)


# ---------------------------------------------------------------------------
# potential and rho profiles


def test_potential_zero():
    assert make_potential({"profile": "zero"}) == 0.0
    assert make_potential(None) == 0.0


def test_potential_gaussian():
    V = make_potential({"profile": "gaussian", "amplitude": 2.0, "center": [0.2, 0.1], "width": 0.25})
    assert V(np.array([0.2 + 0.1j]))[0] == pytest.approx(2.0)
    assert V(np.array([0.9]))[0] < 2e-3


def test_potential_radial_bump_support():
    V = make_potential({"profile": "radial_bump", "amplitude": 1.0, "center": [0.0, 0.0], "width": 0.5})
    vals = V(np.array([0.0, 0.49, 0.51, 0.9]))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] > 0
    assert vals[2] == 0.0 and vals[3] == 0.0


def test_potential_defaults_come_from_the_schema(monkeypatch):
    """A key a potential spec leaves out, in v1, v2 or a dict-valued rho,
    takes its _POTENTIAL_SCHEMA default: the schema is its one home."""
    from calderon import scenarios

    props = {**scenarios._POTENTIAL_SCHEMA["properties"], "width": {"type": "number", "default": 0.5}}
    monkeypatch.setitem(scenarios._POTENTIAL_SCHEMA, "properties", props)
    z = np.array([0.5 + 0j])
    assert make_potential({"profile": "gaussian"})(z)[0] == np.exp(-1.0)
    assert make_rho({"profile": "gaussian", "amplitude": 2.0})(z)[0] == 2.0 * np.exp(-1.0)
    assert make_potential({"profile": "gaussian", "width": 0.25})(z)[0] == np.exp(-4.0)


def test_potential_piecewise():
    V = make_potential({"profile": "piecewise", "pieces": [[0.0, 0.3, 2.0], [0.3, 0.6, -1.0]]})
    vals = V(np.array([0.1, 0.4 + 0.1j, 0.8]))
    assert vals[0] == 2.0
    assert vals[1] == -1.0
    assert vals[2] == 0.0


def test_rho_constant_and_zero():
    assert make_rho(0.0) is None
    f = make_rho(0.3)
    assert np.all(f(np.array([0.1, 0.5j])) == 0.3)


# ---------------------------------------------------------------------------
# scenario resolution


def test_load_scenario_from_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "from-file", "seed": 3, "gamma0": None}))
    sc = load_scenario(path)
    assert sc.name == "from-file"
    assert sc.seed == 3
    assert sc.domain.gamma0 is None


def test_scenario_properties_and_mesh_cache():
    sc = load_scenario({"name": "x", "seed": 0, "resolution": 0.1})
    assert sc.point == 0.2 + 0.1j
    assert all(isinstance(h, float) for h in sc.h_list)
    m1 = sc.build_mesh()
    assert sc.build_mesh() is m1


# ---------------------------------------------------------------------------
# CLI


CHEAP = {"name": "cheap", "seed": 0, "resolution": 0.08}

# Cheap configs on which each pipeline runs to the end (CARLEMAN_CHEAP is in
# conftest).  The boundary one puts the V1 bump on the scanned point
# theta_p = pi, so the scan fits the h^(3/2) law instead of taking its
# below-noise-floor branch.
RECONSTRUCT_CHEAP = {"resolution": 0.04, "grid_n": 3, "h_list": [0.5, 0.3, 0.18, 0.1]}
BOUNDARY_CHEAP = {
    "resolution": 0.03,
    "v1": {"profile": "gaussian", "center": [-1.0, 0.0], "width": 0.6},
    "boundary_h_list": [0.1, 0.085, 0.075, 0.065],
}
# every pipeline in one run: the reconstruct h list on the boundary mesh,
# with the default V1 (cgo's amplitude corrector cannot fit the boundary bump)
ALL_CHEAP = {
    **RECONSTRUCT_CHEAP,
    "resolution": BOUNDARY_CHEAP["resolution"],
    "boundary_h_list": BOUNDARY_CHEAP["boundary_h_list"],
    "epsilon": 1.0,
    "carleman_samples": 10,
}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_emit_report_empty_results(tmp_path):
    files = _cli.emit_report({}, str(tmp_path), "empty")
    summary = json.loads((tmp_path / "empty_summary.json").read_text())
    assert summary["checks"] == []
    assert summary["command"] == "empty"
    assert len(files) == 2


def test_schemas_pass_the_metaschema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    jsonschema.Draft202012Validator.check_schema(_cli.SUMMARY_SCHEMA)


def test_emit_report_rejects_an_invalid_summary(tmp_path):
    """A summary that breaks SUMMARY_SCHEMA raises, naming the bad field."""
    _cli.emit_report({"checks": [_cli._check("x", True, 1.0)]}, str(tmp_path), "once")
    with pytest.raises(ValueError, match="passed"):
        _cli.emit_report({"checks": [{"name": "x"}]}, str(tmp_path), "bad")


def test_run_scenario_forward(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, CHEAP)
    out = tmp_path / "out"
    status = _cli.run_scenario(cfg, "forward", out_dir=str(out))
    assert status == 0
    summary = json.loads((out / "forward_summary.json").read_text())
    assert all(c["passed"] for c in summary["checks"])
    for f in ("mesh_vertices.csv", "mesh_cells.csv", "cauchy_v1.csv", "forward_summary.txt"):
        assert (out / f).exists()
    assert "PASS green_identity_relative_error" in capsys.readouterr().out


def test_run_scenario_unknown_command(tmp_path):
    cfg = _write_cfg(tmp_path, CHEAP)
    with pytest.raises(ConfigurationError):
        _cli.run_scenario(cfg, "bogus", out_dir=str(tmp_path))


def test_main_misspelled_key_exits_nonzero(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"name": "x", "seed": 0, "resolutoin": 0.1})
    status = _cli.main(["forward", "--config", cfg, "--out", str(tmp_path)])
    assert status == 1
    assert "resolutoin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, stage, message",
    [
        # the default h_list reaches h = 0.05, above epsilon/5
        (
            {"name": "x", "seed": 0, "resolution": 0.08, "epsilon": 0.1, "carleman_samples": 5},
            "carleman",
            "h = 0.05 too large for epsilon = 0.1",
        ),
        ({"name": "x", "seed": 0, "resolutoin": 0.1}, "config", "resolutoin"),
    ],
)
def test_main_error_names_the_failing_stage(tmp_path, capsys, cfg, stage, message):
    status = _cli.main(["carleman", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ") and message in err


def test_main_forward_ok(tmp_path):
    cfg = _write_cfg(tmp_path, CHEAP)
    out = tmp_path / "out"
    assert _cli.main(["forward", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "forward_summary.json").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, CHEAP)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("CALDERON_OUT", str(env_out))
    assert _cli.run_scenario(cfg, "forward", out_dir=str(tmp_path / "ignored")) == 0
    assert (env_out / "forward_summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_override_recorded(tmp_path):
    cfg = _write_cfg(tmp_path, CHEAP)
    out = tmp_path / "out"
    _cli.run_scenario(cfg, "forward", out_dir=str(out), seed=7)
    summary = json.loads((out / "forward_summary.json").read_text())
    assert summary["seed"] == 7


def test_summary_deterministic_across_runs(tmp_path):
    cfg = _write_cfg(tmp_path, CHEAP)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert _cli.run_scenario(cfg, "forward", out_dir=str(out)) == 0
        blobs.append((out / "forward_summary.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "command, overrides",
    [
        # four h values every cgo regime resolves on the 0.08 mesh
        ("cgo", {"resolution": 0.08, "h_list": [0.5, 0.4, 0.32, 0.25]}),
        # the pairing fit needs 2 periods of 2 psi(p)/h; the 0.08 mesh cannot
        # resolve the reconstruct phase at any h list that spans them
        ("reconstruct", RECONSTRUCT_CHEAP),
        ("carleman", CARLEMAN_CHEAP),
        ("boundary", BOUNDARY_CHEAP),
    ],
    ids=["cgo", "reconstruct", "carleman", "boundary"],
)
def test_pipeline_outputs_deterministic_across_runs(tmp_path, command, overrides):
    cfg = _write_cfg(tmp_path, {"name": "cheap", "seed": 3, **overrides})
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        status = _cli.run_scenario(cfg, command, out_dir=str(out))
        runs.append((status, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert f"{command}_summary.json" in runs[0][1]
    assert runs[0] == runs[1]


def _run_pipeline(sc, name, out_dir):
    """One pipeline the way run_scenario runs it; returns its output bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = getattr(_cli, f"run_{name}")(sc, str(out_dir))
    results["name"] = sc.name
    results["seed"] = sc.seed
    _cli.emit_report(results, str(out_dir), name)
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


def test_pipelines_share_the_scenario_operators(tmp_path, operator_builds):
    """forward, carleman and boundary in sequence on one Scenario factorize
    V1, V2 = 0 and the calibration bump once each, and write the same
    bytes as each pipeline run on a fresh Scenario."""
    cfg = {"name": "cheap", "seed": 3, "epsilon": 1.0, "carleman_samples": 10, **BOUNDARY_CHEAP}
    names = ("forward", "carleman", "boundary")
    shared = load_scenario(cfg)
    outputs = {name: _run_pipeline(shared, name, tmp_path / "shared" / name) for name in names}
    assert len(operator_builds) == 3
    for name in names:
        assert _run_pipeline(load_scenario(cfg), name, tmp_path / "fresh" / name) == outputs[name]


@pytest.mark.parametrize(
    "command, overrides, builds",
    [
        ("forward", {"resolution": 0.08}, 2),
        ("reconstruct", RECONSTRUCT_CHEAP, 1),
        # only the V = 0 operator of the Green potential: the duality solve
        # reads the assembled Delta_g + V1 and never factorizes it
        ("cgo", {"resolution": 0.08, "h_list": [0.5, 0.4, 0.32, 0.25]}, 1),
        # V1 and V2 = 0 of forward, whose V = 0 operator cgo, reconstruct
        # and boundary reuse, and boundary's calibration bump
        ("all", ALL_CHEAP, 3),
    ],
    ids=["forward", "reconstruct", "cgo", "all"],
)
def test_pipeline_factorizes_each_potential_once(
    tmp_path, operator_builds, stiffness_assemblies, command, overrides, builds
):
    """Each potential is factorized once, and the stiffness matrix is
    assembled once, on the scenario mesh."""
    sc = load_scenario({"name": "cheap", "seed": 3, **overrides})
    for name in list(_cli._PIPELINES) if command == "all" else [command]:
        _run_pipeline(sc, name, tmp_path / name)
    assert len(operator_builds) == builds
    assert [m is sc.mesh for m in stiffness_assemblies] == [True]


def test_run_forward_solves_each_potential_once(tmp_path, monkeypatch):
    """The Cauchy data files and the Green-identity cross-check share one
    Dirichlet solve per potential."""
    solves = []
    solve = SchrodingerOperator.solve_dirichlet

    def counting_solve(self, *args, **kwargs):
        solves.append(self.name)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SchrodingerOperator, "solve_dirichlet", counting_solve)
    _run_pipeline(load_scenario({"name": "cheap", "seed": 3, "resolution": 0.08}), "forward", tmp_path)
    assert len(solves) == 2


def test_difference_map_without_cache_factorizes_once(operator_builds):
    sc = load_scenario({"name": "cheap", "seed": 3, **RECONSTRUCT_CHEAP})
    cfg = sc.config
    grid = _rc.make_grid(cfg["grid_n"], cfg["grid_radius"])
    out = _rc.difference_map(
        sc.build_mesh(), sc.V1, sc.V2, grid, sc.h_list, interior_basis(sc.domain),
    )
    # the two points nearest gamma0 need a psi too low for this h list
    assert len(out["rows"]) + len(out["failures"]) == len(grid)
    assert [(f["x"], f["y"]) for f in out["failures"]] == [(0.6, 0.0), (0.0, 0.6)]
    assert "spans only 1.40 periods" in out["failures"][0]["error"]
    assert "spans only 1.32 periods" in out["failures"][1]["error"]
    assert len(operator_builds) == 1


def test_unicode_scenario_name_roundtrip(tmp_path):
    cfg = _write_cfg(tmp_path, {**CHEAP, "name": "café-Ω"})
    out = tmp_path / "out"
    _cli.run_scenario(cfg, "forward", out_dir=str(out))
    summary = json.loads((out / "forward_summary.json").read_text())
    assert summary["name"] == "café-Ω"
    assert "café-Ω" in (out / "forward_summary.json").read_text()


def test_mesh_csv_roundtrip(tmp_path):
    """mesh_vertices.csv parses back to the mesh vertices bit for bit, and
    mesh_cells.csv to its cells."""
    sc = load_scenario(CHEAP)
    mesh = sc.build_mesh()
    _cli._mesh_export(sc, str(tmp_path))
    lines = (tmp_path / "mesh_vertices.csv").read_text().splitlines()
    assert lines[0] == "index,x,y,is_boundary,is_gamma0"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(mesh.n_vertices))
    xy = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.array_equal(xy[:, 0] + 1j * xy[:, 1], mesh.vertices)
    assert np.array_equal([int(r[3]) for r in rows], mesh.is_boundary.astype(int))
    g0 = np.zeros(mesh.n_vertices, dtype=int)
    g0[mesh.boundary[mesh.boundary_is_gamma0]] = 1
    assert np.array_equal([int(r[4]) for r in rows], g0)
    cells = np.loadtxt(tmp_path / "mesh_cells.csv", delimiter=",", skiprows=1, dtype=int)
    assert np.array_equal(cells, mesh.cells)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("forward", {"resolution": 0.08}),
        ("cgo", {"resolution": 0.08, "h_list": [0.5, 0.4, 0.32, 0.25]}),
        ("reconstruct", RECONSTRUCT_CHEAP),
        ("carleman", CARLEMAN_CHEAP),
        ("boundary", BOUNDARY_CHEAP),
    ],
    ids=["forward", "cgo", "reconstruct", "carleman", "boundary"],
)
def test_pipeline_outputs_hold_plain_numbers(tmp_path, command, overrides):
    """No output file carries a numpy scalar repr such as np.float64(0.5)."""
    cfg = _write_cfg(tmp_path, {"name": "cheap", "seed": 3, **overrides})
    out = tmp_path / "out"
    _cli.run_scenario(cfg, command, out_dir=str(out))
    files = sorted(out.iterdir())
    assert f"{command}_summary.json" in [f.name for f in files]
    for f in files:
        text = f.read_text()
        assert "np." not in text and "float64(" not in text, f.name


CSV_HEADERS = {
    "mesh_vertices.csv": "index,x,y,is_boundary,is_gamma0",
    "mesh_cells.csv": "v0,v1,v2",
    "cauchy_v1.csv": "theta,dirichlet_re,dirichlet_im,neumann_re,neumann_im,arc_label",
    "cauchy_v2.csv": "theta,dirichlet_re,dirichlet_im,neumann_re,neumann_im,arc_label",
    "cgo_scaling_0.csv": "h,norm_name,value",
    "cgo_scaling_1.csv": "h,norm_name,value",
    "carleman_sweep.csv": "h,sample_id,lhs,rhs,ratio",
    "difference_map.csv": "x,y,D,fit_residual,abs_a_p,C_p,psi_p",
    "boundary_scan.csv": "theta,D,fitted_exponent",
}
# every other CSV column holds floats
CSV_NON_FLOAT_COLUMNS = {
    "index", "is_boundary", "is_gamma0", "v0", "v1", "v2", "sample_id", "norm_name", "arc_label"
}


# The checks ALL_CHEAP fails, pinned so that a new FAIL shows and so does a
# fix: the ROADMAP defect "the one config the tests run `all` on fails three
# of its own checks" (r2 exponent 1.793 above [1.3, 1.7], r1 - h r12~
# exponent 0.918 below 1.1, D = 0.708 against 1.0).  Why they fail is not
# established.
ALL_CHEAP_FAILING_CHECKS = {"exponent_r2_l2", "exponent_r1_minus_hr12t_l2", "pointwise_difference_accuracy"}


def test_every_csv_round_trips(tmp_path):
    """Every CSV of an `all` run has its header, header-many fields on each
    line, and float fields that are the shortest repr of their value, so
    they parse back bit for bit.  The run exits 1, failing exactly the
    known ALL_CHEAP checks, and a second run writes every file byte for
    byte again."""
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {"name": "cheap", "seed": 3, **ALL_CHEAP})
    assert _cli.run_scenario(cfg, "all", out_dir=str(out)) == 1
    again = tmp_path / "again"
    assert _cli.run_scenario(cfg, "all", out_dir=str(again)) == 1
    names = sorted(f.name for f in out.iterdir())
    assert sorted(f.name for f in again.iterdir()) == names
    assert [n for n in names if (out / n).read_bytes() != (again / n).read_bytes()] == []
    summary = json.loads((out / "all_summary.json").read_text())
    assert {c["name"] for c in summary["checks"] if not c["passed"]} == ALL_CHEAP_FAILING_CHECKS
    assert sorted(f.name for f in out.glob("*.csv")) == sorted(CSV_HEADERS)
    for name, header in CSV_HEADERS.items():
        text = (out / name).read_text()
        assert "np." not in text, name
        lines = text.splitlines()
        assert lines[0] == header, name
        columns = header.split(",")
        assert len(lines) > 1, name
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(columns), (name, line)
            for col, s in zip(columns, fields):
                if col not in CSV_NON_FLOAT_COLUMNS:
                    assert repr(float(s)) == s, (name, col, s)


# `all` at the reference resolution on five geometries: the exit status and
# the FAILed checks, a pipeline that raised failing as <pipeline>_completed.
# A change that flips a verdict updates this table and says why.
VERDICT_MATRIX = {
    "reference": (0, set()),
    "full_data": (1, {"exponent_r1_minus_hr12t_l2", "convexified_weight_identity", "pointwise_difference_accuracy"}),
    # the half circle leaves cgo 1 usable h of 5 and reconstruct 3 of 5;
    # carleman passes both checks, and boundary at theta_p = 3 pi / 2 passes
    "half_circle": (1, {"cgo_completed", "reconstruct_completed"}),
    "gaussian_rho": (0, set()),
    "gamma0_pi3_5pi6": (1, {"exponent_r1_minus_hr12t_l2"}),
}
VERDICT_CONFIGS = {
    "reference": {},
    "full_data": {"gamma0": None},
    "half_circle": {"gamma0": [0.0, np.pi], "theta_p": 1.5 * np.pi},
    "gaussian_rho": {"rho": {"profile": "gaussian", "amplitude": 0.3, "center": [0.0, 0.0], "width": 0.6}},
    "gamma0_pi3_5pi6": {"gamma0": [np.pi / 3, 5 * np.pi / 6]},
}


# the error class of each <pipeline>_completed FAIL in VERDICT_MATRIX
VERDICT_ERRORS = {
    "half_circle": {
        "cgo_completed": "ConfigurationError",
        "reconstruct_completed": "ResolvabilityError",
    },
}


def test_verdict_matrix(tmp_path, capsys):
    """Every pipeline on each geometry of VERDICT_CONFIGS gives the verdict
    that VERDICT_MATRIX pins.  A pipeline that raises does not stop the
    run: it prints "error: <pipeline>: <message>" on stderr and FAILs
    <pipeline>_completed with detail "<ErrorClass>: <message>".  The
    full-data convexity FAIL line names its bound."""
    verdicts = {}
    errors = {}
    stdout = {}
    for name, overrides in VERDICT_CONFIGS.items():
        out = tmp_path / name
        status = _cli.run_scenario({"name": name, "seed": 0, **overrides}, "all", out_dir=str(out))
        summary = json.loads((out / "all_summary.json").read_text())
        failed = {c["name"]: c for c in summary["checks"] if not c["passed"]}
        verdicts[name] = (status, set(failed))
        completed = {k: c["detail"] for k, c in failed.items() if k.endswith("_completed")}
        if completed:
            errors[name] = {k: detail.split(": ", 1)[0] for k, detail in completed.items()}
        captured = capsys.readouterr()
        stdout[name] = captured.out.splitlines()
        err_lines = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert err_lines == [
            f"error: {k.removesuffix('_completed')}: {detail.split(': ', 1)[1]}" for k, detail in completed.items()
        ]
    assert verdicts == VERDICT_MATRIX
    assert errors == VERDICT_ERRORS
    convexity = [line for line in stdout["full_data"] if line.startswith("FAIL convexified_weight_identity = ")]
    assert convexity and all(line.endswith(" -- bound 0.05") for line in convexity)


CGO_CHEAP = {**CHEAP, "h_list": [0.5, 0.4, 0.32, 0.25]}


def test_cgo_fails_a_window_whose_regime_is_not_configured(tmp_path):
    """With one cgo regime, the regime-1 window check is reported and FAILs,
    naming the missing regime, instead of being dropped."""
    regimes = [{"psi_target": 0.12, "cutoff_scale": 1.0}]
    results = _cli.run_cgo(load_scenario({**CGO_CHEAP, "cgo_regimes": regimes}), str(tmp_path))
    checks = {c["name"]: c for c in results["checks"]}
    assert list(checks) == [f"exponent_{key}" for key in _cli._CGO_WINDOWS]
    missing = checks["exponent_r1_minus_hr12t_l2"]
    assert not missing["passed"] and "value" not in missing
    assert missing["detail"] == "window [1.1, inf]; cgo_regimes[1] is not configured"
    assert all("value" in c for name, c in checks.items() if name != "exponent_r1_minus_hr12t_l2")
    assert not any(key.endswith("_regime1") for key in results["constants"])


def test_cgo_with_zero_potential_says_why_no_exponent_was_fitted(tmp_path):
    """V1 = 0 gives b = 0 and identically vanishing remainders: every window
    check still FAILs, without a value, and its detail gives that reason."""
    results = _cli.run_cgo(load_scenario({**CGO_CHEAP, "v1": {"profile": "zero"}}), str(tmp_path))
    assert len(results["checks"]) == len(_cli._CGO_WINDOWS)
    for check in results["checks"]:
        assert not check["passed"] and "value" not in check
        assert check["detail"].endswith("; no exponent fitted: b = 0 and the remainders vanish identically")
    for k in range(2):
        report = json.loads((tmp_path / f"cgo_scaling_{k}.json").read_text())
        assert all(fit["exact_zero"] for fit in report["exponents"].values())


@pytest.mark.parametrize(
    "overrides",
    [
        {"cgo_regimes": [{"psi_target": 0.12, "cutoff_scale": 1.0}]},
        {"v1": {"profile": "zero"}},
    ],
    ids=["one_regime", "zero_potential"],
)
def test_cgo_check_detail_reaches_stdout_and_summary_table(tmp_path, capsys, overrides):
    """Every check shows its detail on stdout and in cgo_summary.txt, in one
    rendering for both: a FAIL's reason no longer reaches the JSON alone."""
    out = tmp_path / "out"
    assert _cli.run_scenario({**CGO_CHEAP, **overrides}, "cgo", out_dir=str(out)) == 1
    checks = json.loads((out / "cgo_summary.json").read_text())["checks"]
    assert any(not c["passed"] for c in checks) and all(c["detail"] for c in checks)
    printed = capsys.readouterr().out.splitlines()
    table = (out / "cgo_summary.txt").read_text().splitlines()[1:]
    for c, line, row in zip(checks, printed, table[: len(checks)], strict=True):
        assert line == row
        assert line.startswith(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
        assert line.endswith(f" -- {c['detail']}")


def test_reference_boundary_check_flagged_trivial(tmp_path):
    """On the reference scenario V1 is ~0 at theta_p, the pairing sits below
    the noise floor and the boundary value check is marked trivial; with
    the bump on theta_p it is a real check and carries no flag.  The scan
    judges the h^(3/2) window, so no separate window check is reported."""
    for cfg, trivial in (({"name": "reference", "seed": 0}, True), ({"name": "cheap", "seed": 3, **BOUNDARY_CHEAP}, False)):
        out = tmp_path / cfg["name"]
        out.mkdir()
        _cli.run_scenario(_write_cfg(out, cfg), "boundary", out_dir=str(out))
        summary = json.loads((out / "boundary_summary.json").read_text())
        check = next(c for c in summary["checks"] if c["name"] == "boundary_value_estimate")
        assert check["passed"]
        assert check.get("trivial", False) is trivial
        assert ("noise floor" in check["detail"]) is trivial
        assert not any(c["name"] == "boundary_exponent_window" for c in summary["checks"])


def test_boundary_failure_at_theta_p_fails_the_value_check(tmp_path, monkeypatch):
    """A theta_p the scan cannot recover FAILs boundary_value_estimate with
    the scan's recorded error.  load_scenario refuses a theta_p on gamma0,
    so the loaded config is edited to put one there, and on gamma0 the
    calibration refuses theta_p first, so a fixed calibration stands in for
    it here."""
    monkeypatch.setattr(_rc, "calibrate_boundary_constant", lambda mesh, theta_p, h_list: 1.0)
    sc = load_scenario({"name": "cheap", "seed": 3, **BOUNDARY_CHEAP})
    sc.config["theta_p"] = np.pi / 4
    results = _cli.run_boundary(sc, str(tmp_path))
    assert [(c["name"], c["passed"]) for c in results["checks"]] == [("boundary_value_estimate", False)]
    assert "theta = 0.785 lies on gamma0" in results["checks"][0]["detail"]
    assert results["constants"]["scan_failures"] == 3


def test_import_loads_no_optional_scipy_modules(tmp_path):
    """Start-up stays lean: scipy.spatial, scipy.interpolate and
    scipy.special are imported only by the functions that use them, and a
    cgo run and a reconstruct run (whose Cauchy transforms find their near
    field on a cell grid) use none of them.  No run imports jsonschema:
    configs and summaries are checked in-package."""
    lazy = ("scipy.spatial", "scipy.interpolate", "scipy.special", "jsonschema")
    runs = [
        ("cgo", {**CHEAP, "h_list": [0.5, 0.4, 0.32, 0.25]}),
        ("reconstruct", {**CHEAP, **RECONSTRUCT_CHEAP}),
    ]
    code = (
        "import sys, calderon\n"
        f"loaded = lambda: [m for m in {lazy!r} if m in sys.modules]\n"
        "print('import', loaded())\n"
        f"for cmd, cfg in {runs!r}:\n"
        "    getattr(calderon.cli, 'run_' + cmd)(calderon.load_scenario(cfg), sys.argv[1])\n"
        "    print(cmd, loaded())\n"
        "calderon.cli.emit_report({'checks': [calderon.cli._check('x', True, 1.0)]}, sys.argv[1], 'lean')\n"
        "print('emit_report', loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(_cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["import []", "cgo []", "reconstruct []", "emit_report []"]
