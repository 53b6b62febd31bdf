import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import calderon

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# layer_metrics still totals the deleted cgo.complete_solution, so
# cgo.complete_s reads 0; it is the one name known not to resolve.
KNOWN_STALE_TRACER_NAMES = {"cgo.complete_solution"}


def test_every_export_resolves():
    missing = [name for name in calderon.__all__ if not hasattr(calderon, name)]
    assert missing == []


def _tracer():
    spec = importlib.util.spec_from_file_location("calderon_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed_names(tracer) -> set:
    """The "<layer>.<name>[.<method>]" span names layer_metrics reads,
    leaving out the metric keys it writes (out["..."])."""
    fn = next(
        node
        for node in ast.walk(ast.parse(TRACER_PATH.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    keys = {
        id(node.slice)
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "out"
    }
    prefixes = tuple(f"{layer}." for layer in tracer.LAYERS)
    return {
        node.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith(prefixes)
        and id(node) not in keys
    }


def _wrapped_by_tracer(name: str, private_wrapped) -> bool:
    """True when the tracer wraps calderon.<name>: a public function of its
    layer module, or a public method or __init__ of a public class there."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"calderon.{layer}")
    for attr in path:
        obj = vars(obj).get(attr)
        if obj is None:
            return False
    if not inspect.isfunction(obj):
        return False
    if len(path) == 1:
        return not path[0].startswith("_") or name in private_wrapped
    return not path[0].startswith("_") and (path[1] == "__init__" or not path[1].startswith("_"))


def test_tracer_times_live_functions():
    """Every function perfbench/tracer.py's layer_metrics times by name is
    still one the tracer wraps, so no per-layer metric silently reads 0,
    except the known stale name."""
    tracer = _tracer()
    names = _timed_names(tracer)
    assert {"cgo.prepare_cgo", "cgo.duality_completion", "cgo.h1_norm", "reconstruct.cgo_pairings"} <= names
    stale = {name for name in names if not _wrapped_by_tracer(name, tracer.PRIVATE_WRAPPED)}
    assert stale == KNOWN_STALE_TRACER_NAMES


def _calderon_functions() -> dict:
    """{"<module>.<name>[.<method>]": function} for every function, and every
    method of a class, defined in a calderon module."""
    out = {}
    for info in pkgutil.iter_modules(calderon.__path__):
        module = importlib.import_module(f"calderon.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        out[f"{info.name}.{name}.{attr}"] = member
    return out


def test_no_function_takes_a_mesh_and_its_domain():
    """A mesh carries its domain (Mesh.domain), a CGO its potential
    (CGO.V, and CGO.A = Delta_g + V) and a Morse phase its critical points
    and primary point (meta["critical_points"], meta["p"]), so no function
    takes a second copy that could disagree with the first."""
    functions = _calderon_functions()
    assert {"cgo.prepare_cgo", "reconstruct.pointwise_difference", "geometry.Mesh.__init__"} <= set(functions)
    params = {name: set(inspect.signature(fn).parameters) for name, fn in functions.items()}
    assert [name for name, p in params.items() if {"mesh", "domain"} <= p] == []
    assert [name for name, p in params.items() if "p" in p and p & {"phase", "report"}] == []
    for name in ("cgo.residual_field", "cgo.duality_completion"):
        assert params[name] & {"V", "A"} == set()
    # an amplitude carries its fit degree, and the scenario alone picks a
    # phase's psi_target
    assert [name for name, p in params.items() if "jet_degree" in p] == []
    assert sorted(name for name, p in params.items() if "psi_target" in p) == [
        "holo.build_morse_phase",
        "scenarios.Scenario.phase",
    ]


def test_only_the_cgo_takes_both_cutoffs():
    """A CGO carries its cutoffs chi and chi1 (CGO.chi, CGO.chi1), so no
    function but the CGO's own constructor takes both."""
    functions = _calderon_functions()
    both = sorted(name for name, fn in functions.items() if {"chi", "chi1"} <= set(inspect.signature(fn).parameters))
    assert both == ["cgo.CGO.__init__"]


def test_only_the_scenario_builds_phases_and_amplitudes():
    """Outside holo, every call to build_morse_phase or build_amplitude is
    in scenarios (Scenario.phase, Scenario.amplitude), so each pipeline
    pairs the phase and amplitude of the config's one recipe."""
    callers = set()
    for path in Path(calderon.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in ("build_morse_phase", "build_amplitude") and path.stem != "holo":
                    callers.add((path.stem, name))
    assert callers == {
        ("scenarios", "build_morse_phase"),
        ("scenarios", "build_amplitude"),
    }


# the only underscore names one calderon module imports from another:
# (importing module, source module, name)
PRIVATE_IMPORTS = {
    ("cgo", "holo", "_cauchy_transform_columns"),
    ("cli", "scenarios", "_require_schema"),
}


def test_private_names_stay_in_their_module():
    """A name starting with _ is imported by another calderon module only
    in the named set: holo alone builds least-squares rows and solves the
    fits, so cgo and carleman call its builders, not its helpers."""
    crossing = set()
    for path in Path(calderon.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                crossing |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert crossing == PRIVATE_IMPORTS


def test_carleman_weight_is_h_free_and_one_function_judges_epsilon_over_5():
    """h is a parameter of the Carleman estimate, not of the weight: the
    CarlemanWeight dataclass has no h field and no at(h), and inside
    carleman only convexify_weight reads EPSILON_H_FACTOR, so the rule
    h <= epsilon/5 is written once."""
    tree = ast.parse((Path(calderon.__file__).parent / "carleman.py").read_text())
    weight = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CarlemanWeight")
    fields = {n.target.id for n in weight.body if isinstance(n, ast.AnnAssign)}
    assert "epsilon" in fields and "h" not in fields
    assert "at" not in {n.name for n in weight.body if isinstance(n, ast.FunctionDef)}
    readers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "EPSILON_H_FACTOR" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"convexify_weight"}


def test_bump_formula_has_one_body():
    """exp(1 - 1/(1 - t^2)) is written in geometry.bump alone."""
    src = Path(calderon.__file__).parent
    writers = sorted(p.stem for p in src.glob("*.py") if "1.0 - 1.0 / (1.0 - " in p.read_text())
    assert writers == ["geometry"]


def test_morse_phase_is_one_seedless_fit():
    """A generic fit is Morse, so build_morse_phase fits once and certifies
    once: no holo function takes a seed, holo draws no random numbers, and
    a phase is fixed by its domain, p, degree and psi_target alone."""
    functions = _calderon_functions()
    params = {name: list(inspect.signature(fn).parameters) for name, fn in functions.items()}
    assert [name for name, p in params.items() if name.startswith("holo.") and "seed" in p] == []
    assert params["holo.build_morse_phase"] == ["domain", "p", "degree", "psi_target"]
    assert params["holo._phase_fitter"] == ["domain", "p", "degree"]
    assert params["scenarios.Scenario.phase"] == ["self", "p", "psi_target"]
    assert "random" not in (Path(calderon.__file__).parent / "holo.py").read_text()
    assert not hasattr(calderon.holo, "PHASE_ATTEMPTS")


def test_critical_points_are_the_companion_eigenvalues():
    """find_critical_points certifies the eigenvalues numpy.roots returns
    as they are: holo has no Newton polish and no NEWTON_* constant."""
    assert not hasattr(calderon.holo, "_newton_polish")
    assert [name for name in vars(calderon.holo) if name.startswith("NEWTON_")] == []


def test_each_rule_has_one_owner():
    """The critical-point report alone judges a Morse point, so its
    thresholds are named in holo alone; DiskDomain alone computes gamma0's
    nodes and margin, and holo._derivative_rows alone builds fit rows."""
    src = Path(calderon.__file__).parent
    for name in ("DEGENERACY_THRESHOLD", "PRIMARY_TOL"):
        assert sorted(p.stem for p in src.glob("*.py") if name in p.read_text()) == ["holo"]
    assert not hasattr(calderon.holo, "_power_matrix")
    assert not hasattr(calderon.holo, "_gamma0_nodes")
    assert not hasattr(calderon.reconstruct, "_gamma_margin")
