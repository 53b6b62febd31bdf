"""Outside-in span tracer for the calderon package.

The tracer never edits the package: it replaces the public functions of
each module, and the ``__init__`` and public methods of each class, with
wrappers that record a span around the call.  Modules such as ``cli`` and
``reconstruct`` import functions by name, so after wrapping a function at
its defining module the tracer also rebinds every other module attribute
that refers to the same function object; wrapping only the defining
module would miss those calls.  ``scipy.sparse.linalg.splu`` is wrapped as
an attribute and attributed to the layer of the span that called it.

Spans (name, layer, start, end, parent, run id) are kept in memory and
written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time

LAYERS = ("geometry", "scenarios", "forward", "holo", "cgo", "carleman", "reconstruct", "cli")

# Private helpers stay unwrapped: some are hot (holo._derivative_row runs
# about 65k times per reconstruct run), and a span per call would cost more
# than the call.  The one exception is the mesh CSV writer, the CLI's
# largest output, which no public function covers.
PRIVATE_WRAPPED = {"cli._mesh_export"}

# cauchy_transform builds its dense kernel in row blocks of about this many
# entries (the chunk size in calderon.holo at this version); the largest
# block held at once is what holo.transform_kernel_bytes reports.
TRANSFORM_CHUNK_ENTRIES = 4e6


class Tracer:
    """Span recorder plus the counters computed at layer boundaries."""

    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self._stack = []
        self._patches = []
        self.lu_fill = {"forward": 0, "cgo": 0}
        self.transform_pairs = 0
        self.transform_chunk_bytes = 0
        self.operators = set()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _caller_layer(self) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else "scipy"

    def _wrap(self, fn, name: str, layer, hook=None):
        """Span around fn; layer is a string or a no-argument callable.

        The hook computes counters after the call.  It runs in its own
        ``trace`` span so that its cost is not charged to the caller's
        self time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer() if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                h = tracer._open("trace.hook", "trace")
                try:
                    hook(idx, args, kwargs, result)
                finally:
                    tracer._close(h)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- counters ------------------------------------------------------------

    def _after_splu(self, idx, args, kwargs, lu):
        layer = self.spans[idx][1]
        if layer in self.lu_fill:
            self.lu_fill[layer] = max(self.lu_fill[layer], int(lu.L.nnz + lu.U.nnz))

    def _after_operator(self, idx, args, kwargs, result):
        op = args[0]
        self.operators.add((id(op.mesh), hashlib.sha1(op.V.tobytes()).hexdigest()))

    def _after_transform(self, idx, args, kwargs, result):
        bound = self._transform_signature.bind(*args, **kwargs)
        f_values, mesh = bound.arguments["f_values"], bound.arguments["mesh"]
        n_eval, n_src = result.size, _transform_sources(f_values, mesh)
        self.transform_pairs += n_eval * n_src
        if n_src:
            rows = min(n_eval, max(1, int(TRANSFORM_CHUNK_ENTRIES / n_src)))
            self.transform_chunk_bytes = max(self.transform_chunk_bytes, 16 * rows * n_src)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of the package and rebind import sites."""
        import scipy.sparse.linalg as spla

        package = importlib.import_module("calderon")
        modules = {layer: importlib.import_module(f"calderon.{layer}") for layer in LAYERS}
        self._transform_signature = inspect.signature(modules["holo"].cauchy_transform)
        hooks = {
            "holo.cauchy_transform": self._after_transform,
            "forward.SchrodingerOperator.__init__": self._after_operator,
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    if attr.startswith("_") and qual not in PRIVATE_WRAPPED:
                        continue
                    wrapped[id(obj)] = (obj, self._wrap(obj, qual, layer, hooks.get(qual)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mattr, member in list(vars(obj).items()):
                        mqual = f"{qual}.{mattr}"
                        if not inspect.isfunction(member) or (mattr.startswith("_") and mattr != "__init__"):
                            continue
                        self._patch(obj, mattr, self._wrap(member, mqual, layer, hooks.get(mqual)))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        self._patch(spla, "splu", self._wrap(spla.splu, "splu", self._caller_layer, self._after_splu))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "layer", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the time its children cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the time they cover.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _transform_sources(f_values, mesh) -> int:
    """n_src of one dense Cauchy transform.

    The source set cauchy_transform sums over is the support of f dilated
    by its singularity-subtraction radius of 4 mesh resolutions.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    f = np.asarray(f_values)
    support = np.abs(f) > 0
    if not np.any(support):
        return 0
    pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
    dist, _ = cKDTree(pts[support]).query(pts)
    return int(np.count_nonzero(dist <= 4.0 * mesh.resolution + 1e-12))


def layer_metrics(tracer: Tracer, wall_s: float, n_vertices: int, bytes_written: int, carleman_reports: list) -> dict:
    """Per-layer metrics from the recorded spans and counters."""
    spans = tracer.spans
    self_t = self_times(spans)
    dur = [s[3] - s[2] for s in spans]
    out = {}

    def total(*names, layer=None):
        return sum(d for s, d in zip(spans, dur) if s[0] in names and (layer is None or s[1] == layer))

    def self_of(*names):
        return sum(t for s, t in zip(spans, self_t) if s[0] in names)

    def count(name, layer=None):
        return sum(1 for s in spans if s[0] == name and (layer is None or s[1] == layer))

    def under(idx, name):
        parent = spans[idx][4]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][4]
        return False

    for layer in LAYERS + ("trace",):
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, self_t) if s[1] == layer)
    out["geometry.mesh_build_s"] = total("geometry.build_disk_mesh")
    out["geometry.n_vertices"] = n_vertices
    out["scenarios.load_s"] = total("scenarios.load_scenario")
    out["forward.factorizations"] = count("splu", "forward")
    out["forward.factorizations_distinct"] = len(tracer.operators)
    out["forward.factorize_s"] = total("splu", layer="forward")
    out["forward.operator_build_s"] = total("forward.SchrodingerOperator.__init__")
    out["forward.lu_fill_nnz"] = tracer.lu_fill["forward"]
    out["forward.solves"] = count("forward.SchrodingerOperator.solve_dirichlet")
    out["forward.solve_s"] = total("forward.SchrodingerOperator.solve_dirichlet")
    out["holo.transform_calls"] = count("holo.cauchy_transform")
    out["holo.transform_s"] = total("holo.cauchy_transform")
    out["holo.transform_pairs"] = tracer.transform_pairs
    out["holo.transform_kernel_bytes"] = tracer.transform_chunk_bytes
    out["holo.phase_builds"] = count("holo.build_morse_phase")
    out["holo.phase_build_s"] = self_of("holo.build_morse_phase")
    out["holo.critical_points_s"] = total("holo.find_critical_points")
    out["cgo.prepare_s"] = total("cgo.prepare_cgo")
    out["cgo.complete_s"] = total("cgo.complete_solution")
    out["cgo.duality_s"] = total("cgo.duality_completion")
    out["cgo.conjugated_lu"] = count("splu", "cgo")
    out["cgo.conjugated_lu_s"] = total("splu", layer="cgo")
    out["cgo.conjugated_lu_fill_nnz"] = tracer.lu_fill["cgo"]
    out["cgo.h1_norm_s"] = total("cgo.h1_norm")
    out["carleman.weight_build_s"] = total("carleman.build_carleman_weight")
    out["carleman.sweep_s"] = total("carleman.carleman_sweep")
    out["carleman.ratio_evals"] = sum(len(r["min_ratio_per_h"]) * r["sample_count"] for r in carleman_reports)
    out["reconstruct.points"] = count("reconstruct.pointwise_difference")
    out["reconstruct.pairings_s"] = self_of("reconstruct.cgo_pairings")
    out["reconstruct.boundary_sweep_s"] = total("reconstruct.boundary_pairing_sweep")
    out["reconstruct.boundary_solves"] = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "forward.SchrodingerOperator.solve_dirichlet" and under(i, "reconstruct.boundary_pairing_sweep")
    )
    out["cli.io_s"] = total("cli.emit_report", "cli._mesh_export")
    out["cli.bytes_written"] = bytes_written
    out["trace.spans"] = len(spans)
    out["trace.wall_s"] = wall_s
    return out
