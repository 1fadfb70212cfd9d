"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function of whsymm by a
timing wrapper in every whsymm module namespace that binds it, so calls
made inside the package are seen too; ``uninstall`` puts the originals
back.  Each call becomes a span (name, start, end, parent, job); spans
stay in memory and are written out when the run ends.  A layer's time
counts only its outermost span, so recursion is not counted twice; its
call count counts every call.

The verifier's public pieces are timed apart, on the inputs each
``verify_matrix_factorization`` call received: grid evaluation of the
target and both factors on the job grid, and the determinant index
oracle on both factors and the target.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "groups.build_group": ("groups", "build_group"),
    "reps.irreps_for": ("reps", "irreps_for"),
    "reps.fourier_matrix": ("reps", "fourier_matrix"),
    "blocks.assemble_matrix": ("blocks", "assemble_matrix"),
    "blocks.block_diagonalize": ("blocks", "block_diagonalize"),
    "blocks.partial_indices": ("blocks", "partial_indices"),
    "blocks.factor_block": ("blocks", "factor_block"),
    "blocks.assemble_full_factorization": ("blocks", "assemble_full_factorization"),
    "scalar.factor_rational": ("scalar", "factor_rational"),
    "scalar.verify_scalar": ("scalar", "verify_scalar"),
    "symbols.poly_roots": ("symbols", "poly_roots"),
    "symbols.winding_index": ("symbols", "winding_index"),
    "center.center_factorize": ("center", "center_factorize"),
    "center.assemble_center_matrix": ("center", "assemble_center_matrix"),
    "verify.verify_matrix_factorization": ("verify", "verify_matrix_factorization"),
    "cli.main": ("cli", "main"),
}
_VERIFY = "verify.verify_matrix_factorization"
# the verifier samples determinants on at least this many points
_DEFAULT_FLOOR = 1 << 14


class Tracer:
    def __init__(self, whsymm) -> None:
        importlib.import_module("whsymm.cli")  # brings in whsymm.documents too
        self.W = whsymm
        self.spans: list = []
        self.job = -1
        self.origin = time.perf_counter()
        self.verify_inputs: list = []
        self.det_samples_bytes = 0
        self._stack: list[int] = []
        self._depth = collections.Counter()
        self._active = False
        self._patched: list = []

    # -- installing -----------------------------------------------------

    def _targets(self):
        for metric, (mod, attr) in LAYERS.items():
            yield metric, getattr(getattr(self.W, mod), attr)
        docs = self.W.documents
        for attr in sorted(vars(docs)):
            if attr.startswith("parse_"):
                yield "documents.parse", getattr(docs, attr)
            elif attr.startswith("serialize_") or attr == "dumps":
                yield "documents.serialize", getattr(docs, attr)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "whsymm" or name.startswith("whsymm.")]
        for metric, orig in self._targets():
            wrapped = self._wrap(metric, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, orig))
        self._active = True

    def uninstall(self) -> None:
        self._active = False
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, metric: str, fn):
        tracer = self
        sig = inspect.signature(fn) if metric == _VERIFY else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.verify_inputs.append(dict(bound.arguments))
            with tracer.span(metric):
                return fn(*args, **kwargs)

        return wrapper

    # -- spans ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        outer = self._depth[name] == 0
        self._depth[name] += 1
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            self.spans[sid] = (name, start, end, parent, self.job, outer)

    def probe_verifier(self) -> None:
        """Time the verifier's pieces on the inputs of every verifier call
        since the last probe.  Runs with the wrappers switched off."""
        W = self.W
        floor = getattr(W.verify, "_WINDING_FLOOR", _DEFAULT_FLOOR)
        self._active = False
        try:
            for call in self.verify_inputs:
                target, fac, grid_n = call["target"], call["fac"], call["grid_n"]
                mats = (target, fac.minus, fac.plus)
                grid = W.CircleGrid(grid_n)
                with self.span("probe.eval_grid"):
                    for m in mats:
                        m.eval_grid(grid)
                with self.span("probe.det_index_oracle"):
                    for m in (fac.minus, fac.plus, target):
                        try:
                            W.det_index_oracle(m, grid_n)
                        except W.WhsymmError:
                            pass
                for m in mats:
                    r, c = m.shape
                    self.det_samples_bytes = max(
                        self.det_samples_bytes, max(grid_n, floor) * r * c * 16
                    )
        finally:
            self.verify_inputs.clear()
            self._active = bool(self._patched)

    # -- results --------------------------------------------------------

    def totals(self) -> tuple[collections.Counter, collections.Counter]:
        """(seconds in outermost spans, number of spans) per name."""
        busy, calls = collections.Counter(), collections.Counter()
        for name, start, end, _parent, _job, outer in self.spans:
            calls[name] += 1
            if outer:
                busy[name] += end - start
        return busy, calls

    def write(self, path: str) -> None:
        rows = [
            [name, round(start - self.origin, 7), round(end - self.origin, 7), parent, job]
            for name, start, end, parent, job, _outer in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job"], "spans": rows}, fh)
