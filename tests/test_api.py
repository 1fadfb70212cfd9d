"""Names the benchmark harness reads from the package.

perfbench/tracing.py wraps whsymm functions by module and attribute
name and binds verifier arguments by parameter name.  A rename that
breaks one of these fails here instead of in a traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import whsymm
import whsymm.cli  # noqa: F401  (the tracer reads whsymm.cli and whsymm.documents)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = load_layers()
    assert layers
    for metric, (mod, attr) in layers.items():
        assert callable(getattr(getattr(whsymm, mod), attr)), metric


def test_names_the_verifier_probe_uses():
    for name in ("det_index_oracle", "CircleGrid", "WhsymmError", "documents", "verify"):
        assert hasattr(whsymm, name), name
    params = inspect.signature(whsymm.verify_matrix_factorization).parameters
    assert {"target", "fac", "grid_n"} <= set(params)
