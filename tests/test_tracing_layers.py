"""The traced benchmark run looks every layer function up by name; each must exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> dict:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYERS not found in perfbench/tracing.py")


def test_every_traced_layer_function_resolves():
    layers = traced_layers()
    assert layers
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"signalmfg.{layer}"), name, None))
    ]
    assert missing == []
