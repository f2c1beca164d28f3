"""Names that code outside the package looks up in it, and code kept out of it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import jcqsim

import oracles

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_literal(name: str):
    """The literal assigned to ``name`` in perfbench/tracing.py, read without
    importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def test_every_name_the_tracer_wraps_resolves():
    # The tracer wraps these by name with getattr; a missing one crashes every
    # traced benchmark run.
    missing = [f"jcqsim.{layer}.{name}"
               for layer, names in _tracing_literal("LAYER_FUNCTIONS").items() for name in names
               if not callable(getattr(importlib.import_module(f"jcqsim.{layer}"), name, None))]
    assert not missing
    for namespace in _tracing_literal("NAMESPACES"):
        importlib.import_module(namespace)


def test_verification_references_live_only_in_the_tests():
    names = {"UnsupportedRegimeError", "closed_form_thermal", "conditional_entropy",
             "discord_grid_oracle", "ground_state_discord_analytic", "interbit_coupling",
             "intrabit_coupling", "measurement_projector", "scalar_cos_pi", "scalar_sin_pi",
             "spectral_concurrence", "von_neumann_entropy"}
    assert names <= set(vars(oracles))
    modules = [jcqsim] + [importlib.import_module(f"jcqsim.{m.name}")
                          for m in pkgutil.iter_modules(jcqsim.__path__) if m.name != "__main__"]
    assert [(m.__name__, n) for m in modules for n in sorted(names) if hasattr(m, n)] == []
