"""The benchmark's span tracer patches reflectspde from outside and undoes it.

`perfbench/tracer.py` replaces every traced function wherever the package
binds it by name; a rename or deletion of one of those names breaks
`perfbench/run.py --trace 1`, and this test finds it first.
"""

import importlib.util
import sys
from pathlib import Path

import reflectspde.cli  # noqa: F401  (imports every module the tracer patches)
from reflectspde import fourier

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def package_bindings() -> dict:
    """Every attribute of every loaded reflectspde module, and of TrigBasis1D."""
    bound = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "reflectspde" or name.startswith("reflectspde.")
        for attr, value in vars(module).items()
    }
    bound.update({("TrigBasis1D", k): v for k, v in vars(fourier.TrigBasis1D).items()})
    return bound


def test_patch_then_restore_leaves_every_binding_as_it_was():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    before = package_bindings()
    t = tracer.Tracer()
    t.patch()
    try:
        changed = {key for key, value in package_bindings().items() if before.get(key) is not value}
        assert {("reflectspde.penalize", "simulate_path"), ("TrigBasis1D", "to_grid")} <= changed
    finally:
        t.restore()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
