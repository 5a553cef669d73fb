"""The benchmark's traced run wraps names of the package; they must exist."""

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_targets_resolve_and_are_restored():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # each binding installed() rebinds: the method on its class, or the
    # function in every dkequiv module that holds it
    bindings = {}
    for owner, attr, _, _ in tracing.TARGETS:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # a plain method, which a wrapper can stand in for
            assert inspect.isfunction(owner.__dict__.get(attr)), (owner, attr)
            bindings[(owner, attr)] = original
            continue
        assert inspect.isfunction(original), (owner, attr)
        for mod in tracing._MODULES:
            if getattr(mod, attr, None) is original:
                bindings[(mod, attr)] = original
    with tracing.installed(tracing.Recorder()):
        for (owner, attr), original in bindings.items():
            assert getattr(owner, attr) is not original, (owner, attr)
    for (owner, attr), original in bindings.items():
        assert getattr(owner, attr) is original, (owner, attr)
