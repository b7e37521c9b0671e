"""The benchmark tracer (`bench/tracer.py`) patches sutwist functions and
methods by name.  Installing and removing it on the live package here makes a
rename that would break `bench/run.py --trace 1` fail the test suite."""

import importlib.util
import sys
from pathlib import Path

import sutwist.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("sutwist_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_namespaces() -> dict[str, dict]:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "sutwist" or name.startswith("sutwist.")
    }


def test_install_patches_every_name_and_uninstall_restores_it():
    tracer_mod = _load_tracer()
    before = _package_namespaces()
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr in tracer_mod.COUNTED_METHODS.values()}
    functions = [(layer, name) for layer, names in tracer_mod.SPANS.items() for name in names]
    functions += list(tracer_mod.COUNTED_FUNCTIONS.values())

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for module_name, attr in functions:
            home = f"sutwist.{module_name}"
            assert getattr(sys.modules[home], attr) is not before[home][attr], f"{home}.{attr} not patched"
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original, f"{cls.__name__}.{attr} not patched"
    finally:
        tracer.uninstall()

    after = _package_namespaces()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key} not restored"
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr} not restored"
