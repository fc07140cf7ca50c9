"""The benchmark's tracer wraps names in the package; each one it lists must resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_package_and_restores_every_binding():
    # Tracer.install reads owner.__dict__[attr], so a name deleted from
    # sim or cli fails here with a KeyError, not only in a traced benchmark
    tracer_module = load_tracer()
    targets = [(tracer_module._resolve(path), attr) for path, attr, _ in tracer_module.TARGETS]
    originals = [vars(owner).get(attr) for owner, attr in targets]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, attr  # wrapped
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, attr
