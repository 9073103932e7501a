"""railbench traces package functions by ``module:attr`` name; they must still exist."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "railbench" / "layers.py"

# Retired on purpose: ``train`` updates each tensor through ``optim.adamw_update``
# inside the backward walk, so the tracer reports this target missing and its
# metrics read 0, as they did while it still existed.
RETIRED = ["railswin.optim:adamw_step"]


class RecordingTracer:
    def __init__(self):
        self.targets = []

    def install(self, target, name, span=True, hook=None):
        self.targets.append(target)


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("railbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = RecordingTracer()
    layers.install(tracer)
    assert len(tracer.targets) == len(set(tracer.targets)) == 50
    missing = []
    for target in tracer.targets:
        module, attr = target.split(":")
        if not hasattr(importlib.import_module(module), attr):
            missing.append(target)
    assert missing == RETIRED
