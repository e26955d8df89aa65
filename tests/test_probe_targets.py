"""Every function the perfbench tracer probes still exists where it looks.

``Tracer.install`` reads ``vars(owner)[attr]`` for each probe, so a renamed
or deleted target breaks ``perfbench/run.py --trace 1``. The test only reads
``perfbench/layers.py``; it runs no benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_probe_target_is_an_own_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.PROBES
    for probe in layers.PROBES:
        module, _, cls = probe.owner.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert probe.attr in vars(owner), f"{probe.owner}.{probe.attr} ({probe.name})"
