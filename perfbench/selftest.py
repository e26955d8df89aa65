"""Tests of the benchmark itself (not of ``shortlong``).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: the repository's own test
run does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Probe, Tracer  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """Every module-level and probed-class binding the tracer may touch."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "shortlong" or name.startswith("shortlong."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for probe in layers.PROBES:
        if ":" in probe.owner:
            cls = sys.modules[probe.owner.split(":")[0]]
            cls = getattr(cls, probe.owner.split(":")[1])
            out.update({(probe.owner, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_patches_every_alias_and_restores_everything():
    from shortlong import bounds, corpus, links, losses, policy, training

    before = _bindings()
    tracer = Tracer(layers.PROBES)
    tracer.install()
    try:
        # Aliases made by ``from .x import f`` are patched where callers look.
        assert training.logprob is not before[("shortlong.policy", "logprob")]
        assert training.logprob is policy.logprob
        assert bounds.eval_link is links.eval_link is losses.eval_link
        assert bounds.eval_link is not before[("shortlong.links", "eval_link")]
        assert corpus.StubGenerator.__call__ is not before[("shortlong.corpus:StubGenerator",
                                                            "__call__")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def test_self_time_subtracts_children():
    pkg = types.ModuleType("fakepkg")

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        pkg.inner()

    pkg.inner, pkg.outer = inner, outer
    sys.modules["fakepkg"] = pkg
    try:
        tracer = Tracer([Probe("fake.inner", "fakepkg", "inner"),
                         Probe("fake.outer", "fakepkg", "outer")], package="fakepkg")
        with tracer:
            tracer.active = True
            pkg.outer()
            tracer.active = False
        own = tracer.self_times()
        assert own[("fake.inner", 0)] == pytest.approx(0.03, abs=0.015)
        assert own[("fake.outer", 0)] == pytest.approx(0.02, abs=0.015)
        assert sum(own.values()) == pytest.approx(tracer.root_time(0), abs=1e-9)
        assert pkg.outer is outer and pkg.inner is inner
    finally:
        del sys.modules["fakepkg"]


@pytest.mark.parametrize("make", [
    lambda root: workloads.TrainWorkload(3, n_train=48, n_eval=8, epochs=1, eval_passes=1),
    lambda root: workloads.CertifyWorkload(3, scenarios=20, lemma_reps=2),
    lambda root: workloads.ForgeWorkload(3, root / "forge", sources=12, needle_sources=40),
], ids=["train", "certify", "forge"])
def test_span_self_times_account_for_traced_wall(make, tmp_path):
    wl = make(tmp_path)
    wl.setup()
    tracer = Tracer(layers.PROBES)
    with tracer:
        tracer.run_id = 1
        tracer.active = True
        t0 = time.perf_counter()
        wl.run_round()
        wall = time.perf_counter() - t0
        tracer.active = False
    own = tracer.self_times()
    roots = tracer.root_time(1)
    assert sum(own.values()) == pytest.approx(roots, rel=1e-9)
    assert roots <= wall
    assert wall - roots < 0.05 * wall + 0.005
    metrics = layers.layer_metrics(tracer, 1, {1: wall}, 0.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["trace.coverage"] == pytest.approx(roots / wall)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.RATE_NAMES)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


def test_wrong_reference_is_a_failed_operation(tmp_path):
    wl = workloads.ForgeWorkload(3, tmp_path / "forge", sources=12, needle_sources=40)
    wl.setup()
    rnd = wl.run_round()
    good = wl.summary(rnd)
    assert wl.check(rnd, good).failures == []
    bad = dict(good, forged_sha256="0" * 64)
    chk = wl.check(rnd, bad)
    assert chk.attempted == 2 and len(chk.failures) == 1
    assert "forged.jsonl sha256" in chk.failures[0]

    train = workloads.TrainWorkload(3, n_train=48, n_eval=8, epochs=1, eval_passes=1)
    train.setup()
    rnd = train.run_round()
    ref = train.summary(rnd)
    assert train.check(rnd, ref).failures == []
    for key, wrong in (("final_loss", ref["final_loss"] * (1 + 10 * workloads.RTOL)),
                       ("short_acc", ref["short_acc"] + 1 / 8),
                       ("decoded_sha256", "0" * 64),
                       ("decoded_logprob_sum",
                        ref["decoded_logprob_sum"] * (1 + 10 * workloads.RTOL))):
        chk = train.check(rnd, dict(ref, **{key: wrong}))
        assert chk.attempted == 3 and len(chk.failures) == 1, key


def test_decode_check_sees_emitted_tokens(monkeypatch):
    """A decoder that emits other tokens fails even where the hit count
    cannot move (a near-chance model rarely hits)."""
    from shortlong import policy

    train = workloads.TrainWorkload(3, n_train=48, n_eval=8, epochs=1, eval_passes=1)
    train.setup()
    rnd = train.run_round()
    ref = train.summary(rnd)
    real = policy.sample

    def wrong_sample(*args, **kwargs):
        return [policy.ScoredSequence(("unanswered",), s.total_logprob, s.per_token_logprobs)
                for s in real(*args, **kwargs)]

    monkeypatch.setattr(policy, "sample", wrong_sample)
    failures = train.check(rnd, ref).failures
    assert len(failures) == 1 and failures[0].startswith("decode:")


def test_broken_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    refs = json.loads((HERE / "references.json").read_text())
    refs["forge"]["7"]["needle_sha256"] = "0" * 64
    (tmp_path / "references.json").write_text(json.dumps(refs))
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.main(["--workload", "forge", "--seed", "7", "--seconds", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
