"""Benchmark entry point for the shortlong lab.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it wraps the public functions of
each ``shortlong`` module (see ``layers.py``) and reports per-layer counts and
self times instead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its meaning on this workload, and one
``meta`` line records the run's seed, input sizes and environment.
"""

from __future__ import annotations

import os

# One process, one BLAS/OpenMP thread: pinned before numpy is first imported.
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
UNTRACED_REFERENCE_ROUNDS = 3

# Name -> unit, as BENCHMARK.json declares them; the meaning of the two rates
# per workload is in workloads.RATE_NAMES.
END_TO_END = {m["name"]: m["unit"] for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

clock = time.perf_counter


def import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + ", ".join(modules)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def git_revision() -> str | None:
    """HEAD of the checkout, or None when it is not the root of a git work tree."""
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30,
                                   check=True).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return None
    return head if Path(top).resolve() == ROOT.resolve() else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "shortlong").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values)}


def attempt(wl, ref, tally: "Tally", tracer=None) -> float:
    """Run one round, check it and add it to ``tally``; returns the round's
    wall time. An exception is one failed operation."""
    from workloads import Check

    before = hostspeed.seconds()
    if tracer is not None:
        tracer.active = True
    t0 = clock()
    try:
        rnd = wl.run_round()
    except Exception:
        rnd, chk = None, Check(1, [f"round raised:\n{traceback.format_exc()}"])
    finally:
        if tracer is not None:
            tracer.active = False
    wall = clock() - t0
    factor = hostspeed.speed_factor(before, hostspeed.seconds())
    if rnd is not None:
        try:
            chk = wl.check(rnd, ref)
        except Exception:
            chk = Check(1, [f"check raised:\n{traceback.format_exc()}"])
    tally.add(rnd, chk, factor)
    return wall


class Tally:
    """Checked operations and rate samples, raw and at reference host speed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.raw: dict[str, list[float]] = {"primary_per_s": [], "secondary_per_s": []}
        self.rates: dict[str, list[float]] = {"primary_per_s": [], "secondary_per_s": []}
        self.factors: list[float] = []

    def add(self, rnd, chk, factor: float) -> None:
        self.attempted += chk.attempted
        self.failures += chk.failures
        self.factors.append(factor)
        if rnd is not None:
            for name, samples in (("primary_per_s", rnd.primary),
                                  ("secondary_per_s", rnd.secondary)):
                self.raw[name] += samples
                self.rates[name] += [r * factor for r in samples]

    def median(self, name: str) -> float:
        values = self.rates[name]
        return statistics.median(values) if values else 0.0

    def detail(self) -> dict:
        return {"host_speed_factor": quartiles(self.factors),
                **{f"raw_{k}": quartiles(v) for k, v in self.raw.items()},
                **{k: quartiles(v) for k, v in self.rates.items()}}


def timed_run(wl, ref, seconds: float) -> tuple[dict, Tally, dict]:
    """Set up, then run rounds for ``seconds``.

    The ``SETUP_REPEATS`` set-ups are spread evenly over the run, so that
    their median sees the same host conditions as the rounds do. Times and
    rates are reported at reference host speed (see ``hostspeed``).
    """
    setups: list[float] = []
    raw_setups: list[float] = []

    def timed_setup() -> None:
        before = hostspeed.seconds()
        imported = import_seconds(wl.modules)
        t0 = clock()
        wl.setup()
        raw = imported + clock() - t0
        raw_setups.append(raw)
        setups.append(raw / hostspeed.speed_factor(before, hostspeed.seconds()))

    timed_setup()
    tally = Tally()
    start = clock()
    while True:
        attempt(wl, ref, tally)
        elapsed = clock() - start
        if elapsed >= seconds:
            break
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            timed_setup()
    while len(setups) < SETUP_REPEATS:
        timed_setup()
    values = {
        "primary_per_s": tally.median("primary_per_s"),
        "secondary_per_s": tally.median("secondary_per_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: values[name] for name in END_TO_END}
    detail = {"setup_s": quartiles(setups), "raw_setup_s": quartiles(raw_setups),
              **tally.detail()}
    return metrics, tally, detail


def traced_run(wl, ref, seconds: float, spans_path: Path) -> tuple[dict, Tally, dict]:
    import layers
    from spans import Tracer

    wl.setup()
    start = clock()
    untraced = Tally()
    for _ in range(UNTRACED_REFERENCE_ROUNDS):  # the first one also warms up
        attempt(wl, ref, untraced)
    tally = Tally()
    tracer = Tracer(layers.PROBES)
    walls: dict[int, float] = {}
    tracer.install()
    try:
        tracer.active = True
        t0 = clock()
        wl.setup()
        walls[0] = clock() - t0
        tracer.active = False
        rounds = 0
        while True:
            rounds += 1
            tracer.run_id = rounds
            walls[rounds] = attempt(wl, ref, tally, tracer)
            if clock() - start >= seconds:
                break
    finally:
        tracer.restore()
    traced_rate = tally.median("primary_per_s")
    overhead = (untraced.median("primary_per_s") / traced_rate - 1.0) * 100.0 \
        if traced_rate else 0.0
    metrics = layers.layer_metrics(tracer, rounds, walls, overhead)
    tracer.save(str(spans_path))
    detail = {"traced_rounds": rounds, "spans": len(tracer.span_start),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "untraced": untraced.detail(), "traced": tally.detail()}
    tally.attempted += untraced.attempted
    tally.failures = untraced.failures + tally.failures
    return metrics, tally, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "certify", "forge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shortlong" / "__init__.py").is_file():
        print(f"error: no shortlong sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import shortlong

    if SRC.resolve() not in Path(shortlong.__file__).resolve().parents:
        print(f"error: imported shortlong from {shortlong.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    references = json.loads((HERE / "references.json").read_text())
    input_seed = args.seed % workloads.INPUT_SETS
    ref = references.get(args.workload, {}).get(str(input_seed))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, input_seed, work_dir)
    try:
        if args.trace:
            import layers
            metrics, tally, detail = traced_run(wl, ref, args.seconds,
                                                OUT / f"spans-{stem}.npz")
            units = layers.PER_LAYER
        else:
            metrics, tally, detail = timed_run(wl, ref, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "input_set": input_seed,
        "held_out_seed": workloads.HELD_OUT_SEED, "run_seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes(),
        "rates": dict(zip(("primary_per_s", "secondary_per_s"),
                          workloads.RATE_NAMES[args.workload])),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_pin": {v: os.environ[v] for v in BLAS_PIN},
        "git_revision": git_revision(), "src_sha256": src_digest(),
        "detail": detail,
    }
    for message in tally.failures:
        print(f"FAILED {args.workload}: {message}", file=sys.stderr)
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result, "failures": tally.failures}, indent=1))
    print("meta " + json.dumps(meta, sort_keys=True))
    labels = meta["rates"]
    for name, value in metrics.items():
        label = f"{labels[name]} ({name})" if name in labels else name
        print(f"{label:56s} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
