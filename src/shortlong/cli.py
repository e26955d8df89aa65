"""Command-line entry point wiring the modules into reproducible runs.

Every run writes a fixed layout under the output directory::

    manifest.json   inputs, digests, seed, version — enables byte-identical replay
    reports/        JSON/CSV reports
    data/           forged datasets and stats
    checkpoints/    model snapshots
    logs/           per-step training logs

Configs are flat ``key = value`` text files ('#' starts a comment); any key
can be overridden on the command line with ``--set key=value``. Each
subcommand's keys, their types and their defaults are declared once, in
``KEYS``; an unknown key is an error. Keys are documented in the README.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from . import bounds as bounds_mod
from . import efficiency
from .corpus import (PolicyCandidateGenerator, StubGenerator, build_chain_corpus,
                     needle_profile, needle_vocab, value_token, word_profile)
from .forge import (ForgedSample, ForgeStats, HaystackConfig, InsufficientPoolError,
                    iter_forged, read_distractor_pool, read_forged_jsonl,
                    read_source_jsonl, text_lines, write_forged_jsonl)
from .gradcheck import check_loss_gradients, check_policy_gradients
from .losses import Method, MethodConfig, RAMode
from .policy import ToyLM, Vocab, load_model, save_model
from .training import (NonFiniteLossError, TrainConfig, evaluate,
                       run_comparison, train)

__all__ = ["main", "load_config", "parse_settings", "KEYS"]


class ConfigError(ValueError):
    pass


def _config_lines(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each setting in a flat config file."""
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        yield lineno, key, value


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value config file; errors carry line numbers."""
    return {key: value for _, key, value in _config_lines(path)}


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {'/'.join(options)}, got {raw!r}")
        return raw
    return parse


def _at_least(least: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < least:
            raise ValueError(f"expected an integer >= {least}, got {value}")
        return value
    return parse


def _number(least: float, most: float = math.inf) -> Callable[[str], float]:
    span = (f"a finite number >= {least:g}" if most == math.inf
            else f"a number in [{least:g}, {most:g}]")

    def parse(raw: str) -> float:
        value = float(raw)
        if not (math.isfinite(value) and least <= value <= most):
            raise ValueError(f"expected {span}, got {raw!r}")
        return value
    return parse


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _flag_values(flag: str, parse: Callable[[str], object], texts: list[str]) -> list:
    """A flag's values, parsed; a bad one raises ConfigError naming the flag."""
    try:
        return [parse(text) for text in texts]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


# Per subcommand, key -> (parser, default). A None default leaves the value
# to the library call it feeds (or, for the corpus keys, to the corpus).
_NON_NEGATIVE = _at_least(0)
_SEED = {"seed": (_NON_NEGATIVE, 0)}
_COUNT = _at_least(1)
KEYS: dict[str, dict[str, tuple[Callable[[str], object], object]]] = {
    "verify-bounds": {
        **_SEED, "lemma_instances": (_at_least(len(bounds_mod.ALL_LINKS)), 1_000_000),
        "theorem1_scenarios": (_COUNT, 10_000), "theorem2_scenarios": (_COUNT, 10_000),
        "necessity_attempts": (_COUNT, 100_000), "selftest_instances": (_COUNT, 10_000)},
    "forge": {
        **_SEED, "corpus": (str, "builtin-needle"), "corpus_sources": (_COUNT, None),
        "corpus_pool": (_COUNT, None), "corpus_seed": (_NON_NEGATIVE, None),
        "distractor_pool": (str, None),
        "n_target": (_COUNT, None), "target_short_tokens": (_COUNT, None),
        "target_long_tokens": (_COUNT, None), "tolerance_frac": (_number(0), None),
        "condition_on": (str, None), "intersection": (_bool, None),
        "generator": (_choice("stub", "policy"), "stub"), "stub_p_correct": (_number(0, 1), 0.5),
        "stub_n": (_COUNT, None), "policy_checkpoint": (str, None), "policy_n": (_COUNT, None),
        "policy_temperature": (_number(0), None), "policy_max_len": (_COUNT, None)},
    "train": {
        **_SEED, "dataset": (str, None), "eval_dataset": (str, None),
        "method": (Method, Method.ORPO), "alpha": (_finite, None), "beta": (_finite, None),
        "gamma": (_finite, None), "eta": (_finite, None), "ra_mode": (RAMode, None),
        "include_nll": (_bool, None), "lr_max": (_finite, None), "warmup_ratio": (_finite, None),
        "batch_size": (_COUNT, None), "epochs": (_COUNT, None), "eval_every": (_NON_NEGATIVE, None),
        "po_context": (str, None), "telemetry": (_bool, None), "model_hidden": (_COUNT, None),
        "model_seed": (_NON_NEGATIVE, None)},
    "eval": {
        **_SEED, "checkpoint": (str, None), "dataset": (str, None),
        "context": (_choice("short", "long", "both"), "both"), "max_len": (_COUNT, None)},
    "speedup": _SEED,
    "grad-check": {**_SEED, "points": (_COUNT, 200)},
}
_METHOD_KEYS = ("alpha", "beta", "gamma", "eta", "ra_mode", "include_nll")
_TRAIN_KEYS = ("lr_max", "warmup_ratio", "batch_size", "epochs", "eval_every",
               "po_context", "telemetry")
# Keys naming input files whose digests go into the manifest.
_INPUT_KEYS = {"forge": ("corpus", "distractor_pool", "policy_checkpoint"),
               "train": ("dataset", "eval_dataset"),
               "eval": ("checkpoint", "dataset")}
# Built-in corpora: profile, default source and pool counts, default targets.
_CORPORA = {
    "builtin-needle": (needle_profile, 400, 360,
                       {"target_short_tokens": 64, "target_long_tokens": 512}),
    "builtin-word": (word_profile, 600, 2200, {}),
}


def _parse_value(command: str, where: str, key: str, text: str) -> object:
    if key not in KEYS[command]:
        raise ConfigError(f"{where}: unknown {command} key {key!r}")
    try:
        return KEYS[command][key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: config key {key!r}: {exc}") from None


def parse_settings(command: str, args: argparse.Namespace) -> dict[str, object]:
    """Every key of ``command``, typed: the defaults, then the config file,
    then ``--set``, then ``--seed``. Unknown keys and bad values raise
    ConfigError naming the key and where it was set."""
    given: list[tuple[str, str, str]] = []
    if args.config:
        given += [(f"{args.config}: line {lineno}", key, value)
                  for lineno, key, value in _config_lines(args.config)]
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        given.append(("--set", key.strip(), value.strip()))
    if args.seed is not None:
        given.append(("--seed", "seed", str(args.seed)))
    values = {key: default for key, (_, default) in KEYS[command].items()}
    for where, key, text in given:
        values[key] = _parse_value(command, where, key, text)
    return values


def _given(values: dict, *keys: str, prefix: str = "") -> dict:
    """The keys that were set, as keyword arguments with ``prefix`` removed."""
    return {key.removeprefix(prefix): values[key] for key in keys if values[key] is not None}


def _or(value, default):
    return default if value is None else value


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _prepare_run_dir(out: Path) -> None:
    for sub in ("reports", "data", "checkpoints", "logs"):
        (out / sub).mkdir(parents=True, exist_ok=True)


def _write_manifest(out: Path, args: argparse.Namespace, seed: int,
                    inputs: dict[str, Path]) -> None:
    manifest = {
        "subcommand": args.command,
        "config_path": args.config,
        "config_digest": _sha256(Path(args.config)) if args.config else None,
        "overrides": sorted(args.set or []),
        "seed": seed,
        "output_dir": str(out),
        "tool_version": __version__,
        "input_digests": {name: _sha256(p) for name, p in sorted(inputs.items())
                          if p.exists()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


# ---------------------------------------------------------------- verify-bounds


def cmd_verify_bounds(args, v: dict, out: Path) -> int:
    seed = v["seed"]
    if args.selftest_nonconvex:
        rep = bounds_mod.run_nonconvex_selftest(v["selftest_instances"], seed)
        _write_bound_reports(out, {"selftest_nonconvex": rep})
        # The sanity path must detect violations; finding none means the
        # harness is broken, which is also a nonzero outcome.
        print(f"selftest_nonconvex: max_violation={rep.max_violation:.3e} "
              f"witness={'yes' if rep.worst_witness else 'no'}")
        return 2 if rep.max_violation > bounds_mod.TOLERANCE else 3

    reports: dict[str, bounds_mod.BoundReport] = {
        "lemma1": bounds_mod.run_lemma1_suite(v["lemma_instances"], seed)}
    for form in ("exact", "sform"):
        for name, rep in bounds_mod.run_theorem1_suite(
                v["theorem1_scenarios"], seed, form=form).items():
            reports[f"theorem1_{form}[{name}]"] = rep
    for name, rep in bounds_mod.run_theorem2_suite(v["theorem2_scenarios"], seed).items():
        reports[f"theorem2[p={name}]"] = rep
    reports["assumption_necessity"] = bounds_mod.run_assumption_necessity_search(
        v["necessity_attempts"], seed)
    _write_bound_reports(out, reports)

    failed = []
    for name, rep in reports.items():
        if name == "assumption_necessity":
            status = "witness found" if rep.max_violation > bounds_mod.TOLERANCE \
                else "no witness (diagnostic)"
        else:
            status = "ok" if rep.passed else "VIOLATED"
            if not rep.passed:
                failed.append(name)
        print(f"{name}: max_violation={rep.max_violation:.3e} [{status}]")
    return 1 if failed else 0


def _write_bound_reports(out: Path, reports: dict[str, "bounds_mod.BoundReport"]) -> None:
    payload = {name: json.loads(rep.to_json()) for name, rep in reports.items()}
    (out / "reports" / "bounds.json").write_text(json.dumps(payload, indent=1, sort_keys=True))


# ------------------------------------------------------------------------ forge


def _load_corpus(v: dict) -> tuple[list, list, object]:
    corpus = v["corpus"]
    if corpus in _CORPORA:
        make_profile, n_sources, pool_size, _ = _CORPORA[corpus]
        profile = make_profile()
        sources, pool = build_chain_corpus(
            _or(v["corpus_sources"], n_sources), _or(v["corpus_pool"], pool_size),
            _or(v["corpus_seed"], v["seed"]), profile)
        return sources, pool, profile
    sources = read_source_jsonl(corpus)
    if not v["distractor_pool"]:
        raise ConfigError("external corpora require a 'distractor_pool' JSONL"
                          " of documents (one JSON string per line)")
    return sources, read_distractor_pool(v["distractor_pool"]), None


def _build_generator(v: dict, profile) -> object:
    if v["generator"] == "stub":
        wrong: tuple[str, ...] = ("noanswer",)
        if profile is not None:
            wrong = tuple(value_token(profile, i) for i in range(profile.n_values)) + wrong
        return StubGenerator(p_correct=v["stub_p_correct"], wrong_answers=wrong,
                             **_given(v, "stub_n", prefix="stub_"))
    if not v["policy_checkpoint"]:
        raise ConfigError("generator=policy requires 'policy_checkpoint'")
    return PolicyCandidateGenerator(
        load_model(v["policy_checkpoint"]),
        **_given(v, "policy_n", "policy_temperature", "policy_max_len", prefix="policy_"))


def _write_atomically(samples: Iterator[ForgedSample], path: Path) -> None:
    """Stream ``samples`` into ``path`` with ``.part`` appended, then rename
    it to ``path``: a forge that fails partway, for any reason, removes its
    partial file and leaves an earlier ``path`` as it was."""
    part = path.with_name(path.name + ".part")
    try:
        write_forged_jsonl(samples, part)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(path)


def cmd_forge(args, v: dict, out: Path) -> int:
    sources, pool, profile = _load_corpus(v)
    generator = _build_generator(v, profile)
    targets = _CORPORA[v["corpus"]][3] if v["corpus"] in _CORPORA else {}
    cfg = HaystackConfig(seed=v["seed"], **{**targets, **_given(
        v, "target_short_tokens", "target_long_tokens", "tolerance_frac")})
    stats = ForgeStats()
    samples = iter_forged(sources, pool, generator, cfg, stats, v["n_target"],
                          **_given(v, "condition_on", "intersection"))
    _write_atomically(samples, out / "data" / "forged.jsonl")
    (out / "data" / "forge_stats.json").write_text(stats.to_json())
    print(f"emitted {stats.emitted} samples "
          f"(discard rate {stats.discard_rate:.3f}, achieved c "
          f"{stats.achieved_compression:.4f})")
    return 0


# ------------------------------------------------------------------------ train


def _train_cfg(v: dict) -> TrainConfig:
    return TrainConfig(MethodConfig(v["method"], **_given(v, *_METHOD_KEYS)),
                       seed=v["seed"], **_given(v, *_TRAIN_KEYS))


def _compare_arms(spec: str, v: dict) -> list[tuple[str, TrainConfig]]:
    """One labelled config per value of ``--compare key:v1,v2,...``."""
    key, _, raw = spec.partition(":")
    key, texts = key.strip(), [t.strip() for t in raw.split(",") if t.strip()]
    if not texts:
        raise ConfigError("--compare expects key:value1,value2,...")
    parsed = [_parse_value("train", "--compare", key, text) for text in texts]
    if key not in ("method",) + _METHOD_KEYS + _TRAIN_KEYS:
        raise ConfigError(f"--compare: {key!r} does not vary the training objective")
    return [(f"{key}={text}", _train_cfg({**v, key: value}))
            for text, value in zip(texts, parsed)]


def _train_vocab(*datasets: list[ForgedSample]) -> Vocab:
    """``needle_vocab()`` followed by the datasets' tokens it lacks, in sorted
    order: needle datasets keep the needle vocabulary unchanged, and any
    dataset has at least the vocabulary's minimum size."""
    needle = needle_vocab()
    tokens = {tok for data in datasets for sample in data
              for text in astuple(sample) for tok in text.split()}
    return Vocab(needle.tokens + tuple(sorted(tokens - set(needle.tokens))))


def cmd_train(args, v: dict, out: Path) -> int:
    if args.seeds and not args.compare:
        raise ConfigError("--seeds requires --compare")
    arms = _compare_arms(args.compare, v) if args.compare else None
    if not v["dataset"]:
        raise ConfigError("train requires a 'dataset' (forged JSONL path)")
    dataset = read_forged_jsonl(v["dataset"])
    eval_set = read_forged_jsonl(v["eval_dataset"]) if v["eval_dataset"] else None
    vocab = _train_vocab(dataset, eval_set or [])
    hidden = {} if v["model_hidden"] is None else {"hidden_dim": v["model_hidden"]}

    if arms is not None:
        if eval_set is None:
            raise ConfigError("--compare requires 'eval_dataset'")
        seeds = _flag_values("--seeds", _NON_NEGATIVE, (args.seeds or str(v["seed"])).split(","))
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"--seeds must be distinct, got {args.seeds}")
        report = run_comparison(arms, dataset, eval_set,
                                {sd: ToyLM(vocab, seed=sd, **hidden) for sd in seeds})
        report.write_csv(out / "reports" / "comparison.csv")
        report.write_json(out / "reports" / "comparison.json")
        report.write_margins_csv(out / "reports" / "margins.csv")
        for label, agg in report.aggregates().items():
            print(f"{label}: long {agg['long_mean']:.3f}±{agg['long_std']:.3f} "
                  f"short {agg['short_mean']:.3f}±{agg['short_std']:.3f} (n={agg['n']})")
        return 0

    model = ToyLM(vocab, seed=_or(v["model_seed"], v["seed"]), **hidden)
    model, log = train(model, dataset, _train_cfg(v), vocab, eval_set=eval_set)
    save_model(model, out / "checkpoints" / "final.json")
    log.write_csv(out / "logs" / "train_log.csv")
    log.write_json(out / "logs" / "train_log.json")
    if log.evals:
        last = log.evals[-1]
        print(f"final accuracy: short {last.short_acc:.3f} long {last.long_acc:.3f}")
    else:
        print(f"trained {len(log.steps)} steps")
    return 0


# ------------------------------------------------------------------------- eval


def cmd_eval(args, v: dict, out: Path) -> int:
    if not v["checkpoint"] or not v["dataset"]:
        raise ConfigError("eval requires 'checkpoint' and 'dataset'")
    model = load_model(v["checkpoint"])
    dataset = read_forged_jsonl(v["dataset"])
    kinds = ("short", "long") if v["context"] == "both" else (v["context"],)
    try:
        result = {f"{kind}_acc": evaluate(model, dataset, kind, model.vocab,
                                          **_given(v, "max_len"))
                  for kind in kinds}
    except ValueError as exc:  # e.g. a token the checkpoint's vocabulary lacks
        raise ValueError(f"{v['dataset']}: {exc}") from None
    (out / "reports" / "eval.json").write_text(json.dumps(result, sort_keys=True))
    print(" ".join(f"{k}={val:.4f}" for k, val in sorted(result.items())))
    return 0


# ---------------------------------------------------------------------- speedup


def cmd_speedup(args, v: dict, out: Path) -> int:
    c_values = _flag_values("--c", float, args.c or ["0.125", "0.25", "0.5", "1.0"])
    n_values = _flag_values("--n", float, args.n or ["1000"])
    models = [efficiency.CostModel(long_tokens=n, compression=c)
              for n in n_values for c in c_values]
    efficiency.write_report_csv(models, out / "reports" / "speedup.csv")
    for c in c_values:
        print(f"c={c:g} speedup={efficiency.speedup(c):.3f}")
    return 0


# ------------------------------------------------------------------- grad-check


def cmd_grad_check(args, v: dict, out: Path) -> int:
    loss_report = check_loss_gradients(v["points"], v["seed"])
    policy_report = check_policy_gradients(v["seed"])
    payload = {"loss_gradients": loss_report, "policy_gradients": policy_report}
    (out / "reports" / "gradcheck.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    worst = max(loss_report["max_relative_error"], policy_report["max_relative_error"])
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


# ------------------------------------------------------------------------- main


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default="run", help="run directory (default: ./run)")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortlong",
        description="Short-to-long preference optimization laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bounds", help="certify the decomposition inequalities")
    _add_common(p)
    p.add_argument("--selftest-nonconvex", action="store_true",
                   help="run the violation-detection sanity path (exits nonzero)")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("forge", help="synthesize haystack contexts and preference pairs")
    _add_common(p)
    p.set_defaults(func=cmd_forge)

    p = sub.add_parser("train", help="train the toy policy on a forged dataset")
    _add_common(p)
    p.add_argument("--compare", metavar="KEY:V1,V2,...",
                   help="train a matrix over one config key")
    p.add_argument("--seeds", metavar="S1,S2,...",
                   help="seed list for --compare (default: the single seed)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a forged dataset")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("speedup", help="emit the analytic cost/speedup report")
    _add_common(p)
    p.add_argument("--c", action="append", metavar="C", help="compression rate(s)")
    p.add_argument("--n", action="append", metavar="N", help="long length(s) in tokens")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("grad-check", help="finite-difference gradient validation")
    _add_common(p)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse the keys, run the subcommand in a fresh run directory, and write
    ``manifest.json`` unless the run failed with an error."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        values = parse_settings(args.command, args)
        _prepare_run_dir(out)
        rc = args.func(args, values, out)
    except NonFiniteLossError as exc:
        (out / "reports" / "abort.json").write_text(json.dumps(exc.diagnostic, sort_keys=True))
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, InsufficientPoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    inputs = {key: Path(values[key]) for key in _INPUT_KEYS.get(args.command, ())
              if values[key] and values[key] not in _CORPORA}
    _write_manifest(out, args, values["seed"], inputs)
    return rc


if __name__ == "__main__":
    sys.exit(main())
