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
``KEYS``; an unknown key is an error. Its handler, help text and flags are
declared once, in ``COMMANDS``. Both are documented in the README.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import __version__
from . import bounds as bounds_mod
from . import efficiency
from .corpus import (PolicyCandidateGenerator, SourceSample, StubGenerator,
                     build_chain_corpus, needle_profile, needle_vocab, value_token,
                     word_profile)
from .forge import (ForgedSample, ForgeStats, HaystackConfig, InsufficientPoolError,
                    iter_forged, iter_source_jsonl, read_distractor_pool,
                    read_forged_jsonl, text_lines, write_forged_jsonl)
from .gradcheck import check_loss_gradients, check_step_gradients
from .losses import Method, MethodConfig, RAMode
from .policy import ToyLM, Vocab, load_model, save_model
from .training import (NonFiniteLossError, TrainConfig, evaluate, run_comparison,
                       strict_json, train)

__all__ = ["main", "load_config", "parse_settings", "Settings", "KEYS", "COMMANDS"]


class ConfigError(ValueError):
    pass


class Settings(dict):
    """Every key of a subcommand, typed, and ``where`` each given key was last
    set: ``<file>: line <n>``, ``--set`` or ``--seed``."""

    def __init__(self, values: dict[str, object], where: dict[str, str]):
        super().__init__(values)
        self.where = where


@contextlib.contextmanager
def _naming_sources(where: dict[str, str], keys: Iterable[str]) -> Iterator[None]:
    """A ValueError raised inside, prefixed with the distinct places in
    ``where`` that set one of ``keys``."""
    try:
        yield
    except ValueError as exc:
        keys = set(keys)
        places = dict.fromkeys(at for key, at in where.items() if key in keys)
        raise ConfigError(f"{', '.join(places)}: {exc}") from None


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


def _number(least: float = -math.inf, most: float = math.inf, open_least: bool = False,
            open_most: bool = False) -> Callable[[str], float]:
    """A finite number from ``least`` to ``most``, each bound included unless open."""
    low, high = "(" if open_least else "[", ")" if open_most else "]"
    span = (f"a number in {low}{least:g}, {most:g}{high}" if most < math.inf else
            "a finite number" + (f" {'>' if open_least else '>='} {least:g}"
                                 if least > -math.inf else ""))

    def parse(raw: str) -> float:
        value = float(raw)
        if not (math.isfinite(value) and (least < value if open_least else least <= value)
                and (value < most if open_most else value <= most)):
            raise ValueError(f"expected {span}, got {raw!r}")
        return value
    return parse


def _path(raw: str) -> str:
    """A file the run reads; the manifest records its digest."""
    return raw


# Per subcommand, key -> (parser, default). A None default leaves the value
# to the library call it feeds (or, for the corpus keys, to the corpus).
_NON_NEGATIVE = _at_least(0)
_SEED = {"seed": (_NON_NEGATIVE, 0)}
_COUNT = _at_least(1)
_SHORT_LONG = _choice("short", "long")
_finite = _number()
KEYS: dict[str, dict[str, tuple[Callable[[str], object], object]]] = {
    "verify-bounds": {
        **_SEED, "lemma_instances": (_at_least(len(bounds_mod.ALL_LINKS)), 1_000_000),
        "theorem1_scenarios": (_COUNT, 10_000), "theorem2_scenarios": (_COUNT, 10_000),
        "necessity_attempts": (_COUNT, 100_000), "selftest_instances": (_COUNT, 10_000)},
    "forge": {
        **_SEED, "corpus": (_path, "builtin-needle"), "corpus_sources": (_COUNT, None),
        "corpus_pool": (_COUNT, None), "corpus_seed": (_NON_NEGATIVE, None),
        "distractor_pool": (_path, None),
        "n_target": (_COUNT, None), "target_short_tokens": (_COUNT, None),
        "target_long_tokens": (_COUNT, None), "tolerance_frac": (_number(0), None),
        "condition_on": (_SHORT_LONG, None), "intersection": (_bool, None),
        "generator": (_choice("stub", "policy"), "stub"), "stub_p_correct": (_number(0, 1), 0.5),
        "stub_n": (_COUNT, None), "policy_checkpoint": (_path, None), "policy_n": (_COUNT, None),
        "policy_temperature": (_number(0), None), "policy_max_len": (_COUNT, None)},
    "train": {
        **_SEED, "dataset": (_path, None), "eval_dataset": (_path, None),
        "method": (Method, Method.ORPO), "alpha": (_number(0), None), "beta": (_finite, None),
        "gamma": (_finite, None), "eta": (_number(0, open_least=True), None),
        "ra_mode": (RAMode, None), "include_nll": (_bool, None), "lr_max": (_number(0), None),
        "warmup_ratio": (_number(0, 1, open_most=True), None),
        "batch_size": (_COUNT, None), "epochs": (_COUNT, None), "eval_every": (_NON_NEGATIVE, None),
        "po_context": (_SHORT_LONG, None), "telemetry": (_bool, None), "model_hidden": (_COUNT, None),
        "model_seed": (_NON_NEGATIVE, None)},
    "eval": {
        **_SEED, "checkpoint": (_path, None), "dataset": (_path, None),
        "context": (_choice("short", "long", "both"), "both"), "max_len": (_COUNT, None)},
    "speedup": _SEED,
    "grad-check": {**_SEED, "points": (_COUNT, 200)},
}
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


# The train keys a --compare run does not read, and why.
_NOT_UNDER_COMPARE = {"model_seed": "each cell's model is seeded by its seed",
                      "eval_every": "each cell is evaluated once, after training"}


def parse_settings(command: str, args: argparse.Namespace) -> Settings:
    """Every key of ``command``, typed: the defaults, then the config file,
    then ``--set``, then ``--seed``. Unknown keys, bad values, keys that
    ``--compare`` does not read and a ``seed`` under ``--compare`` with
    ``--seeds`` raise ConfigError naming the key and where it was set."""
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
    places: dict[str, str] = {}
    compare = getattr(args, "compare", None) is not None
    for where, key, text in given:
        values[key], places[key] = _parse_value(command, where, key, text), where
        if compare and key in _NOT_UNDER_COMPARE:
            raise ConfigError(f"{where}: config key {key!r} is not read under --compare: "
                              f"{_NOT_UNDER_COMPARE[key]}")
    if compare and getattr(args, "seeds", None) is not None and "seed" in places:
        raise ConfigError(f"{places['seed']}: config key 'seed' is not read under --seeds: "
                          "each cell is seeded by its --seeds entry")
    return Settings(values, places)


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


_RUN_SUBDIRS = ("reports", "data", "checkpoints", "logs")


def _missing_run_dirs(out: Path) -> list[Path]:
    """The directories the run layout needs that are missing, deepest first."""
    return [d for d in (*(out / sub for sub in _RUN_SUBDIRS), out, *out.parents)
            if not d.exists()]


def _remove_empty(dirs: list[Path]) -> None:
    """Remove each of ``dirs``, deepest first, that is still empty."""
    for d in dirs:
        with contextlib.suppress(OSError):  # not empty, or already gone
            d.rmdir()


def _write_manifest(out: Path, args: argparse.Namespace, values: dict) -> None:
    """The run's inputs, each file a ``_path`` key names by its digest."""
    manifest = {
        "subcommand": args.command,
        "config_path": args.config,
        "config_digest": _sha256(Path(args.config)) if args.config else None,
        "overrides": sorted(args.set or []),
        "seed": values["seed"],
        "output_dir": str(out),
        "tool_version": __version__,
        "input_digests": {key: _sha256(Path(values[key]))
                          for key, (parse, _) in KEYS[args.command].items()
                          if parse is _path and values[key] not in (None, "", *_CORPORA)
                          and Path(values[key]).exists()},
    }
    if flags := _given_flags(args):  # a flagless run's manifest keeps its bytes
        manifest["flags"] = flags
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def cmd_verify_bounds(v: dict, flags: dict, out: Path) -> int:
    seed = v["seed"]
    if flags["--selftest-nonconvex"]:
        rep = bounds_mod.run_nonconvex_selftest(v["selftest_instances"], seed)
        _write_bound_reports(out, {"selftest_nonconvex": rep})
        # The sanity path must detect violations; finding none means the
        # harness is broken, which is also a nonzero outcome.
        print(f"selftest_nonconvex: max_violation={rep.max_violation:.3e} "
              f"witness={'yes' if rep.worst_witness else 'no'}")
        return 2 if rep.max_violation > bounds_mod.TOLERANCE else 3

    reports = {"lemma1": bounds_mod.run_lemma1_suite(v["lemma_instances"], seed)}
    for form in ("exact", "sform"):
        for name, rep in bounds_mod.run_theorem1_suite(
                v["theorem1_scenarios"], seed, form=form).items():
            reports[f"theorem1_{form}[{name}]"] = rep
    for name, rep in bounds_mod.run_theorem2_suite(v["theorem2_scenarios"], seed).items():
        reports[f"theorem2[p={name}]"] = rep
    reports["assumption_necessity"] = bounds_mod.run_assumption_necessity_search(
        v["necessity_attempts"], seed)
    _write_bound_reports(out, reports)

    certified = {name: rep for name, rep in reports.items() if name != "assumption_necessity"}
    for name, rep in reports.items():
        if name in certified:
            status = "ok" if rep.passed else "VIOLATED"
        else:
            status = "witness found" if rep.max_violation > bounds_mod.TOLERANCE \
                else "no witness (diagnostic)"
        print(f"{name}: max_violation={rep.max_violation:.3e} [{status}]")
    return 0 if all(rep.passed for rep in certified.values()) else 1


def _write_bound_reports(out: Path, reports: dict[str, "bounds_mod.BoundReport"]) -> None:
    payload = {name: json.loads(rep.to_json()) for name, rep in reports.items()}
    (out / "reports" / "bounds.json").write_text(json.dumps(payload, indent=1, sort_keys=True))


def _load_corpus(v: dict) -> tuple[Iterable[SourceSample], list[str], object]:
    """(sources, distractor pool, profile): an external corpus's sources are
    read as the forge asks for them, so ``n_target`` also stops the reading;
    its first record is read at once, so a corpus that cannot be opened
    fails before the pool is read."""
    corpus = v["corpus"]
    if corpus in _CORPORA:
        make_profile, n_sources, pool_size, _ = _CORPORA[corpus]
        profile = make_profile()
        sources, pool = build_chain_corpus(
            _or(v["corpus_sources"], n_sources), _or(v["corpus_pool"], pool_size),
            _or(v["corpus_seed"], v["seed"]), profile)
        return sources, pool, profile
    sources = iter_source_jsonl(corpus)
    head = list(itertools.islice(sources, 1))
    if not v["distractor_pool"]:
        raise ConfigError("external corpora require a 'distractor_pool' JSONL"
                          " of documents (one JSON string per line)")
    return itertools.chain(head, sources), read_distractor_pool(v["distractor_pool"]), None


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


def cmd_forge(v: Settings, flags: dict, out: Path) -> int:
    targets = _CORPORA[v["corpus"]][3] if v["corpus"] in _CORPORA else {}
    keys = [f.name for f in fields(HaystackConfig)]
    with _naming_sources(v.where, keys):  # before the corpus or checkpoint is opened
        cfg = HaystackConfig(**{**targets, **_given(v, *keys)})
    sources, pool, profile = _load_corpus(v)
    generator = _build_generator(v, profile)
    stats = ForgeStats()
    samples = iter_forged(sources, pool, generator, cfg, stats, v["n_target"],
                          **_given(v, "condition_on", "intersection"))
    _write_atomically(samples, out / "data" / "forged.jsonl")
    (out / "data" / "forge_stats.json").write_text(stats.to_json())
    print(f"emitted {stats.emitted} samples "
          f"(discard rate {stats.discard_rate:.3f}, achieved c "
          f"{stats.achieved_compression:.4f})")
    return 0


# Each config field reads the train key of its name. --compare varies one that
# changes a trained cell: not the seed (--seeds varies it), eval_every (a cell
# is evaluated after training) or telemetry (it logs, and moves no parameter).
_METHOD_FIELDS = tuple(f.name for f in fields(MethodConfig))
_TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name != "method_cfg")
_CELL_KEYS = set(_METHOD_FIELDS + _TRAIN_FIELDS) - {"seed", "eval_every", "telemetry"}


def _train_cfg(v: Settings, **cell: object) -> TrainConfig:
    """The config of ``v`` with a --compare ``cell``'s key set; a rule it
    breaks names where its keys were set."""
    values = {**v, **cell}
    with _naming_sources({**v.where, **dict.fromkeys(cell, "--compare")},
                         _METHOD_FIELDS + _TRAIN_FIELDS):
        return TrainConfig(MethodConfig(**_given(values, *_METHOD_FIELDS)),
                           **_given(values, *_TRAIN_FIELDS))


def _compare_spec(spec: str) -> list[tuple[str, str, object]]:
    """(label, key, value) per value of ``--compare key:v1,v2,...``."""
    key, _, raw = spec.partition(":")
    key, texts = key.strip(), [t.strip() for t in raw.split(",") if t.strip()]
    if not texts:
        raise ValueError(f"expected key:value1,value2,..., got {spec!r}")
    parsed = [_parse_value("train", "--compare", key, text) for text in texts]
    if key not in _CELL_KEYS:
        raise ConfigError(f"--compare: {key!r} does not vary the training objective")
    if len(set(parsed)) != len(parsed):
        raise ConfigError(f"--compare: {key!r} values must be distinct, got {raw}")
    return [(f"{key}={text}", key, value) for text, value in zip(texts, parsed)]


def _seed_list(raw: str) -> list[int]:
    seeds = [_NON_NEGATIVE(text) for text in raw.split(",")]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seeds must be distinct, got {raw}")
    return seeds


def _train_vocab(*datasets: list[ForgedSample]) -> Vocab:
    """``needle_vocab()`` followed by the datasets' tokens it lacks, in sorted
    order: needle datasets keep the needle vocabulary unchanged, and any
    dataset has at least the vocabulary's minimum size."""
    needle = needle_vocab()
    tokens = {tok for data in datasets for sample in data
              for text in astuple(sample) for tok in text.split()}
    return Vocab(needle.tokens + tuple(sorted(tokens - set(needle.tokens))))


def _records(path: str) -> list[ForgedSample]:
    """The records of a forged JSONL file; an empty file fails, naming it."""
    if not (records := read_forged_jsonl(path)):
        raise ValueError(f"{path}: no records")
    return records


def cmd_train(v: Settings, flags: dict, out: Path) -> int:
    arms = [(label, _train_cfg(v, **{key: value}))
            for label, key, value in flags["--compare"] or ()]
    cfg = None if arms else _train_cfg(v)
    if not v["dataset"]:
        raise ConfigError("train requires a 'dataset' (forged JSONL path)")
    dataset = _records(v["dataset"])
    eval_set = _records(v["eval_dataset"]) if v["eval_dataset"] else None
    vocab = _train_vocab(dataset, eval_set or [])
    hidden = {} if v["model_hidden"] is None else {"hidden_dim": v["model_hidden"]}

    if arms:
        if eval_set is None:
            raise ConfigError("--compare requires 'eval_dataset'")
        seeds = flags["--seeds"] or [v["seed"]]
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
    model, log = train(model, dataset, cfg, vocab, eval_set=eval_set)
    save_model(model, out / "checkpoints" / "final.json")
    log.write_csv(out / "logs" / "train_log.csv")
    log.write_json(out / "logs" / "train_log.json")
    if log.evals:
        last = log.evals[-1]
        print(f"final accuracy: short {last.short_acc:.3f} long {last.long_acc:.3f}")
    else:
        print(f"trained {len(log.steps)} steps")
    return 0


def cmd_eval(v: dict, flags: dict, out: Path) -> int:
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


def cmd_speedup(v: dict, flags: dict, out: Path) -> int:
    c_values, n_values = flags["--c"], flags["--n"]
    models = [efficiency.CostModel(long_tokens=n, compression=c)
              for n in n_values for c in c_values]
    efficiency.write_report_csv(models, out / "reports" / "speedup.csv")
    for c in c_values:
        print(f"c={c:g} speedup={efficiency.speedup(c):.3f}")
    return 0


def cmd_grad_check(v: dict, flags: dict, out: Path) -> int:
    loss_report = check_loss_gradients(v["points"], v["seed"])
    step_report = check_step_gradients(v["seed"])
    payload = {"loss_gradients": loss_report, "step_gradients": step_report}
    (out / "reports" / "gradcheck.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    worst = max(loss_report["max_relative_error"], step_report["max_relative_error"])
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


class Flag(NamedTuple):
    """A subcommand flag: the parser of its text (of each text, if it repeats),
    its value when not given, its argparse options and the flag it needs."""
    name: str
    parse: Callable[[str], object]
    default: object
    options: dict
    requires: str | None = None


class Command(NamedTuple):
    run: Callable[[dict, dict, Path], int]
    help: str
    flags: tuple[Flag, ...] = ()


COMMANDS: dict[str, Command] = {
    "verify-bounds": Command(cmd_verify_bounds, "certify the decomposition inequalities", (
        Flag("--selftest-nonconvex", bool, False, {"action": "store_true", "help":
             "run the violation-detection sanity path (exits nonzero)"}),)),
    "forge": Command(cmd_forge, "synthesize haystack contexts and preference pairs"),
    "train": Command(cmd_train, "train the toy policy on a forged dataset", (
        Flag("--compare", _compare_spec, None,
             {"metavar": "KEY:V1,V2,...", "help": "train a matrix over one config key"}),
        Flag("--seeds", _seed_list, None, {"metavar": "S1,S2,...", "help":
             "seed list for --compare (default: the single seed)"}, "--compare"))),
    "eval": Command(cmd_eval, "evaluate a checkpoint on a forged dataset"),
    "speedup": Command(cmd_speedup, "emit the analytic cost/speedup report", (
        Flag("--c", float, [0.125, 0.25, 0.5, 1.0],
             {"action": "append", "metavar": "C", "help": "compression rate(s)"}),
        Flag("--n", float, [1000.0],
             {"action": "append", "metavar": "N", "help": "long length(s) in tokens"}))),
    "grad-check": Command(cmd_grad_check, "finite-difference gradient validation"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortlong",
        description="Short-to-long preference optimization laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default="run", help="run directory (default: ./run)")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        for flag in command.flags:
            p.add_argument(flag.name, **flag.options)
    return parser


def _given_flags(args: argparse.Namespace) -> dict[str, object]:
    """The flags that were given, as typed: a text, a list of texts or True.
    An empty text counts as given, so its parser rejects it."""
    return {flag.name: raw for flag in COMMANDS[args.command].flags
            if (raw := getattr(args, flag.name[2:].replace("-", "_"))) not in (None, False)}


def _parse_flags(args: argparse.Namespace) -> dict[str, object]:
    """Every flag of the subcommand, typed, or its default; a bad or unpaired
    flag raises ConfigError naming it."""
    flags = {flag.name: flag for flag in COMMANDS[args.command].flags}
    typed = {name: flag.default for name, flag in flags.items()}
    given = _given_flags(args)
    for name, raw in given.items():
        parse, requires = flags[name].parse, flags[name].requires
        if requires and requires not in given:
            raise ConfigError(f"{name} requires {requires}")
        try:
            typed[name] = [parse(text) for text in raw] if isinstance(raw, list) else parse(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return typed


def main(argv: list[str] | None = None) -> int:
    """Parse the keys, run the subcommand in a fresh run directory, and write
    ``manifest.json`` unless the run failed with an error. A run that fails
    with an error removes the directories it created that are still empty;
    one that aborts training keeps them and writes ``reports/abort.json``."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    created: list[Path] = []
    try:
        values = parse_settings(args.command, args)
        flags = _parse_flags(args)
        created = _missing_run_dirs(out)
        for sub in _RUN_SUBDIRS:
            (out / sub).mkdir(parents=True, exist_ok=True)
        rc = COMMANDS[args.command].run(values, flags, out)
    except NonFiniteLossError as exc:
        (out / "reports" / "abort.json").write_text(strict_json(exc.diagnostic))
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, InsufficientPoolError) as exc:
        _remove_empty(created)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out, args, values)
    return rc


if __name__ == "__main__":
    sys.exit(main())
