"""Command-line surface: configs, manifests, artifacts, exit codes."""

import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shortlong import cli, forge
from shortlong.cli import KEYS, load_config, main
from shortlong.corpus import StubGenerator, build_chain_corpus, needle_vocab, word_profile
from shortlong.forge import (HaystackConfig, forge_dataset, read_distractor_pool,
                             read_source_jsonl, write_forged_jsonl)
from shortlong.policy import ToyLM, load_model, save_model
from shortlong.training import NonFiniteLossError


def run(args):
    return main([str(a) for a in args])


def assert_clean_failure(rc, capsys, run_dir, *needles):
    """Exit 1 with an ``error:`` line naming each needle, no traceback and
    no manifest."""
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    for needle in needles:
        assert needle in err
    assert not (run_dir / "manifest.json").exists()


@pytest.fixture
def forged(tmp_path):
    """A small forged dataset on disk, plus its run directory."""
    out = tmp_path / "forge_run"
    rc = run(["forge", "--out", out, "--seed", "3",
              "--set", "corpus=builtin-needle", "--set", "corpus_sources=60",
              "--set", "n_target=24", "--set", "target_short_tokens=48",
              "--set", "target_long_tokens=160"])
    assert rc == 0
    return out / "data" / "forged.jsonl"


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 2.0\n# comment\nmethod=orpo\n")
        assert load_config(cfg) == {"alpha": "2.0", "method": "orpo"}

    def test_malformed_line_reports_number(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 1\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            load_config(cfg)

    def test_non_utf8_config_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"epochs = 1\nmethod = orpo # caf\xe9\n")
        rc = run(["train", "--out", tmp_path / "r", "--config", cfg])
        assert_clean_failure(rc, capsys, tmp_path / "r", str(cfg), "line 2", "UTF-8")

    def test_bad_override(self, tmp_path):
        assert run(["speedup", "--out", tmp_path / "r", "--set", "oops"]) == 1

    def test_unknown_set_key_fails(self, tmp_path, capsys):
        rc = run(["train", "--out", tmp_path / "r", "--set", "alpah=0"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "'alpah'")

    @pytest.mark.parametrize("key", ["alpah", "model_hidden"])
    def test_compare_key_outside_objective_fails(self, tmp_path, capsys, key):
        rc = run(["train", "--out", tmp_path / "r", "--compare", f"{key}:0,3",
                  "--set", f"dataset={tmp_path / 'absent.jsonl'}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", f"'{key}'")

    def test_unknown_config_file_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("method = orpo\nalpah = 0\n")
        rc = run(["train", "--out", tmp_path / "r", "--config", cfg])
        assert_clean_failure(rc, capsys, tmp_path / "r", "'alpah'", f"{cfg}: line 2")

    def test_bad_value_names_key(self, tmp_path, capsys):
        rc = run(["train", "--out", tmp_path / "r", "--set", "epochs=two"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "'epochs'")

    @pytest.mark.parametrize("command, key, value", [
        ("train", "batch_size", 0), ("train", "batch_size", -4), ("train", "epochs", -1),
        ("train", "eval_every", -1), ("train", "model_hidden", 0), ("forge", "n_target", 0),
        ("forge", "n_target", -3), ("forge", "stub_n", 0), ("forge", "corpus_sources", -1),
        ("eval", "max_len", -1), ("grad-check", "points", 0)])
    @pytest.mark.parametrize("source", ["--set", "config"])
    def test_count_out_of_range_names_key_and_where(self, tmp_path, capsys, command, key,
                                                    value, source):
        if source == "--set":
            args, where = ["--set", f"{key}={value}"], "--set"
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"seed = 1\n{key} = {value}\n")
            args, where = ["--config", cfg], f"{cfg}: line 2"
        rc = run([command, "--out", tmp_path / "r", *args])
        least = 0 if key == "eval_every" else 1
        assert_clean_failure(rc, capsys, tmp_path / "r", f"{where}: config key '{key}'",
                             f">= {least}, got {value}")

    @pytest.mark.parametrize("command, key, source", [
        (command, key, source) for command, key in [
            ("verify-bounds", "seed"), ("forge", "seed"), ("forge", "corpus_seed"),
            ("train", "seed"), ("train", "model_seed"), ("eval", "seed"),
            ("speedup", "seed"), ("grad-check", "seed")]
        for source in ["--seed", "--set", "config"] if source != "--seed" or key == "seed"])
    def test_negative_seed_names_key_and_where(self, tmp_path, capsys, command, key, source):
        if source == "--seed":
            args, where = ["--seed", "-5"], "--seed"
        elif source == "--set":
            args, where = ["--set", f"{key}=-5"], "--set"
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"# seeds\n{key} = -5\n")
            args, where = ["--config", cfg], f"{cfg}: line 2"
        rc = run([command, "--out", tmp_path / "r", *args])
        assert_clean_failure(rc, capsys, tmp_path / "r", f"{where}: config key '{key}'",
                             "expected an integer >= 0, got -5")

    def test_zero_seed_accepted(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["train", "--seed", "0", "--set", "model_seed=0"])
        values = cli.parse_settings("train", args)
        assert values["seed"] == 0 and values["model_seed"] == 0

    @pytest.mark.parametrize("key, value, expected", [
        ("stub_p_correct", "1.5", "a number in [0, 1], got '1.5'"),
        ("stub_p_correct", "nan", "a number in [0, 1], got 'nan'"),
        ("policy_temperature", "-1", "a finite number >= 0, got '-1'"),
        ("policy_temperature", "inf", "a finite number >= 0, got 'inf'"),
        ("tolerance_frac", "nan", "a finite number >= 0, got 'nan'")])
    def test_forge_number_out_of_range_names_key_and_where(self, tmp_path, capsys, key,
                                                          value, expected):
        rc = run(["forge", "--out", tmp_path / "r", "--set", f"{key}={value}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", f"--set: config key '{key}'",
                             expected)
        assert not (tmp_path / "r" / "data" / "forged.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("alpha", "inf"), ("alpha", "nan"), ("beta", "inf"), ("gamma", "nan"),
        ("eta", "-inf"), ("lr_max", "inf"), ("warmup_ratio", "nan")])
    @pytest.mark.parametrize("source", ["--set", "config"])
    def test_train_non_finite_number_names_key_and_where(self, tmp_path, capsys, key, value,
                                                         source):
        if source == "--set":
            args, where = ["--set", f"{key}={value}"], "--set"
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"seed = 1\n{key} = {value}\n")
            args, where = ["--config", cfg], f"{cfg}: line 2"
        rc = run(["train", "--out", tmp_path / "r", *args])
        assert_clean_failure(rc, capsys, tmp_path / "r", f"{where}: config key '{key}'",
                             f"expected a finite number, got '{value}'")

    def test_typed_defaults_and_overrides(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 2\nseed = 5\n")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(cfg), "--set", "ra_mode=both", "--seed", "9"])
        values = cli.parse_settings("train", args)
        assert set(values) == set(KEYS["train"])
        assert values["alpha"] == 2.0 and values["seed"] == 9
        assert values["ra_mode"] is cli.RAMode.BOTH
        assert values["method"] is cli.Method.ORPO and values["lr_max"] is None


class TestReadmeKeys:
    """The README's key list is the one ``cli.KEYS`` declares."""

    def bullets(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = text.split("### Config keys", 1)[1].split("\n## ", 1)[0]
        return {m.group(1): set(re.findall(r"`([^`]+)`", m.group(2)))
                for m in re.finditer(r"^\* \*\*([\w-]+)\*\*:(.*?)(?=^\* |\Z)",
                                     section, re.M | re.S)}

    def test_every_key_documented(self):
        bullets = self.bullets()
        assert set(bullets) == set(KEYS)
        for command, keys in KEYS.items():
            assert set(keys) <= bullets[command], command

    def test_removed_keys_stay_gone(self):
        for command, documented in self.bullets().items():
            assert not {"measure_wallclock", "selftest_nonconvex"} & documented
            assert not {"measure_wallclock", "selftest_nonconvex"} & set(KEYS[command])


class TestSpeedupCommand:
    def test_prints_known_value(self, tmp_path, capsys):
        assert run(["speedup", "--out", tmp_path / "r", "--c", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "speedup=1.939" in out
        assert (tmp_path / "r" / "reports" / "speedup.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--c", "abc"), ("--n", "1e3x")])
    def test_non_number_names_flag(self, tmp_path, capsys, flag, value):
        rc = run(["speedup", "--out", tmp_path / "r", flag, value])
        assert_clean_failure(rc, capsys, tmp_path / "r", f"error: {flag}: ", repr(value))

    @pytest.mark.parametrize("n", ["nan", "inf"])
    def test_non_finite_length_fails_cleanly(self, tmp_path, capsys, n):
        rc = run(["speedup", "--out", tmp_path / "r", "--n", n, "--c", "0.5"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "long_tokens must be", n)
        assert not (tmp_path / "r" / "reports" / "speedup.csv").exists()

    def test_manifest_written(self, tmp_path):
        run(["speedup", "--out", tmp_path / "r", "--seed", "7"])
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["subcommand"] == "speedup"
        assert manifest["seed"] == 7
        assert "tool_version" in manifest


class TestVerifyBoundsCommand:
    def test_small_profile_passes(self, tmp_path, capsys):
        rc = run(["verify-bounds", "--out", tmp_path / "r", "--seed", "1",
                  "--set", "lemma_instances=20000",
                  "--set", "theorem1_scenarios=60",
                  "--set", "theorem2_scenarios=40",
                  "--set", "necessity_attempts=30000"])
        assert rc == 0
        report = json.loads((tmp_path / "r" / "reports" / "bounds.json").read_text())
        assert report["lemma1"]["max_violation"] <= 1e-9
        assert report["assumption_necessity"]["max_violation"] > 1e-9
        assert "witness found" in capsys.readouterr().out

    def test_seed_pinned_reports_identical(self, tmp_path):
        args = ["--seed", "4", "--set", "lemma_instances=5000",
                "--set", "theorem1_scenarios=20", "--set", "theorem2_scenarios=10",
                "--set", "necessity_attempts=5000"]
        run(["verify-bounds", "--out", tmp_path / "a", *args])
        run(["verify-bounds", "--out", tmp_path / "b", *args])
        a = (tmp_path / "a" / "reports" / "bounds.json").read_bytes()
        b = (tmp_path / "b" / "reports" / "bounds.json").read_bytes()
        assert a == b

    def test_nonconvex_selftest_exits_nonzero_with_witness(self, tmp_path):
        rc = run(["verify-bounds", "--out", tmp_path / "r", "--selftest-nonconvex"])
        assert rc == 2
        report = json.loads((tmp_path / "r" / "reports" / "bounds.json").read_text())
        assert report["selftest_nonconvex"]["witness"] is not None

    @pytest.mark.parametrize("key, value", [
        ("theorem1_scenarios", 0), ("theorem1_scenarios", -3), ("theorem2_scenarios", 0),
        ("necessity_attempts", 0), ("lemma_instances", 0), ("lemma_instances", 4)])
    def test_count_below_minimum_fails(self, tmp_path, capsys, key, value):
        counts = {"lemma_instances": 500, "theorem1_scenarios": 5, "theorem2_scenarios": 5,
                  "necessity_attempts": 100, key: value}
        sets = [arg for k, v in counts.items() for arg in ("--set", f"{k}={v}")]
        rc = run(["verify-bounds", "--out", tmp_path / "r", *sets])
        assert_clean_failure(rc, capsys, tmp_path / "r", f"--set: config key {key!r}: "
                             "expected an integer >= ", f"got {value}")
        assert not (tmp_path / "r" / "reports" / "bounds.json").exists()

    def test_counts_checked_before_any_suite_runs(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a suite ran before every count was checked")

        monkeypatch.setattr(cli.bounds_mod, "run_lemma1_suite", never)
        rc = run(["verify-bounds", "--out", tmp_path / "r", "--set", "theorem2_scenarios=0"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "--set: config key 'theorem2_scenarios': "
                             "expected an integer >= 1", "got 0")

    def test_selftest_count_below_one_fails(self, tmp_path, capsys):
        rc = run(["verify-bounds", "--out", tmp_path / "r", "--selftest-nonconvex",
                  "--set", "selftest_instances=0"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "--set: config key 'selftest_instances': "
                             "expected an integer >= 1", "got 0")


class TestForgeTrainEvalPipeline:
    def test_forge_writes_dataset_stats_manifest(self, forged):
        run_dir = forged.parent.parent
        stats = json.loads((run_dir / "data" / "forge_stats.json").read_text())
        assert stats["emitted"] == 24
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "forge"
        lines = forged.read_text().splitlines()
        assert len(lines) == 24
        record = json.loads(lines[0])
        assert sorted(record) == ["answer", "question", "x_long", "x_short", "y_l", "y_w"]

    def test_forge_rerun_byte_identical(self, tmp_path):
        args = ["--seed", "3", "--set", "corpus=builtin-needle",
                "--set", "corpus_sources=40", "--set", "n_target=10",
                "--set", "target_short_tokens=48", "--set", "target_long_tokens=160"]
        run(["forge", "--out", tmp_path / "a", *args])
        run(["forge", "--out", tmp_path / "b", *args])
        assert (tmp_path / "a" / "data" / "forged.jsonl").read_bytes() == \
            (tmp_path / "b" / "data" / "forged.jsonl").read_bytes()

    def test_train_then_eval(self, forged, tmp_path, capsys):
        train_dir = tmp_path / "train_run"
        rc = run(["train", "--out", train_dir, "--seed", "0",
                  "--set", f"dataset={forged}", "--set", f"eval_dataset={forged}",
                  "--set", "method=orpo", "--set", "alpha=1.0",
                  "--set", "epochs=2", "--set", "batch_size=8",
                  "--set", "model_hidden=8"])
        assert rc == 0
        ckpt = train_dir / "checkpoints" / "final.json"
        assert ckpt.exists()
        log_csv = (train_dir / "logs" / "train_log.csv").read_text().splitlines()
        assert log_csv[0].startswith("step,lr,total,po_term,ra_term,nll_term")
        assert len(log_csv) == 1 + 6  # 24 samples / batch 8 * 2 epochs

        eval_dir = tmp_path / "eval_run"
        rc = run(["eval", "--out", eval_dir, "--set", f"checkpoint={ckpt}",
                  "--set", f"dataset={forged}"])
        assert rc == 0
        result = json.loads((eval_dir / "reports" / "eval.json").read_text())
        assert set(result) == {"short_acc", "long_acc"}
        assert 0.0 <= result["short_acc"] <= 1.0

    def test_train_compare_matrix(self, forged, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = run(["train", "--out", out, "--seed", "0",
                  "--compare", "alpha:0,1", "--seeds", "0,1",
                  "--set", f"dataset={forged}", "--set", f"eval_dataset={forged}",
                  "--set", "method=orpo", "--set", "epochs=1",
                  "--set", "batch_size=8", "--set", "model_hidden=8"])
        assert rc == 0
        comparison = (out / "reports" / "comparison.csv").read_text().splitlines()
        assert len(comparison) == 1 + 4
        margins = (out / "reports" / "margins.csv").read_text().splitlines()
        assert margins[0] == "step,alpha=0#seed0,alpha=0#seed1,alpha=1#seed0,alpha=1#seed1"

    def test_train_compare_repeated_seed_fails(self, forged, tmp_path, capsys):
        rc = run(["train", "--out", tmp_path / "r", "--compare", "alpha:0,1",
                  "--seeds", "0,0", "--set", f"dataset={forged}",
                  "--set", f"eval_dataset={forged}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "--seeds must be distinct", "0,0")

    def test_train_compare_non_integer_seed_names_flag(self, forged, tmp_path, capsys):
        rc = run(["train", "--out", tmp_path / "r", "--compare", "alpha:0,1",
                  "--seeds", "0,x", "--set", f"dataset={forged}",
                  "--set", f"eval_dataset={forged}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "error: --seeds: ", "'x'")

    def test_train_compare_negative_seed_names_flag(self, forged, tmp_path, capsys):
        rc = run(["train", "--out", tmp_path / "r", "--compare", "alpha:0,1",
                  "--seeds", "0,-2", "--set", f"dataset={forged}",
                  "--set", f"eval_dataset={forged}"])
        assert_clean_failure(rc, capsys, tmp_path / "r",
                             "error: --seeds: expected an integer >= 0, got -2")

    def test_overlapping_length_bands_fail(self, tmp_path, capsys):
        rc = run(["forge", "--out", tmp_path / "r", "--set", "tolerance_frac=1.5"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "tolerance_frac 1.5",
                             "short [-32, 160], long [-256, 1280]")
        assert not (tmp_path / "r" / "data" / "forged.jsonl").exists()

    def test_oversized_supporting_documents_name_the_source(self, tmp_path, capsys):
        rc = run(["forge", "--out", tmp_path / "r", "--set", "target_short_tokens=3",
                  "--set", "target_long_tokens=5"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "error: source 0: supporting "
                             "documents alone exceed the target length", "target of 3")

    def test_seeds_without_compare_fails(self, forged, tmp_path, capsys):
        rc = run(["train", "--out", tmp_path / "r", "--seeds", "1,2,3",
                  "--set", f"dataset={forged}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", "--seeds requires --compare")

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--config", "{dir}"]), ("train", ["--set", "dataset={dir}"]),
        ("eval", ["--set", "checkpoint={dir}", "--set", "dataset={forged}"]),
        ("forge", ["--config", "{dir}"]), ("forge", ["--set", "corpus={dir}"])])
    def test_directory_as_input_file_is_error(self, forged, tmp_path, capsys, command, flags):
        folder = tmp_path / "folder"
        folder.mkdir()
        rc = run([command, "--out", tmp_path / "r",
                  *(f.format(dir=folder, forged=forged) for f in flags)])
        assert_clean_failure(rc, capsys, tmp_path / "r", str(folder))

    @pytest.mark.parametrize("command", ["speedup", "forge"])
    def test_out_naming_a_file_is_error(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        rc = run([command, "--out", taken])
        assert_clean_failure(rc, capsys, taken, str(taken))
        assert taken.read_text() == "keep"

    def test_eval_out_of_vocabulary_names_file_record_and_token(self, forged, tmp_path,
                                                                 capsys):
        ckpt = tmp_path / "ckpt.json"
        save_model(ToyLM(needle_vocab(), 4, 0), ckpt)
        records = [json.loads(line) for line in forged.read_text().splitlines()]
        records[3]["x_short"] += " zz"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = run(["eval", "--out", tmp_path / "r", "--set", f"checkpoint={ckpt}",
                  "--set", f"dataset={bad}"])
        assert_clean_failure(rc, capsys, tmp_path / "r",
                             f"{bad}: record 3: token not in vocabulary: 'zz'")

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run(["train", "--out", tmp_path / "r"]) == 1

    def test_malformed_dataset_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"question": "q"}\n')
        rc = run(["train", "--out", tmp_path / "r", "--set", f"dataset={bad}"])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_non_string_field_is_line_error(self, tmp_path, capsys):
        record = {"question": "q", "answer": "a", "x_short": "s", "x_long": "l",
                  "y_w": "a", "y_l": "b"}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n" + json.dumps({**record, "y_w": 7}) + "\n")
        rc = run(["train", "--out", tmp_path / "r", "--set", f"dataset={bad}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", str(bad), "line 2", "'y_w'")

    @pytest.mark.parametrize("damage", ["drop_emb", "truncate_out_w"])
    def test_damaged_checkpoint_is_error(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "ckpt.json"
        save_model(ToyLM(needle_vocab(), 4, 0), ckpt)
        payload = json.loads(ckpt.read_text())
        if damage == "drop_emb":
            del payload["arrays"]["emb"]
        else:
            payload["arrays"]["out_w"] = payload["arrays"]["out_w"][:-12]
        ckpt.write_text(json.dumps(payload))
        rc = run(["eval", "--out", tmp_path / "r", "--set", f"checkpoint={ckpt}",
                  "--set", f"dataset={tmp_path / 'unused.jsonl'}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", str(ckpt),
                             "'emb'" if damage == "drop_emb" else "'out_w'")

    def test_non_finite_checkpoint_is_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        model = ToyLM(needle_vocab(), 4, 0)
        model.params["emb"][2, 1] = float("nan")
        save_model(model, ckpt)
        rc = run(["eval", "--out", tmp_path / "r", "--set", f"checkpoint={ckpt}",
                  "--set", f"dataset={tmp_path / 'unused.jsonl'}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", str(ckpt), "'emb'", "non-finite")

    def test_non_utf8_dataset_names_file_and_line(self, forged, tmp_path, capsys):
        lines = forged.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'": "', b'": "\xff', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        rc = run(["train", "--out", tmp_path / "r", "--set", f"dataset={bad}"])
        assert_clean_failure(rc, capsys, tmp_path / "r", str(bad), "line 3", "UTF-8")

    def test_abort_writes_diagnostic_and_no_manifest(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NonFiniteLossError("non-finite loss at step 3", {"step": 3})

        monkeypatch.setattr(cli, "train", diverge)
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({k: "w" for k in ("question", "answer", "x_short",
                                                     "x_long", "y_w", "y_l")}) + "\n")
        rc = run(["train", "--out", tmp_path / "r", "--set", f"dataset={data}"])
        assert rc == 1
        assert "training aborted" in capsys.readouterr().err
        assert json.loads((tmp_path / "r" / "reports" / "abort.json").read_text()) == {"step": 3}
        assert not (tmp_path / "r" / "manifest.json").exists()


class TestExternalCorpus:
    @pytest.fixture
    def corpus(self, tmp_path):
        """Four word-profile sources and a 40-document pool as JSONL files."""
        sources, pool = build_chain_corpus(4, 40, seed=0, profile=word_profile())
        src = tmp_path / "sources.jsonl"
        src.write_text("".join(json.dumps({"question": s.question, "answer": s.answer,
                                           "supporting_docs": list(s.supporting_docs)}) + "\n"
                               for s in sources))
        pool_path = tmp_path / "pool.jsonl"
        pool_path.write_text("".join(json.dumps(d) + "\n" for d in pool))
        return src, pool_path, pool

    def forge(self, out, src, pool_path, *extra):
        return run(["forge", "--out", out, "--seed", "1", "--set", f"corpus={src}",
                    "--set", f"distractor_pool={pool_path}",
                    "--set", "target_short_tokens=20", "--set", "target_long_tokens=40",
                    "--set", "tolerance_frac=0.2", *extra])

    @pytest.mark.parametrize("line", ["5", '""'])
    def test_bad_pool_line_is_line_error(self, tmp_path, capsys, corpus, line):
        src, pool_path, pool = corpus
        pool_path.write_text(json.dumps(pool[0]) + "\n" + line + "\n")
        rc = self.forge(tmp_path / "r", src, pool_path)
        assert_clean_failure(rc, capsys, tmp_path / "r", str(pool_path), "line 2")

    @pytest.mark.parametrize("which", ["sources", "pool"])
    def test_non_utf8_input_names_file_and_line(self, tmp_path, capsys, corpus, which):
        src, pool_path, _ = corpus
        bad = src if which == "sources" else pool_path
        lines = bad.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"', b'"\xe9', 1)
        bad.write_bytes(b"\n".join(lines))
        rc = self.forge(tmp_path / "r", src, pool_path)
        assert_clean_failure(rc, capsys, tmp_path / "r", str(bad), "line 3", "UTF-8")

    def test_exhausted_pool_names_source_and_band(self, tmp_path, capsys, corpus):
        src, pool_path, pool = corpus
        pool_path.write_text("".join(json.dumps(d) + "\n" for d in pool[:2]))
        rc = self.forge(tmp_path / "r", src, pool_path)
        assert_clean_failure(rc, capsys, tmp_path / "r", "source 0", "target band")

    def test_manifest_digests_the_pool(self, tmp_path, corpus):
        src, pool_path, pool = corpus
        assert self.forge(tmp_path / "a", src, pool_path) == 0
        pool_path.write_text("".join(json.dumps(d) + "\n" for d in reversed(pool)))
        assert self.forge(tmp_path / "b", src, pool_path) == 0
        manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in "ab"]
        assert manifests[0]["input_digests"]["distractor_pool"] != \
            manifests[1]["input_digests"]["distractor_pool"]
        assert manifests[0]["overrides"] == manifests[1]["overrides"]


def _write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


@pytest.fixture
def fill_passes(monkeypatch):
    """[synthesize_context calls, fill passes] in ``forge``: each fill pass
    takes one cumulative sum, and a context takes a pass past its first only
    after an overshooting draw that its fill skipped."""
    counts = [0, 0]
    synthesize = forge.synthesize_context

    def counted_synthesize(*args, **kwargs):
        counts[0] += 1
        return synthesize(*args, **kwargs)

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def cumsum(*args, **kwargs):
            counts[1] += 1
            return np.cumsum(*args, **kwargs)

    monkeypatch.setattr(forge, "synthesize_context", counted_synthesize)
    monkeypatch.setattr(forge, "np", CountedNumpy())
    return counts


class TestStreamedForge:
    """``forge`` streams its records into ``forged.jsonl.part`` and renames it
    to ``forged.jsonl`` once the last record is written."""

    SHORT, LONG = 60, 300

    @pytest.fixture
    def corpus(self, tmp_path):
        """24 word-profile sources, and a pool of 150 documents of 1 to 40
        tokens, so that a fill meets draws that overshoot its band."""
        sources, _ = build_chain_corpus(24, 1, seed=0, profile=word_profile())
        src = _write_jsonl(tmp_path / "sources.jsonl", [
            {"question": s.question, "answer": s.answer,
             "supporting_docs": list(s.supporting_docs)} for s in sources])
        pool = [" ".join(f"d{i}w{j}" for j in range(1 + 7 * i % 40)) for i in range(150)]
        return src, _write_jsonl(tmp_path / "pool.jsonl", pool)

    def forge(self, out, src, pool_path, **settings):
        sets = {"corpus": src, "distractor_pool": pool_path, "stub_n": 3,
                "target_short_tokens": self.SHORT, "target_long_tokens": self.LONG,
                **settings}
        return run(["forge", "--out", out, "--seed", "1",
                    *(a for key, value in sets.items() for a in ("--set", f"{key}={value}"))])

    @pytest.mark.parametrize("settings", [
        {"condition_on": "short", "intersection": False},
        {"condition_on": "short", "intersection": True},
        {"condition_on": "long", "intersection": False},
        {"condition_on": "long", "intersection": True},
        {"condition_on": "long", "intersection": True, "n_target": 5}])
    def test_stream_equals_list(self, tmp_path, corpus, fill_passes, settings):
        src, pool_path = corpus
        assert self.forge(tmp_path / "r", src, pool_path, **settings) == 0
        samples, stats = forge_dataset(
            read_source_jsonl(src), read_distractor_pool(pool_path),
            StubGenerator(0.5, n=3), HaystackConfig(self.SHORT, self.LONG, seed=1),
            settings.get("n_target"), condition_on=settings["condition_on"],
            intersection=settings["intersection"])
        write_forged_jsonl(samples, tmp_path / "list.jsonl")
        data = tmp_path / "r" / "data"
        assert (data / "forged.jsonl").read_bytes() == (tmp_path / "list.jsonl").read_bytes()
        assert (data / "forge_stats.json").read_text() == stats.to_json()
        assert not (data / "forged.jsonl.part").exists()
        calls, passes = fill_passes
        assert passes > calls  # some fill skipped an overshooting draw
        if "n_target" in settings:
            assert stats.emitted == 5 and stats.sources_seen < 24

    def test_failing_source_leaves_no_partial_output(self, tmp_path, capsys, corpus):
        src, pool_path = corpus
        data = tmp_path / "r" / "data"
        assert self.forge(tmp_path / "r", src, pool_path) == 0
        before = [(data / name).read_bytes() for name in ("forged.jsonl", "forge_stats.json")]
        rows = [json.loads(line) for line in src.read_text().splitlines()]
        rows[3]["supporting_docs"] = [" ".join(["long"] * 2 * self.SHORT)]
        bad = _write_jsonl(tmp_path / "bad.jsonl", rows)
        capsys.readouterr()
        for out in (tmp_path / "r", tmp_path / "fresh"):
            assert self.forge(out, bad, pool_path) == 1
            assert capsys.readouterr().err.startswith(
                "error: source 3: supporting documents alone exceed the target length")
            assert not (out / "data" / "forged.jsonl.part").exists()
        assert not (tmp_path / "fresh" / "data" / "forged.jsonl").exists()
        assert not (tmp_path / "fresh" / "manifest.json").exists()
        assert [(data / name).read_bytes()
                for name in ("forged.jsonl", "forge_stats.json")] == before

    @pytest.mark.parametrize("exc", [ValueError("generator broke"), KeyboardInterrupt()])
    def test_exception_mid_stream_removes_part_file(self, tmp_path, capsys, corpus,
                                                    monkeypatch, exc):
        src, pool_path = corpus
        data = tmp_path / "r" / "data"
        seen = []

        def failing(*args, **kwargs):
            for i, sample in enumerate(forge.iter_forged(*args, **kwargs)):
                if i == 2:
                    seen.append((data / "forged.jsonl.part").exists())
                    raise exc
                yield sample

        monkeypatch.setattr(cli, "iter_forged", failing)
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                self.forge(tmp_path / "r", src, pool_path)
        else:
            assert self.forge(tmp_path / "r", src, pool_path) == 1
            assert capsys.readouterr().err == "error: generator broke\n"
        assert seen == [True]
        assert list(data.iterdir()) == []


def test_forge_memory_does_not_grow_with_sources(tmp_path):
    """Records go to disk as they are forged: the traced peak of a forge of
    160 sources is within 0.5 MiB of that of 40 sources."""
    def forge_peak(n: int) -> int:
        tracemalloc.start()
        try:
            assert run(["forge", "--out", tmp_path / str(n), "--set", "corpus=builtin-word",
                        "--set", f"corpus_sources={n}", "--set", "corpus_pool=2200"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    forge_peak(40)  # first-call caches and lazy imports
    assert forge_peak(160) - forge_peak(40) < 0.5 * 2**20


@pytest.mark.parametrize("size", [0, (1 << 20) + 4097])
def test_manifest_digest_reads_in_chunks(tmp_path, monkeypatch, size):
    path = tmp_path / "blob"
    path.write_bytes(bytes(range(251)) * (size // 251) + b"x" * (size % 251))
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail("whole-file read"))
    assert cli._sha256(path) == expected


def test_train_on_builtin_word_forge(tmp_path, capsys):
    rc = run(["forge", "--out", tmp_path / "f", "--seed", "2",
              "--set", "corpus=builtin-word", "--set", "corpus_sources=30",
              "--set", "n_target=8", "--set", "target_short_tokens=40",
              "--set", "target_long_tokens=120"])
    assert rc == 0
    data = tmp_path / "f" / "data" / "forged.jsonl"
    rc = run(["train", "--out", tmp_path / "t", "--set", f"dataset={data}",
              "--set", f"eval_dataset={data}", "--set", "epochs=1",
              "--set", "batch_size=4", "--set", "model_hidden=8"])
    assert rc == 0, capsys.readouterr().err
    tokens = load_model(tmp_path / "t" / "checkpoints" / "final.json").vocab.tokens
    needle = needle_vocab().tokens
    assert tokens[:len(needle)] == needle
    assert list(tokens[len(needle):]) == sorted(tokens[len(needle):])


class TestGradCheckCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        rc = run(["grad-check", "--out", tmp_path / "r", "--seed", "0",
                  "--set", "points=25"])
        assert rc == 0
        report = json.loads((tmp_path / "r" / "reports" / "gradcheck.json").read_text())
        assert report["loss_gradients"]["max_relative_error"] < 1e-4
        assert report["policy_gradients"]["max_relative_error"] < 1e-4
        assert len(report["loss_gradients"]["combos"]) == 15
