"""Seeded fuzzing of every file reader: a damaged file either loads or raises
a ValueError that names it, never another exception."""

import json
import zlib

import numpy as np
import pytest

from shortlong.cli import load_config
from shortlong.corpus import build_chain_corpus, needle_vocab, word_profile
from shortlong.forge import (ForgedSample, iter_source_jsonl, read_distractor_pool,
                             read_forged_jsonl, write_forged_jsonl)
from shortlong.policy import ToyLM, load_model, save_model

TRIALS = 150


def write_sources(path):
    sources, _ = build_chain_corpus(3, 10, seed=0, profile=word_profile())
    path.write_text("".join(json.dumps({"question": s.question, "answer": s.answer,
                                        "supporting_docs": list(s.supporting_docs)}) + "\n"
                            for s in sources))


def write_pool(path):
    _, pool = build_chain_corpus(3, 10, seed=0, profile=word_profile())
    path.write_text("".join(json.dumps(d) + "\n" for d in pool[:6]))


def write_forged(path):
    write_forged_jsonl([ForgedSample(question=f"q{i} é", answer="a", x_short="s s",
                                     x_long="l l l", y_w="a", y_l="b") for i in range(4)], path)


def write_checkpoint(path):
    save_model(ToyLM(needle_vocab(), 2, 0), path)


def write_config(path):
    path.write_text("alpha = 0.5\n# a comment\nmethod = orpo\nepochs=2\n")


READERS = {
    "iter_source_jsonl": (write_sources, lambda path: list(iter_source_jsonl(path))),
    "read_distractor_pool": (write_pool, read_distractor_pool),
    "read_forged_jsonl": (write_forged, read_forged_jsonl),
    "load_model": (write_checkpoint, load_model),
    "load_config": (write_config, load_config),
}


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to four random byte flips, byte insertions or truncations."""
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        op = int(rng.integers(3))
        if op == 0 and buf:
            buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
        elif op == 1:
            buf.insert(int(rng.integers(len(buf) + 1)), int(rng.integers(256)))
        else:
            del buf[int(rng.integers(len(buf) + 1)):]
    return bytes(buf)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_damaged_file_loads_or_names_itself(tmp_path, reader):
    write, read = READERS[reader]
    path = tmp_path / "input"
    write(path)
    read(path)  # the undamaged file loads
    original = path.read_bytes()
    # Seeded by the reader's name, so adding or renaming a reader moves no
    # other reader's mutations.
    rng = np.random.default_rng([7, zlib.crc32(reader.encode())])
    for _ in range(TRIALS):
        path.write_bytes(mutate(original, rng))
        try:
            read(path)
        except ValueError as exc:
            assert str(path) in str(exc)
