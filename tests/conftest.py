"""Fixtures shared by every test module."""

import pytest

import shortlong.training as training_mod


@pytest.fixture(autouse=True)
def empty_encoding_memos():
    """Each test starts with empty training-row and prompt-row memos, so what
    it counts of tokenization does not depend on the tests run before it."""
    training_mod._encode_dataset.cache_clear()
    training_mod._prompt_rows.cache_clear()
