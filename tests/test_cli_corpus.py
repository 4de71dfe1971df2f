"""The pinned CLI corpus: every command's exit code, stdout, stderr and written files hold their digest."""

import json

import pytest

from cli_corpus import MANIFEST, corpus_commands, outcome_digest

COMMANDS = corpus_commands()
PINNED = json.loads(MANIFEST.read_text())


def test_manifest_pins_every_command_once():
    assert [name for name, _, _ in COMMANDS] == list(PINNED)


@pytest.mark.parametrize("name, argv, files", COMMANDS, ids=[name for name, _, _ in COMMANDS])
def test_command_outcome_matches_pinned_digest(tmp_path, name, argv, files):
    assert outcome_digest(argv, files, tmp_path) == PINNED[name]
