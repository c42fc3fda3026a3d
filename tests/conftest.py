"""Shared fixtures: the bundled corpus, parsed once per session."""
from __future__ import annotations

from pathlib import Path

import pytest

from gdol import ExpansionEnv, Ontology, parse_document

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
GOLDEN = CORPUS / "golden"


def corpus_files() -> list[Path]:
    return sorted(CORPUS.rglob("*.gdol"))


def golden_files() -> list[Path]:
    return sorted(GOLDEN.glob("*.omn"))


@pytest.fixture(scope="session")
def corpus_docs():
    return [parse_document(p.read_text()) for p in corpus_files()]


@pytest.fixture()
def env(corpus_docs) -> ExpansionEnv:
    # fresh per test: the env accumulates caches and diagnostics
    return ExpansionEnv.from_documents(corpus_docs)


@pytest.fixture()
def expand(env):
    def _expand(name: str) -> Ontology:
        return env.expand_named(name)

    return _expand
