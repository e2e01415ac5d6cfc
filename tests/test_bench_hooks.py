"""The end-to-end benchmark's span hooks resolve against the program.

``benchmarks/e2e/spans.py`` wraps the callables in ``TARGETS`` from the
outside, looking each one up by module and attribute path.  A hook that
no longer resolves makes every traced benchmark run fail, so this checks
that all of them install, record and come off cleanly.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core.builder import ElasticMapBuilder
from repro.replication import ReplicatedJournal

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module: str, path: str):
    """What ``module.path`` holds right now, without descriptor unwrapping."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_hook_installs_and_uninstalls(spans):
    originals = [_current(module, path) for _l, module, path, _c in spans.TARGETS]
    append_block = ReplicatedJournal.__dict__["append_block"]
    recorder = spans.SpanRecorder()
    patched = spans.install(recorder)
    try:
        assert len(patched) == len(spans.TARGETS)
        for (_l, module, path, _c), raw in zip(spans.TARGETS, originals):
            assert _current(module, path) is not raw, f"{module}.{path} not wrapped"
    finally:
        spans.uninstall(patched)
    for (_l, module, path, _c), raw in zip(spans.TARGETS, originals):
        assert _current(module, path) is raw, f"{module}.{path} not restored"
    assert ReplicatedJournal.__dict__["append_block"] is append_block


def test_journal_hooks_record_spans(spans):
    block = ElasticMapBuilder(alpha=0.5).build_block(0, [("a", 10)])
    recorder = spans.SpanRecorder()
    patched = spans.install(recorder)
    try:
        assert ReplicatedJournal(1).append_block(block)
    finally:
        spans.uninstall(patched)
    layers = sorted(span.layer for span in recorder.spans)
    assert "replication.journal" in layers
    assert "serve.journal" in layers
