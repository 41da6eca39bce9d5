"""Artifact writes are atomic: an interrupted write keeps the old file."""

from pathlib import Path

import pytest

from repro.runtime import ArtifactStore

WRITES = {
    "write": lambda store, payload: store.write("fig3", payload),
    "write_sweep": lambda store, payload: store.write_sweep("fig3", payload),
    "write_manifest": lambda store, payload: store.write_manifest(payload),
}


@pytest.mark.parametrize("method", sorted(WRITES))
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, method):
    store = ArtifactStore(tmp_path)
    write = WRITES[method]
    path = write(store, {"version": 1})
    before = path.read_bytes()

    real_write_text = Path.write_text

    def torn_write(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2])
        raise KeyboardInterrupt  # Ctrl-C mid-write, before any rename

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(KeyboardInterrupt):
        write(store, {"version": 2, "rows": list(range(100))})
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no .tmp

