"""Run manifests: hashes and config snapshots for reproducibility audits.

A command names its inputs as it starts (`Inputs`). Each is hashed on the
worker thread (`neural.worker.WORKER`) while the command reads and parses
it, and the command takes the digests before it opens its first output, so
a manifest records the bytes the command read even where an output
replaces an input. Outputs are hashed from disk once written.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__
from .neural.worker import WORKER


def _file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_file(path: str | Path) -> str:
    """The sha256 of the file at path, on the calling thread. The benchmark
    tracer wraps this name and keeps one span stack, so worker tasks call
    _file_sha256 instead."""
    return _file_sha256(path)


class Inputs:
    """The sha256 of each input of one command, taken on the worker thread.

    Inputs(*paths) queues a hash of each file at once. read_bytes(path)
    reads a file whole and queues a hash of the bytes it returns, so the
    digest is of exactly what the caller parses and the file is read once.
    digests() waits for every hash and raises the error of one that failed.
    A command that fails before then leaves its hashes queued, and
    `cli.main` cancels them."""

    def __init__(self, *paths: str | Path):
        self._digests: dict[str, str | None] = {}
        for path in paths:
            self._queue(path, path)

    def read_bytes(self, path: str | Path) -> bytes:
        data = Path(path).read_bytes()
        self._queue(path, data)
        return data

    def _queue(self, path, source) -> None:
        key = str(Path(path))
        self._digests[key] = None
        WORKER.submit(self._hash, key, source)

    def _hash(self, key: str, source) -> None:
        self._digests[key] = (hashlib.sha256(source).hexdigest()
                              if isinstance(source, bytes)
                              else _file_sha256(source))

    def digests(self) -> dict[str, str]:
        """Each input's path and sha256, in the order named."""
        WORKER.wait()
        return dict(self._digests)


def write_manifest(artifact: str | Path, subcommand: str, config: dict,
                   seed: int | None, inputs: dict[str, str],
                   started: float) -> Path:
    """Write <artifact>.manifest.json; inputs are Inputs.digests()."""
    manifest = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "inputs": inputs,
        "outputs": {str(artifact): sha256_file(artifact)},
        "started_unix": started,
        "finished_unix": time.time(),
    }
    out = Path(str(artifact) + ".manifest.json")
    out.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return out
