"""Run manifests: hashes and config snapshots for reproducibility audits.

A command names its inputs as it starts (`Inputs`). Each is hashed on the
worker thread (`neural.worker.WORKER`) while the command reads and parses
it, and the command takes the digests before it opens its first output, so
a manifest records the bytes the command read even where an output
replaces an input. Outputs are hashed from disk once written. Inputs named
by path and outputs must be regular files: a pipe or a device cannot be
read twice for the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import time
from concurrent.futures import Future
from pathlib import Path

from . import DataError, __version__
from .neural.worker import WORKER


class NotRegularFileError(DataError):
    """A pipe, device or directory where a manifest needs a regular file."""


def _require_regular(path: str | Path) -> None:
    """Raise NotRegularFileError unless path is a regular file (or a link
    to one); a missing path raises FileNotFoundError."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise NotRegularFileError(
            f"{path}: not a regular file (a manifest hashes regular files "
            "only)")


def _file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _bytes_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    """The sha256 of the file at path, on the calling thread. The benchmark
    tracer wraps this name and keeps one span stack, so worker tasks call
    _file_sha256 instead."""
    return _file_sha256(path)


class Inputs:
    """The sha256 of each input of one command, taken on the worker thread.

    Inputs(*paths) checks that each path is a regular file and submits a
    hash of it at once. read_bytes(path) reads a file whole, a pipe too,
    and submits a hash of the bytes it returns, so the digest is of exactly
    what the caller parses and the file is read once. digests() waits for
    every hash and raises the error of the first named that failed. A
    command that fails before then leaves its hashes to finish on the
    worker, and their results and errors are dropped with their futures."""

    def __init__(self, *paths: str | Path):
        self._futures: dict[str, Future] = {}
        for path in paths:
            _require_regular(path)
            self._futures[str(Path(path))] = WORKER.submit(_file_sha256, path)

    def read_bytes(self, path: str | Path) -> bytes:
        data = Path(path).read_bytes()
        self._futures[str(Path(path))] = WORKER.submit(_bytes_sha256, data)
        return data

    def digests(self) -> dict[str, str]:
        """Each input's path and sha256, in the order named."""
        return {path: future.result()
                for path, future in self._futures.items()}


def write_manifest(artifact: str | Path, subcommand: str, config: dict,
                   seed: int | None, inputs: dict[str, str],
                   started: float) -> Path:
    """Write <artifact>.manifest.json; inputs are Inputs.digests(). An
    artifact that is not a regular file is refused before it is hashed."""
    _require_regular(artifact)
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
