"""``DataError``, the base of every input-error class (CLI exit code 2), its
subclass ``ArgumentError`` (exit code 1), and the readers of text and JSON
files that raise it naming the file. This module imports nothing of
srsdkit, so every module can import it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path


class DataError(ValueError):
    """Input that srsdkit refuses: a malformed file, catalog entry,
    expression or prediction, or an invalid request."""


class ArgumentError(DataError):
    """An argument value that a library call refuses, before it reads or makes
    a file. The template names each parameter as ``{parameter}`` and each
    value as ``{key}`` of ``values``; ``str(err)`` reads a parameter as its
    name, :meth:`naming` as ``names`` maps it (the CLI, to its flag)."""

    def __init__(self, template: str, **values):
        super().__init__(template)
        self.values = values

    def __str__(self) -> str:
        return self.naming({})

    def naming(self, names: dict[str, str]) -> str:
        """The text, each parameter ``p`` read as ``names.get(p, p)``."""
        fields = {f: names.get(f, f) for f in re.findall(r"\{(\w+)", self.args[0])}
        return self.args[0].format_map({**fields, **self.values})


def read_text(path) -> str:
    """The text of ``path``, decoded as UTF-8; any other bytes raise
    ``DataError``. Data files, ``true_eq.txt``, expression files, catalogs,
    manifests and GP configs are read through here."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason} at byte offset {err.start})") from None


def read_json(path):
    """The JSON value of the :func:`read_text` of ``path``; text that is not
    JSON raises ``DataError``."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: not valid JSON: {err}") from None
