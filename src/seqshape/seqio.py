"""Plain-text sequence files.

Canonical form, shared by every command and reusable for digit streams::

    ns 3
    0 2 0 0

First line declares the alphabet size, second line holds the 0-based symbols
separated by single spaces, with a trailing newline.
"""
from __future__ import annotations

from pathlib import Path
from typing import TextIO

from .entropy import Sequence, _check_ns

__all__ = ["read_sequence", "write_sequence", "parse_sequence", "format_sequence"]


def _decimal(token: str) -> bool:
    # str.isdigit alone also takes other scripts' digits and superscripts
    return token.isascii() and token.isdigit()


def parse_sequence(text: str) -> Sequence:
    """Parse the two-line text format; malformed input raises ValueError.

    Numbers are ASCII decimal digits, as :func:`format_sequence` writes them.
    """
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) != 2:
        raise ValueError(f"expected 2 lines (header + symbols), got {len(lines)}")
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != "ns" or not _decimal(header[1]):
        raise ValueError(f"malformed header {lines[0]!r}; expected 'ns <integer>'")
    ns = _check_ns(int(header[1]))
    tokens = lines[1].split()
    if not tokens:
        raise ValueError("no symbols on line 2")
    if not all(map(_decimal, tokens)):
        raise ValueError("symbols must be non-negative decimal integers")
    return Sequence(symbols=[int(t) for t in tokens], ns=ns)


def format_sequence(seq: Sequence) -> str:
    return f"ns {seq.ns}\n" + " ".join(map(str, seq.symbols.tolist())) + "\n"


def read_sequence(source: str | Path | TextIO) -> Sequence:
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read sequence file {source}: {exc}") from exc
    try:
        return parse_sequence(text)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def write_sequence(seq: Sequence, dest: str | Path | TextIO) -> None:
    text = format_sequence(seq)
    if hasattr(dest, "write"):
        dest.write(text)
        return
    try:
        Path(dest).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write sequence file {dest}: {exc}") from exc
