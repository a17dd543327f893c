"""Exception types shared across the toolkit, the UTF-8 text opener of every
file reader, and the listing-key rule of the readers that take new keys."""

import contextlib


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


class ParseError(ValueError):
    """An input file does not conform to its declared format."""


@contextlib.contextmanager
def open_utf8(path, error=ParseError, newline=None):
    """``path`` opened as UTF-8 text; a leading byte-order mark is dropped.
    Bytes that do not decode raise ``error`` naming the file and the first
    line that holds them; the file is rescanned in binary for that line only
    once decoding has failed.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r``,
    as the text readers count them."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                raise error(
                    f"{path}: line {lineno}: not UTF-8 ({bad.reason} {raw[bad.start]:#04x})"
                ) from None
        raise error(f"{path}: not UTF-8 ({exc.reason})") from None  # the file changed meanwhile


def bad_listing_key(key: str) -> bool:
    """True for a key the embedding text format cannot hold: empty, holding
    whitespace, or starting with ``#`` (a comment there)."""
    return key.split() != [key] or key.startswith("#")
