"""Exception types shared across the engine, and the input decode that raises one."""


class PeelerError(Exception):
    """Base class for all engine errors."""


class ParseError(PeelerError):
    """Malformed input line in a trace, rules, or model file."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def decode_utf8(data: bytes) -> str:
    """Decode a whole input file; invalid UTF-8 is a ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "invalid UTF-8") from None


class SchemaError(PeelerError):
    """Structurally valid input that violates a data-model invariant."""


class CorpusError(PeelerError):
    """Corpus is unusable for the requested operation (e.g. a label class is empty)."""
