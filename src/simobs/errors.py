"""Exception hierarchy shared by all simobs modules, and the error
policy of every JSON reader."""
import json
import sys
from typing import Callable, TextIO


class SimobsError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SimobsError, ValueError):
    """An argument violates a precondition (bad step, empty input, ...)."""


class AlignmentError(SimobsError):
    """Two series share no overlapping wall-clock window."""


class FormatError(SimobsError):
    """Input bytes are not the expected file format."""


class TruncationError(SimobsError):
    """File ends mid-structure.

    ``offset`` is the byte offset at which the structure began.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class UnsupportedLinkTypeError(SimobsError):
    """pcap link type this package does not parse."""

    def __init__(self, link_type: int):
        super().__init__(f"unsupported pcap link type {link_type} (supported: 1 ethernet, 127 radiotap)")
        self.link_type = link_type


class StructureError(SimobsError):
    """An MP4 box tree is missing or misusing a required box."""


class NoVideoTrackError(SimobsError):
    """No track with a 'vide' handler was found."""


class ClassImbalanceError(SimobsError):
    """An operation needs both classes (or enough of each) present."""


class PartitionError(SimobsError):
    """Samples cannot be split into the requested partitions."""


class TrainingDivergedError(SimobsError):
    """Model training produced a non-finite loss."""


def read_json(inp: TextIO, parse: Callable[[object], object], what: str):
    """``parse`` of the JSON document in ``inp``.

    Malformed JSON, or a document ``parse`` cannot read (a missing key,
    a wrong type or value), raises FormatError naming ``what``.  The
    package's own errors raised by ``parse`` keep their type.
    """
    try:
        return parse(json.load(inp))
    except SimobsError:
        raise
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed {what} JSON ({type(exc).__name__}: {exc})") from exc


def json_text(payload) -> str:
    """``payload`` as every JSON output is written: indent 2, sorted keys, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def json_bool(value, what: str) -> bool:
    """``value`` if it is a JSON true or false, else FormatError naming ``what``."""
    if not isinstance(value, bool):
        raise FormatError(f"{what} must be true or false, got {value!r}")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else FormatError
    naming ``what``: true, false and text are not numbers."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:  # NaN fails too
        raise FormatError(f"{what} is {value!r}, not a finite number")
    return float(value)


def json_strings(value, what: str) -> list[str]:
    """``value`` if it is a JSON list of strings, else FormatError naming
    ``what``: a lone string is not read as its characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FormatError(f"{what} must be a list of strings, got {value!r}")
    return value
