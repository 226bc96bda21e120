"""Exception hierarchy shared across the toolkit, and ``read_lines``, which
turns a text file that is not UTF-8 into one of these errors.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class FlatTrackError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FlatTrackError):
    """Bad configuration: unknown key, unparsable value, invalid parameter."""


class DataError(FlatTrackError):
    """Bad data artifact: malformed file, broken manifest, missing path."""


class FormatError(DataError):
    """Malformed binary image/model file (bad magic, dims, truncation)."""


class NumericalError(FlatTrackError):
    """Numerical failure: NaN loss, degenerate mask, dimension overflow."""


class UnprojectableGazeError(NumericalError):
    """Gaze vector parallel to or facing away from the screen (v_z <= 1e-6)."""


def read_lines(path, error: type[FlatTrackError], newline: str | None = None) -> list[str]:
    """The lines of the UTF-8 text file ``path``, split as ``open`` with
    ``newline`` splits them; bytes that are not UTF-8 raise ``error``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.readlines()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from e
