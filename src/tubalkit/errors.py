"""Exception types shared across the package."""


class TubalError(Exception):
    """Base class for all tubalkit errors."""


class DimensionMismatch(TubalError):
    pass


class InvalidEntries(TubalError):
    """Tensor values a real-valued solve cannot use: complex entries, or
    non-finite observations inside the sample set."""


class NotOrthonormal(TubalError):
    pass


class RankOutOfRange(TubalError):
    pass


class SolverBreakdown(TubalError):
    """A LAPACK routine failed inside a solver (e.g. an SVD did not converge)."""


class InsufficientSamples(TubalError):
    pass


class ZeroTruth(TubalError):
    pass


class FileFormatError(TubalError):
    """Malformed tensor or sample-set file (the CLI's I/O exit code)."""


class BadMagic(FileFormatError):
    pass


class TruncatedFile(FileFormatError):
    pass


class DimOverflow(FileFormatError):
    pass
