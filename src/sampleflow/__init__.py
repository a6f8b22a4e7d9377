"""Semi-supervised traffic classification from sampled packet time series."""

__version__ = "0.1.0"


class DataError(ValueError):
    """Input from outside the program that it rejects; the CLI exits 2."""
