"""Statistical comparison of alignment systems on a single matching task."""

__version__ = "0.1.0"
