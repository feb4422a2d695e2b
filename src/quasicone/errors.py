"""Exception types shared across the package."""


class QuasiConeError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QuasiConeError, ValueError):
    """Vectors or cones of incompatible dimension were combined."""


class NotARational(QuasiConeError, TypeError):
    """A value could not be interpreted as an exact rational."""


class ConeNotSolid(QuasiConeError, ValueError):
    """Interior membership was requested on a cone whose interior is
    empty."""


class ConeNotPointed(QuasiConeError, ValueError):
    """An ordered space was built over a cone that contains a line."""


class DuplicateLabel(QuasiConeError, ValueError):
    """Point labels (or generator coordinates) collide within an instance."""


class UnknownLabel(QuasiConeError, KeyError):
    """A query, witness, or candidate set referenced a label that is not
    part of the instance's ground set."""

    def __str__(self):  # KeyError quotes its arg; keep plain messages
        return self.args[0] if self.args else ""


class EmbeddingRequired(QuasiConeError, ValueError):
    """The linear-independence census was requested without an embedding
    of the ground set into a rational vector space."""


class InstanceFileError(QuasiConeError, ValueError):
    """An instance or witness file failed to parse; the message names the
    offending field."""
