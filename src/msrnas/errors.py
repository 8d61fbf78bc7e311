"""Exception taxonomy; every class carries the machine-parsable CLI category."""


class MsrnasError(Exception):
    """Base class for all package errors."""

    category = "internal"


class DimensionError(MsrnasError):
    category = "dimension"


class StateError(MsrnasError):
    category = "state"


class ArgumentError(MsrnasError):
    category = "argument"


class ConfigError(MsrnasError):
    category = "config"


class FormatError(MsrnasError):
    category = "format"


class ConstructionError(MsrnasError):
    category = "construction"


class DegenerateOperatorError(MsrnasError):
    category = "degenerate-operator"

    def __init__(self, message: str = "", *, handle=None):
        super().__init__(message)
        self.handle = handle  # the spectral handle at fault, when one is known


class DerivationError(MsrnasError):
    category = "derivation"


class GenotypeError(MsrnasError):
    category = "genotype"


class NumericsError(MsrnasError):
    category = "numerics"


class LockError(MsrnasError):
    category = "lock"
