"""Exception types shared across the simulator."""


class CdssError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(CdssError):
    """Invalid scenario or parameter combination, detected before epoch 0."""


class MissingDataError(CdssError):
    """No usable load reports exist for the requested group or period."""


class InvariantError(CdssError):
    """An internal allocation invariant was violated; the run must abort."""
