"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when a public entry point receives non-finite or mis-shaped data."""


class TopologyViolationError(RuntimeError):
    """Raised on an attempt to send an update to a node outside the fleet."""


class CapacityError(RuntimeError):
    """Raised when a constraint matrix would exceed its configured capacity."""


class SafetyAbortError(RuntimeError):
    """Raised when a run must stop because the safety filter could not recover."""


class ConfigViolation:
    """One validation failure: a machine-readable code plus a human message."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message

    def __repr__(self) -> str:
        return f"ConfigViolation({self.code}: {self.message})"


class ParameterRecord:
    """A record of parameters whose validate() lists each rule they break, as a ConfigViolation."""

    def require_valid(self):
        """self, when validate() lists nothing; else InvalidInputError naming each."""
        problems = self.validate()
        if problems:
            raise InvalidInputError("; ".join(p.message for p in problems))
        return self


class ConfigError(Exception):
    """Scenario config rejected; carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"[{v.code}] {v.message}" for v in self.violations)
        super().__init__(f"invalid scenario config: {lines}")
