"""Exception types shared across the package."""


class RegsafeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RegsafeError):
    """Malformed textual input (formula, word, automaton or machine file).

    Carries an optional position so CLI callers can point at the offending
    token, and the message without it as `detail`.
    """

    def __init__(self, message, position=None):
        self.detail = message
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class ValidationError(RegsafeError):
    """Structurally well-formed input that violates a semantic invariant."""
