"""The exception every invariant check raises, in a leaf module so that an
engine can raise it without loading the chaos package that monitors it."""


class InvariantViolation(AssertionError):
    """One invariant monitor fired; carries the monitor name and message."""

    def __init__(self, monitor: str, message: str) -> None:
        super().__init__(f"[{monitor}] {message}")
        self.monitor = monitor
        self.message = message
