"""Exception hierarchy shared across the package."""


class ParameterError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration budget.

    The best iterate found so far, when available, is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NumericalError(RuntimeError):
    """Raised when NaN/Inf contaminates an iterate; carries the iteration index."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class ParseError(ValueError):
    """Raised on malformed input files; carries the offending line number
    and the file's path (`data.reader` sets it), and its message names
    both: "path, line 3: message"."""

    def __init__(self, message, line=None, path=None):
        super().__init__(message)
        self.line = line
        self.path = path

    def __str__(self):
        where = [str(self.path)] if self.path is not None else []
        if self.line is not None:
            where.append(f"line {self.line}")
        message = super().__str__()
        return f"{', '.join(where)}: {message}" if where else message
