"""Word-adjacency network measurements and prose-style classification."""

__version__ = "0.1.0"


class ProsenetError(Exception):
    """Base class for all library errors."""


class DuplicateIdError(ProsenetError):
    """A manifest lists the same document id twice."""


class UnknownLabelError(ProsenetError):
    """A manifest entry carries a label outside the two known classes."""


class UnreadablePathError(ProsenetError):
    """A manifest entry points at a file that cannot be read."""


class EmptyDocumentError(ProsenetError):
    """Preprocessing left no tokens."""


class ConvergenceError(ProsenetError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class CostGuardError(ProsenetError):
    """A request exceeded a hard cost guard (e.g. too many features to sweep)."""
