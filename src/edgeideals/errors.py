"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """Raised when an input exceeds a documented size cap; message names the cap."""


class NoLabelingError(ValueError):
    """Raised for a bipartite graph without isolated vertices that has no
    perfect matching with a transitive column relation: it is not unmixed."""
