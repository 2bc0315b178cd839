"""Exception types shared across the package."""


class TaskpickError(Exception):
    """Base class for all taskpick errors."""


class ParseError(TaskpickError):
    """A pool record, or a pool, cache, or manifest file, is structurally
    malformed."""


class ValidationError(TaskpickError):
    """A record or value violates a pool invariant."""


class DuplicateId(TaskpickError):
    """Two pool records share the same identifier."""


class ShapeError(TaskpickError):
    """Embedding dimensions are inconsistent or a sidecar file does not
    match its header."""


class DegenerateProbability(TaskpickError):
    """A realized-token probability is zero or negative."""


class MissingConfidence(TaskpickError):
    """A record has neither a confidence value nor a token-probability
    trace to derive one from."""


class MissingScore(TaskpickError):
    """A selection criterion needs a score that is absent for some record."""


class MissingEmbedding(TaskpickError):
    """A geometric selector needs an embedding that some record lacks."""


class NoTasks(TaskpickError):
    """An allocation was requested over an empty task list."""


class InvalidBudget(TaskpickError):
    """The selection budget is not a positive integer."""


class InvalidKernel(TaskpickError):
    """The kernel specification is unknown or its parameters are invalid."""


class ConfigError(TaskpickError):
    """A strategy name, parameter, or input combination is invalid."""
