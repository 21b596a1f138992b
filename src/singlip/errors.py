"""Exception hierarchy shared by all modules.

``InputError`` means the caller handed us malformed data (bad JSON, schema
violation, inconsistent branch data).  ``DomainError`` means the data was
well formed but the requested computation is not defined for it (singular
intersection matrix, odd-odd adjacency in a double cover, resource cap).
The CLI maps them to exit codes 2 and 1 respectively.
"""


class SinglipError(Exception):
    pass


class InputError(SinglipError, ValueError):
    pass


class DomainError(SinglipError, ValueError):
    pass


class ResourceCapExceeded(DomainError):
    """A size cap (events, pencil steps, strands, carrousel depth) was hit."""
