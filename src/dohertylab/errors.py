"""The error every check of an input raises."""


class InputError(ValueError):
    """An input the package refuses: a value outside its range, a name
    that does not exist, a malformed file.  The CLI exits 2 on it; any
    other ``ValueError`` is a fault of the program."""
