"""The error every check of an input raises, the post-condition of
every closed form, and the analysis error the CLI maps to exit 3 without
importing :mod:`dohertylab.analysis`."""

import math


class InputError(ValueError):
    """An input the package refuses: a value outside its range, a name
    that does not exist, a malformed file.  The CLI exits 2 on it; any
    other ``ValueError`` is a fault of the program.  ``key`` names the
    design-file key at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class DegenerateTransferError(RuntimeError):
    """Transfer from a source port to the load is numerically zero."""


class ClosedForm:
    """A ``with`` block that evaluates a closed form of ``inputs`` (by
    design-file key), each of which must be positive and finite, and hands
    its derived values, by name, to the ``check`` it gets.  A derived value
    that is not finite and positive, or on the way an overflow, a division
    by zero or the failure of a closed form inside it that names none of
    ``inputs``, means the inputs left float range: the :class:`InputError`
    names the input farthest from 1 in log scale."""

    def __init__(self, inputs: dict[str, float]):
        for key, val in inputs.items():
            if not 0 < val < math.inf:
                raise InputError(f"{key} must be positive and finite, got {val}", key=key)
        self.inputs = inputs

    def __enter__(self):
        return self.check

    def __exit__(self, kind, exc, tb):
        inner = isinstance(exc, InputError) and exc.key not in self.inputs
        if isinstance(exc, ArithmeticError) or inner:
            raise self._fail("an intermediate") from None

    def check(self, **derived: float) -> None:
        for name, val in derived.items():
            if not 0 < val < math.inf:
                raise self._fail(name)

    def _fail(self, what: str) -> InputError:
        key, val = max(self.inputs.items(), key=lambda kv: abs(math.log(kv[1])))
        return InputError(f"{key} = {val} overflows the closed form ({what} leaves float range)",
                          key=key)
