"""The error every check of an input raises, the post-condition of
every closed form, the one rule that reads a JSON object of the CLI's
inputs, and the three errors the CLI maps to exit 3 without importing
the modules that raise them: all four are a :class:`Refusal`."""

import cmath
import math

import numpy as np


class Refusal(Exception):
    """The base of the errors that refuse a call on what it was given, each
    of which the CLI maps to an exit code.  ``key``, ``element`` and
    ``node`` name the design-file or netlist key, element or node at fault,
    where one is known."""

    def __init__(self, message: str, key: str | None = None, element: str | None = None,
                 node: str | None = None):
        super().__init__(message)
        self.key, self.element, self.node = key, element, node


class InputError(Refusal, ValueError):
    """An input the package refuses: a value outside its range, a name
    that does not exist, a malformed file.  The CLI exits 2 on it; any
    other ``ValueError`` is a fault of the program."""


class DegenerateTransferError(Refusal, RuntimeError):
    """Transfer from a source port to the load is numerically zero."""


class DesignConsistencyError(Refusal, RuntimeError):
    """A synthesized design violates one of its own defining identities."""


class SingularSystemError(Refusal, RuntimeError):
    """The MNA matrix could not be solved reliably."""


def json_number(val) -> float | None:
    """A JSON number as a float (an integer beyond float range as inf), else None."""
    if type(val) is float:
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        return float(val)
    except OverflowError:
        return math.inf


#: what a JSON value must be, by the type a schema reads it as
_JSON_TYPES = {float: "a number", complex: "a [re, im] pair of numbers", str: "a string",
               list: "a list", dict: "an object"}


def json_fields(doc, where: str, schema: dict[str, str], types: dict[str, type] = {},
                required=(), error: type[InputError] = InputError,
                element: str | None = None) -> dict:
    """The JSON object ``doc``, called ``where`` in messages, read by its
    ``schema`` ({JSON key: field}): {field: value} for each key of
    ``schema`` it holds, a finite float, or a complex from an [re, im] pair
    of finite numbers where ``types`` ({JSON key: type}) says ``complex``.
    A key that ``types`` alone gives another type is the caller's to read
    and must hold a value of that type (``object``: any value).  Any other
    key, a missing ``required`` key or a value of another type is an
    ``error`` naming the key and ``element``."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object", element=element)
    out = {}
    for key, val in doc.items():
        kind = types.get(key, float)
        if kind is float or kind is complex:
            field = schema.get(key)
            if field is None:
                raise error(f"unknown key '{key}' in {where}", key=key, element=element)
            if kind is float:
                val = val if type(val) is float else json_number(val)
            elif type(val) is list and len(val) == 2:
                re, im = json_number(val[0]), json_number(val[1])
                val = None if re is None or im is None else complex(re, im)
        elif isinstance(val, kind):  # the caller's to read
            continue
        if not isinstance(val, kind):
            raise error(f"key '{key}' in {where} must be {_JSON_TYPES[kind]}", key=key,
                        element=element)
        if not cmath.isfinite(val):
            raise error(f"key '{key}' in {where} must be finite", key=key, element=element)
        out[field] = val
    for key in required:
        if key not in doc:
            raise error(f"missing key '{key}' in {where}", key=key, element=element)
    return out


def require_positive(**values: float) -> None:
    """An :class:`InputError`, keyed by its name, for the first of ``values``
    that is not positive and finite; NaN and inf among them."""
    for key, val in values.items():
        if not 0 < val < math.inf:
            raise InputError(f"{key} must be positive and finite, got {val}", key=key)


def require_within(name: str, values, lo: float, hi: float) -> np.ndarray:
    """``values`` (a float or an array) as a float array; an
    :class:`InputError` naming the first element outside [``lo``, ``hi``],
    NaN among them."""
    values = np.asarray(values, dtype=float)
    ok = (lo <= values) & (values <= hi)
    if not ok.all():
        raise InputError(f"{name} {values[~ok][0]} outside [{lo}, {hi}]")
    return values


class ClosedForm:
    """A ``with`` block that evaluates a closed form of ``inputs`` (by
    design-file key), each of which must be positive and finite, and hands
    its derived values, by name, to the ``check`` it gets.  A derived value
    that is not finite and positive, or on the way an overflow, a division
    by zero or the failure of a closed form inside it that names none of
    ``inputs``, means the inputs left float range: the :class:`InputError`
    names the input farthest from 1 in log scale."""

    def __init__(self, inputs: dict[str, float]):
        require_positive(**inputs)
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
