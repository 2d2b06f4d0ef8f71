"""Exception types and the value-record base shared across the package.

Two broad families matter for the CLI exit codes: malformed input
(GraphParseError -> exit 2) and structurally infeasible requests such as a
disconnected graph handed to the tree packer or a ground set too large for
exhaustive enumeration (-> exit 3).
"""


class GraphParseError(ValueError):
    """Malformed edge-list input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


class GroundSetTooLargeError(ValueError):
    """Exhaustive enumeration requested beyond the supported ground-set size."""


class OracleFlagError(ValueError):
    """A set-function oracle does not carry the flags an operation requires."""


class DegenerateDecompositionError(ValueError):
    """Deletion-variant decomposition hit a zero denominator (f(V) = f(S) for
    every proper S), which cannot happen for oracles meeting the preconditions."""


class NumericalError(ArithmeticError):
    """Non-finite values appeared in a floating-point iterate."""


class Record:
    """Value record: equality and repr over the attributes named in
    `_fields`. Only instances of the same class compare equal; fields whose
    names start with an underscore take part in equality but not in the
    repr. Mutable records are unhashable."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """Record whose attributes cannot be assigned or deleted, hashed by its
    fields. __init__ stores the fields through self.__dict__."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__qualname__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__qualname__}.{name}")
