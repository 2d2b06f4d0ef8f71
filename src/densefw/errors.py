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

    @classmethod
    def check(cls, what: str, size: int, cap: int, unit: str = "elements") -> None:
        """Raise "<what> limited to <cap> <unit>, got <size>" if size > cap: every cap's one refusal."""
        if size > cap:
            raise cls(f"{what} limited to {cap} {unit}, got {size}")


class OracleFlagError(ValueError):
    """A set-function oracle does not carry the flags an operation requires."""


class NumericalError(ArithmeticError):
    """Non-finite values appeared in a floating-point iterate."""


class Record:
    """Value record, frozen: `__init__(*values)` stores the values under the
    names in `_fields`, a subclass's own annotations after its base's, in
    order, and refuses a wrong count. Equality, hash and repr follow the
    fields; only instances of the same class compare equal, and fields whose
    names start with an underscore take part in equality but not in the
    repr. Attributes cannot be assigned or deleted, and a record holding an
    unhashable field is unhashable. Only a subclass that validates its
    input writes `__init__`, and it stores through `Record.__init__`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__qualname__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__qualname__}.{name}")
