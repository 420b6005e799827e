"""Exception types and record bases shared across the package."""

from __future__ import annotations


class Checked:
    """The base of a NamedTuple record whose own ``__new__`` checks its
    fields. ``_make``, and with it ``_replace``, builds through that
    ``__new__``, which a NamedTuple's own ``_make`` skips."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Frozen:
    """The base of a slotted record, which refuses assignment and deletion
    once built. It compares, hashes and prints the slots without a leading
    underscore, as a dataclass does its fields; its ``__init__`` sets the
    slots with ``object.__setattr__``."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in type(self).__slots__
                 if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"

    # copy and pickle restore the slots as they are, as for a dataclass
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for cls in type(self).__mro__
                for name in getattr(cls, "__slots__", ())}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VtyError(Exception):
    """Base class for every library-specific error."""


class FormulaParseError(VtyError):
    """Malformed formula text. Carries the character column of the fault."""

    def __init__(self, message: str, col: int):
        super().__init__(f"col {col}: {message}")
        self.message = message
        self.col = col


# the refusal of each cap, by its bound; `atoms` and `enum` are `Bounds` keys
_CAP_MESSAGES = {
    "atoms": "truth table over {count} atoms exceeds the cap of {cap}",
    "subsets": "{count} axioms exceed the subset enumeration cap of {cap}",
    "enum": "enumeration needs {count} runs, above the cap of {cap}",
    "steps": "search needs up to {count} steps, above the cap of {cap}",
    "tuples": "variety check needs {count} index tuples, above the cap of {cap}",
}


class CapExceededError(VtyError):
    """Work refused before it starts: it needs ``count`` of ``bound``, above ``cap``.

    With ``at_least`` the count stopped once it passed the cap, so ``count``
    is a lower bound on what the work needs.
    """

    def __init__(self, bound: str, count: int, cap: int, *, at_least: bool = False):
        shown = f"at least {count}" if at_least else count
        super().__init__(_CAP_MESSAGES[bound].format(count=shown, cap=cap))
        self.bound = bound
        self.count = count
        self.cap = cap


class DepthExplosionError(VtyError):
    """Bounded closure outgrew its size cap.

    The instantiation restriction or the depth must be tightened; the
    engine never materializes theorem sets past the cap.
    """

    def __init__(self, calculus_id: str, cap: int, detail: str = ""):
        tail = f" ({detail})" if detail else ""
        super().__init__(
            f"closure of calculus {calculus_id!r} exceeds the size cap of {cap}{tail}"
        )
        self.calculus_id = calculus_id
        self.cap = cap


class MapUndefinedError(VtyError):
    """A partial formula map was applied outside its domain."""

    def __init__(self, map_id: str, formula_text: str, context: str = ""):
        where = f" while {context}" if context else ""
        super().__init__(
            f"map {map_id!r} is undefined on {formula_text}{where}"
        )
        self.map_id = map_id
        self.formula_text = formula_text


class DecodeError(VtyError):
    """An integer does not decode to a well-formed machine."""


class BadSymbolError(VtyError):
    """An input word contains a symbol outside the automaton's alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"symbol {symbol!r} at position {position} is not in the alphabet")
        self.symbol = symbol
        self.position = position


class UndeclaredAxiomError(VtyError):
    """A theorem record depends on an axiom id missing from the vocabulary."""

    def __init__(self, axiom_id: str):
        super().__init__(f"axiom id {axiom_id!r} is not declared")
        self.axiom_id = axiom_id


class ManifestError(VtyError):
    """Malformed or unresolvable manifest text. Carries a source location."""

    def __init__(self, message: str, source: str, line: int, col: int = 0):
        super().__init__(f"{source}:{line}:{col + 1}: {message}")
        self.message = message
        self.source = source
        self.line = line
        self.col = col


class UnresolvedReferenceError(ManifestError):
    """A manifest entry references an id that is never declared."""
