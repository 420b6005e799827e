"""Exception types shared across the package."""

from __future__ import annotations


class VtyError(Exception):
    """Base class for every library-specific error."""


class FormulaParseError(VtyError):
    """Malformed formula text. Carries the character column of the fault."""

    def __init__(self, message: str, col: int):
        super().__init__(f"col {col}: {message}")
        self.message = message
        self.col = col


class AtomCapExceededError(VtyError):
    """A truth-table check would enumerate more atoms than the cap allows."""

    def __init__(self, atom_count: int, cap: int):
        super().__init__(
            f"truth table over {atom_count} atoms exceeds the cap of {cap}"
        )
        self.atom_count = atom_count
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


class SubsetCapExceededError(VtyError):
    """An axiom set is too large for exact subset enumeration."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"{size} axioms exceed the subset enumeration cap of {cap}")
        self.size = size
        self.cap = cap


class EnumerationCapExceededError(VtyError):
    """A brute-force machine enumeration would exceed the run cap.

    With ``at_least`` the count stopped once it passed the cap, so
    ``runs`` is a lower bound on the runs the enumeration needs.
    """

    def __init__(self, runs: int, cap: int, *, at_least: bool = False):
        bound = "at least " if at_least else ""
        super().__init__(f"enumeration needs {bound}{runs} runs, above the cap of {cap}")
        self.runs = runs
        self.cap = cap


class StepCapExceededError(VtyError):
    """A machine search could run more steps than the step cap.

    ``steps`` is the most the search could run: every run to the end of
    its fuel.
    """

    def __init__(self, steps: int, cap: int):
        super().__init__(f"search needs up to {steps} steps, above the cap of {cap}")
        self.steps = steps
        self.cap = cap


class TupleCapExceededError(VtyError):
    """A variety check would visit more index tuples than the tuple cap."""

    def __init__(self, tuples: int, cap: int):
        super().__init__(f"variety check needs {tuples} index tuples, above the cap of {cap}")
        self.tuples = tuples
        self.cap = cap


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
