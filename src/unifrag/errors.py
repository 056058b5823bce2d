"""Exception hierarchy shared by the whole package."""


class LogicError(Exception):
    """Base class for all errors raised by unifrag."""


class ParseError(LogicError):
    """Syntax error in a formula, concept or role text, with position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class VocabularyError(LogicError):
    """Unknown relation symbol, or a symbol used at the wrong arity class."""


class ArityError(LogicError):
    """Argument count of an atom disagrees with the declared arity."""


class StructureError(LogicError):
    """A structure document violates one of the structure invariants."""


class EvalError(LogicError):
    """Evaluation failed: unbound variable, bad assignment, or misuse."""


class FragmentGateError(LogicError):
    """Input refused because it falls outside the fragment a translation
    or search routine is defined for (distinct from a parse error)."""


class CellLimitError(LogicError):
    """Model search refused: the interpretation space at the requested
    domain size exceeds the configured cell limit."""


class DnfLimitError(LogicError):
    """Translation refused: the absorbed normal form of a quantifier block,
    the composition chains of a DLR relation term or the copies of one part
    of a DLR concept would exceed the one budget ``translate.DNF_LIMIT``."""


class CircuitLimitError(LogicError):
    """Model search refused: the ground circuit at the requested domain size,
    or the number of sizes to search, would exceed the fixed circuit budget."""


class DepthLimitError(LogicError):
    """Input refused: it nests more deeply than a recursive walk of the
    package can follow within Python's recursion limit."""
