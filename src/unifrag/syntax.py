"""First-order formula ASTs, the text grammar, parsing and printing.

Formula grammar (UTF-8 text)::

    f ::= 'true' | 'false'
        | NAME '(' var (',' var)* ')'
        | var '=' var
        | '~' f
        | '(' f ')'                          -- grouping
        | '(' f OP f (OP f)* ')'             -- one operator per group
        | ('E' | 'A') var+ '.' f             -- quantifier block
        | 'E[' ('>='|'<='|'=') INT ']' var '.' f
    OP ::= '&' | '|' | '->'
    NAME, var ::= [A-Za-z][A-Za-z0-9_]*

``true``, ``false``, ``E`` and ``A`` are reserved words: they name no
variable, and a relation only directly before ``(``.  Quantifier blocks
are whitespace-separated variable lists and bind as far to the right as
possible.  ``&`` and ``|`` chains are balanced trees (:func:`fold`), ``->``
chains nest to the left.  The parsers here and in :mod:`unifrag.dl` and
:mod:`unifrag.dlr` build trees at most ``MAX_NESTING`` levels tall, which
every walker of the package handles; a taller tree built in code, such as
a translation, may make one raise RecursionError and its text unparsable.

Variables are plain strings; distinct names denote distinct variables.
The AST nodes of the three grammars and every other record of the package
share one base, :class:`Node`: slotted records that are immutable and safe
to share across threads, built from positional arguments, with ``==``,
``hash`` and ``repr`` over their fields.  ``==`` and ``repr`` walk a tree
of any height without recursing.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial, reduce, wraps
from operator import attrgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import ArityError, ParseError, VocabularyError

RESERVED_WORDS = frozenset({"true", "false", "E", "A"})

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Largest arity of a vocabulary symbol and of a DLR top relation or selection;
# arities size tuples, domain powers and the translations' variable lists.
MAX_ARITY = 32

# Most digits of an integer literal in any of the text grammars.
MAX_DIGITS = 18

# Stated here, where the command line's parser can read them without loading
# the modules that use them: the ways of reading DLR's top relations (see
# :mod:`unifrag.dlr`), the default limit on interpretation cells of
# :func:`unifrag.modelfind.find_model`, and the fragments of :mod:`unifrag.fragments`.
TOPN_MODES = ("delta", "explicit")
DEFAULT_CELL_LIMIT = 64


class FragmentId(Enum):
    U1_WO_EQ = "u1woeq"
    FU1 = "fu1"
    U1 = "u1"
    UC1 = "uc1"
    FO2 = "fo2"


# ---------------------------------------------------------------------------
# Node base
# ---------------------------------------------------------------------------

class Node:
    """Base of the package's immutable records: the formula, DL and DLR AST
    nodes, :class:`Vocabulary`, structures, and what is computed over them.

    A subclass names its own slots in ``__slots__``; ``_fields`` lists those
    of the class and its bases in order, but for a slot whose name starts
    with ``_``, which holds state.  ``_set_fields`` sets the fields, taken
    positionally: it is the ``__init__`` of a class that adds fields and
    defines none, and an ``__init__`` that checks its arguments calls it.  A
    field holds a node, a tuple of nodes, or a value that holds no node, and
    cannot be assigned or deleted afterwards.  Nodes take weak references.

    Two nodes are equal if they are of the same class and their fields are
    equal, so ``And(a, b) != Or(a, b)``.  ``==`` walks the nodes and tuples
    of both sides on an explicit stack and ``repr`` builds its text on one,
    so no nesting makes either raise RecursionError; ``repr`` prints
    ``Atom(rel='P', args=('x',))``.  ``hash`` is that of the tuple of the
    fields, and a copy is built again by the class's ``__init__``."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = tuple(f for f in cls.__dict__.get("__slots__", ()) if f[0] != "_")
        fields = cls._fields = cls._fields + own
        get = attrgetter(*fields) if fields else None
        # ``_values(node)``: the tuple of the node's fields, read in C
        cls._values = get if len(fields) > 1 else partial(_one_value, get)
        if own:
            # the slots' own setters, which pass by the refusing __setattr__
            cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
            cls._set_fields = _SET_FIELDS[len(fields)]
            cls.__init__ = cls.__dict__.get("__init__", cls._set_fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or not isinstance(a, Node):
                if a != b:  # so are two nodes of two classes, at once
                    return False
                continue
            for x, y in zip(a._values(a), b._values(b)):
                if isinstance(x, Node):
                    stack.append((x, y))
                elif type(x) is tuple and x and isinstance(x[0], Node):
                    if type(y) is not tuple or len(x) != len(y):
                        return False
                    stack += zip(x, y)
                elif x != y:
                    return False
        return True

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is str:  # text to print: _piece turns values into it
                out.append(x)
                continue
            if type(x) is tuple:
                parts, sep = ["("], ""
                for v in x:
                    parts += sep, _piece(v)
                    sep = ", "
                parts.append(",)" if len(x) == 1 else ")")
            else:
                parts, sep = [type(x).__qualname__ + "("], ""
                for f, v in zip(x._fields, x._values(x)):
                    parts += f"{sep}{f}=", _piece(v)
                    sep = ", "
                parts.append(")")
            stack += reversed(parts)
        return "".join(out)

    def __reduce__(self):
        return type(self), self._values(self)


# Node._set_fields of a node of one to five fields, each a plain function: a
# loop over the fields would build a node about twice as slowly.

def _set1(self, a):
    self._setters[0](self, a)


def _set2(self, a, b):
    set_a, set_b = self._setters
    set_a(self, a)
    set_b(self, b)


def _set3(self, a, b, c):
    set_a, set_b, set_c = self._setters
    set_a(self, a)
    set_b(self, b)
    set_c(self, c)


def _set4(self, a, b, c, d):
    set_a, set_b, set_c, set_d = self._setters
    set_a(self, a)
    set_b(self, b)
    set_c(self, c)
    set_d(self, d)


def _set5(self, a, b, c, d, e):
    set_a, set_b, set_c, set_d, set_e = self._setters
    set_a(self, a)
    set_b(self, b)
    set_c(self, c)
    set_d(self, d)
    set_e(self, e)


_SET_FIELDS = (None, _set1, _set2, _set3, _set4, _set5)  # by field count


def _one_value(get, node) -> tuple:
    """The tuple of the fields of a node with one field, which ``get``
    reads, or with none."""
    return () if get is None else (get(node),)


def _piece(v):
    """A field value as :meth:`Node.__repr__` stacks it: a node or a tuple,
    to be walked, or else the text of its repr."""
    return v if isinstance(v, Node) or type(v) is tuple else repr(v)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

class Vocabulary(Node):
    """Finite relational vocabulary: ``symbols`` maps each relation name to
    its arity, a read-only dict, so that equal vocabularies hash equal.

    Equality is built in and the name ``=`` is therefore rejected.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Mapping[str, int]):
        symbols = _Symbols(symbols)
        for name, arity in symbols.items():
            if name == "=":
                raise VocabularyError("'=' is reserved for built-in equality")
            if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
                raise VocabularyError(f"arity of {name!r} must be a positive integer, got {arity!r}")
            if arity > MAX_ARITY:
                raise VocabularyError(
                    f"arity {arity} of {name!r} exceeds the limit of {MAX_ARITY}")
            # E/A/true/false are names too: the formula grammar reads one
            # followed by '(' as a relation
            if not NAME_RE.fullmatch(name):
                raise VocabularyError(f"invalid relation name {name!r}")
        symbols._hash = hash(frozenset(symbols.items()))
        self._set_fields(symbols)

    def arity(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise VocabularyError(f"unknown relation symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.symbols


class _Symbols(dict):
    """The ``symbols`` of a :class:`Vocabulary`: a dict that refuses every
    change and hashes as its items do.  A copy is a plain dict."""

    __slots__ = ("_hash",)  # set once the vocabulary has checked the symbols

    def _refuse(self, *args):
        raise TypeError("the symbols of a vocabulary cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return dict, (dict(self),)


# Most entries of a table of :func:`compiled`; a full table is emptied.
MAX_COMPILED = 64

_NO_ENTRY = (None,) * 5


def compiled(cache: list, build: Callable, term, vocab: Vocabulary | None, *extra):
    """``build(term, vocab, *extra)``, kept in ``cache``, a list that each
    caller keeps for its own terms: the five fields of the entry built last,
    looked at first, and then the table of every entry kept, a dict keyed by
    the term's id, the vocabulary's symbols and ``extra``.  A hit needs the same term
    object (held, so that its id is not reused), the same ``build``, equal
    ``extra`` arguments and an equal vocabulary.  A table that holds
    ``MAX_COMPILED`` entries is emptied with one ``dict.clear`` before the
    next goes in, so that threads may share it; an error is never kept.
    What is built holds no structure, so that none outlives its call."""
    # both tests compare symbols rather than call Vocabulary.__eq__ or hash,
    # because a hit is the evaluators' common case
    b, t, v, e, out, table = cache
    if t is term and b is build and e == extra and (v is vocab or (
            v is not None and vocab is not None and v.symbols == vocab.symbols)):
        return out
    key = id(term), None if vocab is None else vocab.symbols, extra
    b, t, v, e, out = table.get(key, _NO_ENTRY)
    if t is term and b is build:
        return out
    out = build(term, vocab, *extra)
    if len(table) >= MAX_COMPILED:
        table.clear()
    table[key] = entry = build, term, vocab, extra, out
    cache[:] = *entry, table
    return out


class Recursive:
    """The walk ``w(x) = step(x, w)``: no reference cycle, as a function calling itself is."""

    __slots__ = ("step",)

    def __init__(self, step: Callable):
        self.step = step

    def __call__(self, x):
        return self.step(x, self)


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

class Top(Node):
    __slots__ = ()


class Bottom(Node):
    __slots__ = ()


class Atom(Node):
    __slots__ = ("rel", "args")

    def __init__(self, rel: str, args: tuple[str, ...]):
        args = tuple(args)
        if not args:
            raise ValueError("atoms take at least one argument (arity >= 1)")
        self._set_fields(rel, args)


class Equals(Node):  # of two variables
    __slots__ = ("left", "right")


class Not(Node):
    __slots__ = ("body",)


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Implies(Node):
    __slots__ = ("left", "right")


class _Block(Node):
    __slots__ = ("vars", "body")

    def __init__(self, vars: tuple[str, ...], body: "Formula"):
        vars = tuple(vars)
        if not vars:
            raise ValueError("quantifier block needs at least one variable")
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable in quantifier block: {vars}")
        self._set_fields(vars, body)


class ExistsBlock(_Block):
    __slots__ = ()


class ForallBlock(_Block):
    __slots__ = ()


COUNT_COMPARATORS = (">=", "<=", "=")


class CountExists(Node):
    """Counting quantifier over a single variable: E[cmp k] x. body."""

    __slots__ = ("cmp", "bound", "var", "body")

    def __init__(self, cmp: str, bound: int, var: str, body: "Formula"):
        if cmp not in COUNT_COMPARATORS:
            raise ValueError(f"comparator must be one of {COUNT_COMPARATORS}, got {cmp!r}")
        if bound < 0:
            raise ValueError("counting bound must be >= 0")
        self._set_fields(cmp, bound, var, body)


Formula = Union[Top, Bottom, Atom, Equals, Not, And, Or, Implies,
                ExistsBlock, ForallBlock, CountExists]


def fold(op, parts: list, unit=None):
    """Combine ``parts`` with the associative binary constructor ``op`` as a
    balanced tree, ⌈log2 n⌉ levels deep for n parts; up to three parts nest
    as a left-deep chain.  Given ``unit``, op's identity, parts equal to it
    are left out and no parts give ``unit``."""
    if unit is not None:
        parts = [p for p in parts if p != unit]
        if not parts:
            return unit
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return op(fold(op, parts[:mid]), fold(op, parts[mid:]))


def children(f: Formula) -> tuple[Formula, ...]:
    """Subformulas of f in child-index order (used for diagnostic paths)."""
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Not, ExistsBlock, ForallBlock, CountExists)):
        return (f.body,)
    return ()


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from walk(c)


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Equals):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (ExistsBlock, ForallBlock)):
        return free_variables(f.body) - frozenset(f.vars)
    if isinstance(f, CountExists):
        return free_variables(f.body) - frozenset((f.var,))
    return frozenset()


def check_atom(atom: Atom, vocab: Vocabulary) -> None:
    """The atom rule: ``atom`` names a relation of ``vocab`` at its arity."""
    arity = vocab.arity(atom.rel)
    if arity != len(atom.args):
        raise ArityError(
            f"relation {atom.rel!r} has arity {arity}, got {len(atom.args)} arguments")


def validate_formula(f: Formula, vocab: Vocabulary) -> None:
    """Check every atom of ``f`` against the vocabulary (``check_atom``)."""
    for g in walk(f):
        if isinstance(g, Atom):
            check_atom(g, vocab)


def infer_vocabulary(f: Formula) -> Vocabulary:
    """Derive a vocabulary from atom usage; occurrences must agree on arity."""
    symbols: dict[str, int] = {}
    for g in walk(f):
        if isinstance(g, Atom):
            seen = symbols.setdefault(g.rel, len(g.args))
            if seen != len(g.args):
                raise ArityError(
                    f"relation {g.rel!r} used with arities {seen} and {len(g.args)}")
    return Vocabulary(symbols)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# a token from the tuple of its fields, without the NamedTuple's Python-level
# __new__, which costs as much again
_token = partial(tuple.__new__, _Token)


# the last four token kinds only occur in the DL/DLR grammars
_PUNCT = {"->": "ARROW", ">=": "GE", "<=": "LE", "(": "LPAREN", ")": "RPAREN",
          "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ".": "DOT", "=": "EQ",
          "~": "TILDE", "&": "AMP", "|": "PIPE",
          "$": "DOLLAR", "/": "SLASH", ":": "COLON", "*": "STAR"}
_SPELLING = {kind: lit for lit, kind in _PUNCT.items()}
_CONNECTIVES = {"AMP": And, "PIPE": Or, "ARROW": Implies}  # by operator token
_SYMBOLS = {ctor: _SPELLING[kind] for kind, ctor in _CONNECTIVES.items()}

# One alternation, tried in order at each offset; the name of the matching
# group is the token kind.  NL and WS make no token, BAD is an error.
_TOKEN_RE = re.compile("|".join(
    [r"(?P<NL>\n)", r"(?P<WS>[^\S\n]+)", f"(?P<NAME>{NAME_RE.pattern})", r"(?P<INT>[0-9]+)"]
    + [f"(?P<{kind}>{re.escape(lit)})" for lit, kind in _PUNCT.items()] + ["(?P<BAD>.)"]))


def _tokens(text: str) -> Iterator[_Token]:
    """The tokens of ``text`` in reading order, made as they are asked for:
    an EOF token last or, at the first character that starts no token, a
    BAD token and nothing after it."""
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):  # every character matches, so no gaps
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            line_start = m.end()
        elif kind != "WS":
            yield _token((kind, m.group(), line, m.start() - line_start + 1))
            if kind == "BAD":
                return
    yield _token(("EOF", "", line, len(text) - line_start + 1))


# Deepest nesting a parser accepts, of the recursive productions in the
# text (at most three frames a level, well inside Python's recursion limit
# of 1000) and of the tree built: a chain counts its levels, a block one
# per variable (the evaluator loops over each in its own frame), a ``*`` one.
MAX_NESTING = 200
_TOO_DEEP = f"input nests deeper than {MAX_NESTING} levels"


def nested(production):
    """Count one nesting level around a recursive parser production and one
    tree level above the tallest part it builds, refusing input past
    ``MAX_NESTING`` with a ParseError."""

    @wraps(production)
    def guarded(self, *args):
        if self.depth >= MAX_NESTING:
            raise self.error(_TOO_DEEP)
        self.depth += 1
        outer, self.height = self.height, 0
        node = production(self, *args)
        self.depth -= 1
        height, self.height = self.height + 1, outer
        self.rise(height)
        return node

    return guarded


class TokenParser:
    """Token-stream scaffold of the recursive-descent parsers for formulas
    (here), DL concepts (:mod:`unifrag.dl`) and DLR concepts
    (:mod:`unifrag.dlr`).  Every cycle of recursive productions passes
    through a method decorated with :func:`nested`, and a cycle of more
    than three frames through two of them.

    The token rules the grammars share: :meth:`accept` an optional token,
    :meth:`expect` a required one, :meth:`word` a NAME outside a reserved
    set, :meth:`items` a comma list, :meth:`integer` an INT and
    :meth:`chain` a parenthesised operator chain.  They refuse a token with
    :meth:`expected`: "expected X, found Y", Y being 'end of input' at EOF.

    Tokens are read on demand from :func:`_tokens`, one past the current
    token ``tok``: the productions look at most one token ahead, at
    ``ahead``.  So a refusal has read one token past the one it refuses,
    and the first fault in reading order is reported: a bad character only
    once it is the current token."""

    def __init__(self, text: str):
        self.stream = _tokens(text)
        self.tok, self.ahead = None, next(self.stream)
        self.depth = 0   # nested productions open at the current token
        self.height = 0  # tallest part the innermost of them has built
        self.next()

    def next(self) -> _Token:
        """The current token, consumed: the one after it becomes current,
        refused if it is a bad character; EOF stays current at the end."""
        t = self.tok
        self.tok = u = self.ahead
        if u.kind != "EOF":
            if u.kind == "BAD":
                raise ParseError(f"unexpected character {u.text!r}", u.line, u.col)
            self.ahead = next(self.stream)
        return t

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        """The next token, consumed, if it is a ``kind`` (spelled ``text``), else None."""
        t = self.tok
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind: str) -> _Token:
        t = self.accept(kind)
        if t is None:
            raise self.expected("an integer" if kind == "INT" else repr(_SPELLING[kind]))
        return t

    def word(self, what: str, reserved: frozenset = frozenset()) -> str:
        """The text of the next token, a NAME not in ``reserved``."""
        t = self.tok
        if t.kind != "NAME" or t.text in reserved:
            raise self.expected(what)
        return self.next().text

    def items(self, item) -> list:
        """``item (',' item)*``: the values of the comma-separated items."""
        values = [item()]
        while self.accept("COMMA"):
            values.append(item())
        return values

    def error(self, msg: str) -> ParseError:
        t = self.tok
        return ParseError(msg, t.line, t.col)

    def expected(self, what: str) -> ParseError:
        """"expected ``what``, found" the next token, at its position."""
        return self.error(f"expected {what}, found {self.tok.text or 'end of input'!r}")

    def rise(self, height: int) -> None:
        """Record a part of ``height`` tree levels built by the innermost
        open production, refusing one taller than ``MAX_NESTING``."""
        if height > MAX_NESTING:
            raise self.error(_TOO_DEEP)
        if height > self.height:
            self.height = height

    def integer(self, token: _Token | None = None, skip: int = 0) -> int:
        """The next INT token's value or, given ``token``, that of its text
        after ``skip`` characters (``top<n>``); at most ``MAX_DIGITS`` digits."""
        t = token or self.expect("INT")
        digits = t.text[skip:]
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_DIGITS} digits",
                             t.line, t.col + skip)
        return int(digits)

    def build(self, ctor, *args):
        """``ctor(*args)``, with the constructor's ValueError turned into a
        ParseError at the current position."""
        try:
            return ctor(*args)
        except ValueError as e:
            raise self.error(str(e)) from None

    def chain(self, item, ops: dict, first=None):
        """``'(' item (OP item)* ')'``, one operator OP per group, ``ops``
        mapping the token kinds allowed to binary constructors, read as the
        whole of the enclosing production; given ``first``, that production
        has read the '(' and the first item, and nothing else.  n operands
        nest ⌈log2 n⌉ levels deep (:func:`fold`), or n - 1 under ``->``,
        which is not associative and nests to the left."""
        if first is None:
            self.expect("LPAREN")
            first = item()
        tallest, parts, op = self.height, [first], None
        while True:
            n, self.height = len(parts), 0
            # the enclosing production counts the chain's top level
            self.rise(tallest + (n - 1 if op == "ARROW" else (n - 1).bit_length()) - 1)
            t = self.tok
            if op is None and t.kind in ops:
                op = t.kind
            if not self.accept(op):  # no token is of kind None
                break
            self.height = 0
            parts.append(item())
            tallest = max(tallest, self.height)
        if t.kind in ops:
            raise self.error("mixed operators in one group need explicit parentheses")
        if op is None and t.kind != "RPAREN":
            choices = ", ".join(repr(_SPELLING[kind]) for kind in ops)
            raise self.expected(f"{choices} or ')'")
        self.expect("RPAREN")
        return reduce(ops[op], parts) if op == "ARROW" else fold(ops.get(op), parts)

    def finish(self, result):
        """``result``, once the whole input has been consumed."""
        t = self.tok
        if t.kind != "EOF":
            raise self.error(f"unexpected trailing input {t.text!r}")
        return result


class _FormulaParser(TokenParser):
    def name(self, what: str) -> str:
        t = self.tok
        # before '(' a reserved word names a relation; nothing else goes there
        if t.text in RESERVED_WORDS and self.ahead.kind != "LPAREN":
            raise self.error(f"{t.text!r} is a reserved word and cannot name a {what}")
        return self.word(what)

    @nested
    def formula(self) -> Formula:
        if self.accept("TILDE"):
            return Not(self.formula())
        t = self.tok
        if t.kind == "LPAREN":
            return self.chain(self.formula, _CONNECTIVES)
        if t.kind != "NAME":
            raise self.expected("a formula")
        if self.ahead.kind == "LPAREN":
            return self.atom_or_equality()
        if self.accept("NAME", "true"):
            return Top()
        if self.accept("NAME", "false"):
            return Bottom()
        if t.text == "E" and self.ahead.kind == "LBRACK":
            return self.counting()
        if t.text in ("E", "A"):
            return self.block()
        return self.atom_or_equality()

    def block(self) -> Formula:
        quant = self.next().text
        variables = []
        while self.tok.kind == "NAME" and self.tok.text not in RESERVED_WORDS:
            tok = self.next()
            if tok.text in variables:
                raise ParseError(f"duplicate variable {tok.text!r} in quantifier block",
                                 tok.line, tok.col)
            variables.append(tok.text)
        if not variables:
            raise self.error("quantifier block needs at least one variable")
        self.expect("DOT")
        body = self.formula()
        self.rise(self.height + len(variables))
        node = ExistsBlock if quant == "E" else ForallBlock
        return node(tuple(variables), body)

    def counting(self) -> Formula:
        self.next()  # E
        self.expect("LBRACK")
        if self.tok.text not in COUNT_COMPARATORS:
            raise self.expected("'>=', '<=' or '='")
        cmp = self.next().text
        bound = self.integer()
        self.expect("RBRACK")
        var = self.name("variable")
        self.expect("DOT")
        return CountExists(cmp, bound, var, self.formula())

    def atom_or_equality(self) -> Formula:
        rel = self.name("relation or variable")
        if self.accept("LPAREN"):
            args = self.items(lambda: self.name("variable"))
            self.expect("RPAREN")
            return Atom(rel, tuple(args))
        if self.accept("EQ"):
            return Equals(rel, self.name("variable"))
        raise self.error(f"expected '(' or '=' after {rel!r}")


def parse_formula(text: str, vocab: Vocabulary | None = None) -> Formula:
    """Parse a formula; when a vocabulary is given, atoms are checked
    against it (unknown symbol or arity mismatch raises)."""
    p = _FormulaParser(text)
    f = p.finish(p.formula())
    if vocab is not None:
        validate_formula(f, vocab)
    return f


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def print_formula(f: Formula) -> str:
    """Render a formula so that ``parse_formula(print_formula(f)) == f``."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        return f"{f.rel}({','.join(f.args)})"
    if isinstance(f, Equals):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        body = print_formula(f.body)
        if isinstance(f.body, Equals):
            body = f"({body})"
        return f"~{body}"
    if isinstance(f, (And, Or, Implies)):
        return f"({print_formula(f.left)} {_SYMBOLS[type(f)]} {print_formula(f.right)})"
    if isinstance(f, ExistsBlock):
        return f"E {' '.join(f.vars)}. {print_formula(f.body)}"
    if isinstance(f, ForallBlock):
        return f"A {' '.join(f.vars)}. {print_formula(f.body)}"
    if isinstance(f, CountExists):
        return f"E[{f.cmp}{f.bound}] {f.var}. {print_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")
