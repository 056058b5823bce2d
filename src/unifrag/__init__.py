"""Toolkit for the uniform one-dimensional fragment of first-order logic
and its description-logic relatives: parsing, fragment classification,
finite model checking, logic-to-logic translation, bounded model search
and executable expressivity separations.

Importing the package loads none of its modules: a public name imports
its module the first time it is read (PEP 562), so a program pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": ("ArityError", "CellLimitError", "CircuitLimitError", "DnfLimitError",
               "EvalError", "FragmentGateError", "LogicError", "ParseError",
               "StructureError", "VocabularyError"),
    "fragments": ("Diagnostic", "FragmentId", "Violation", "ViolationKind",
                  "check_fo2", "check_fragment"),
    "modelfind": ("SearchReport", "find_model"),
    "semantics": ("SatisfactionSet", "evaluate", "evaluate_naive", "satisfaction_set"),
    "structures": ("Structure", "disjoint_union", "dump_structure",
                   "make_structure", "parse_structure", "structure_to_doc"),
    "syntax": ("And", "Atom", "Bottom", "CountExists", "Equals", "ExistsBlock",
               "ForallBlock", "Formula", "Implies", "Not", "Or", "Top", "Vocabulary",
               "free_variables", "infer_vocabulary", "parse_formula",
               "print_formula", "validate_formula"),
    "translate": ("DnfBlock", "Disjunct", "dl_to_fu1", "dlr0_to_fu1",
                  "eliminate_comp_union", "fu1_to_dl", "to_dnf_block"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:  # so that ``from unifrag import dl`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
