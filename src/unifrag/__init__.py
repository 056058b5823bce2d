"""Toolkit for the uniform one-dimensional fragment of first-order logic
and its description-logic relatives: parsing, fragment classification,
finite model checking, logic-to-logic translation, bounded model search
and executable expressivity separations.
"""

from .errors import (ArityError, CellLimitError, CircuitLimitError, DnfLimitError,
                     EvalError, FragmentGateError, LogicError, ParseError,
                     StructureError, VocabularyError)
from .fragments import (Diagnostic, FragmentId, Violation, ViolationKind,
                        check_fo2, check_fragment)
from .modelfind import SearchReport, find_model
from .semantics import SatisfactionSet, evaluate, evaluate_naive, satisfaction_set
from .structures import (Structure, disjoint_union, dump_structure,
                         make_structure, parse_structure, structure_to_doc)
from .syntax import (And, Atom, Bottom, CountExists, Equals, ExistsBlock,
                     ForallBlock, Formula, Implies, Not, Or, Top, Vocabulary,
                     free_variables, infer_vocabulary, parse_formula,
                     print_formula, validate_formula)
from .translate import (DnfBlock, Disjunct, dl_to_fu1, dlr0_to_fu1,
                        eliminate_comp_union, fu1_to_dl, to_dnf_block)

__version__ = "0.1.0"

__all__ = [
    "And", "ArityError", "Atom", "Bottom", "CellLimitError", "CircuitLimitError", "CountExists",
    "Diagnostic", "Disjunct", "DnfBlock", "DnfLimitError", "Equals", "EvalError", "ExistsBlock",
    "ForallBlock", "Formula", "FragmentGateError", "FragmentId", "Implies",
    "LogicError", "Not", "Or", "ParseError", "SatisfactionSet", "SearchReport",
    "Structure", "StructureError", "Top", "Violation", "ViolationKind",
    "Vocabulary", "VocabularyError", "check_fo2", "check_fragment",
    "disjoint_union", "dl_to_fu1", "dlr0_to_fu1", "dump_structure",
    "eliminate_comp_union", "evaluate", "evaluate_naive", "find_model",
    "free_variables", "fu1_to_dl", "infer_vocabulary", "make_structure",
    "parse_formula", "parse_structure", "print_formula", "satisfaction_set",
    "structure_to_doc", "to_dnf_block", "validate_formula",
]
