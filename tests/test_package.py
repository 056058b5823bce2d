import re
from pathlib import Path

import unifrag
from unifrag import modelfind, syntax, translate

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
LIMITS = {"translate.DNF_LIMIT": translate.DNF_LIMIT,
          "modelfind.CIRCUIT_LIMIT": modelfind.CIRCUIT_LIMIT,
          "syntax.MAX_NESTING": syntax.MAX_NESTING,
          "syntax.MAX_DIGITS": syntax.MAX_DIGITS,
          "syntax.MAX_ARITY": syntax.MAX_ARITY}


def _value(number: str) -> int:
    return int(number.replace(",", ""))


def test_every_public_name_is_listed_once_and_imports_from_the_package_root():
    assert len(unifrag.__all__) == len(set(unifrag.__all__))
    namespace: dict = {}
    exec("from unifrag import *", namespace)  # raises on a name the root lacks
    assert set(unifrag.__all__) <= namespace.keys()


def test_readme_states_each_limit_as_its_constant():
    # each limit is named just after the number README states for it
    for name, value in LIMITS.items():
        mentions = [m.start() for m in re.finditer(f"`{re.escape(name)}`", README)]
        assert mentions, f"README does not name {name}"
        for at in mentions:
            stated = re.findall(r"\d[\d,]*\d|\d", README[max(0, at - 60):at])
            assert stated and _value(stated[-1]) == value, (name, stated)
    # and a number written with thousands separators is one of the limits
    for number in re.findall(r"\d{1,3}(?:,\d{3})+", README):
        assert _value(number) in LIMITS.values(), number
