import os
import re
import subprocess
import sys
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


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's unifrag."""
    src = str(Path(unifrag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True)


LOADED = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'unifrag'))"


def test_each_subcommand_imports_only_what_it_uses():
    parse = _python("-c", "import sys\nfrom unifrag import cli\n"
                          f"cli.run(['parse', '-e', 'P(x)'])\n{LOADED}")
    assert parse.stdout.splitlines() == ["P(x)", repr(sorted([
        "unifrag", "unifrag.cli", "unifrag.errors", "unifrag.fragments", "unifrag.syntax"]))]
    assert _python("-c", f"import sys, unifrag\n{LOADED}").stdout == "['unifrag']\n"
    # run as a module, with no warning that the package imported it first
    command = _python("-m", "unifrag.cli", "parse", "-e", "P(x)")
    assert (command.stdout, command.stderr) == ("P(x)\n", "")
    assert set(unifrag.__all__) <= set(dir(unifrag))
