"""Golden digests of the package's outputs.

Each digest is the SHA-256 of one canonical text:

* ``check``: the check documents of seeded generated formulas in all five
  fragments, with no vocabulary, with one that fits them and with one that
  refuses some of their atoms;
* ``fu1_to_dl``: the printed concept, or the refusal, of each such formula;
* ``lab_run``: the output of ``unifrag lab run --format json``.

``digests.json`` holds the values of the code that wrote it, so a change to
any of these outputs fails here, under every hash seed.  After a deliberate
change of output, write the file anew with
``PYTHONPATH=src python tests/test_digests.py > tests/digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from unifrag import LogicError, Vocabulary, check_fragment, cli, fu1_to_dl
from unifrag.dl import print_concept
from unifrag.fragments import FragmentId

from strategies import VOCAB, gen_any_formula, gen_formula

HERE = Path(__file__).resolve().parent
SEEDS, PER_SEED = (1, 2, 3), 300
U1_FAMILY = (FragmentId.U1_WO_EQ, FragmentId.FU1, FragmentId.U1, FragmentId.UC1)
VOCABULARIES = (None, VOCAB, Vocabulary({"R": 3, "P": 1}))


def _formulas():
    """Half grammar-directed formulas of the U1 family, half arbitrary ones."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(PER_SEED):
            if i % 2:
                yield gen_any_formula(rng, 3, ("x",))
            else:
                yield gen_formula(rng, U1_FAMILY[i // 2 % 4], 3)


def _translation(f) -> str:
    try:
        return print_concept(fu1_to_dl(f))
    except LogicError as e:
        return f"{type(e).__name__}: {e}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    formulas = list(_formulas())
    checks = [check_fragment(f, frag, vocab).to_doc()
              for f in formulas for frag in FragmentId for vocab in VOCABULARIES]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["lab", "run", "--format", "json"]) == 0
    return {"check": _sha(json.dumps(checks, sort_keys=True)),
            "fu1_to_dl": _sha("\n".join(map(_translation, formulas))),
            "lab_run": _sha(out.getvalue())}


def test_outputs_match_the_committed_digests():
    assert digests() == json.loads((HERE / "digests.json").read_text())


def test_digests_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    runs = [subprocess.Popen([sys.executable, str(HERE / "test_digests.py")],
                             stdout=subprocess.PIPE, text=True,
                             env=dict(env, PYTHONHASHSEED=seed)) for seed in ("0", "1")]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    expected = json.loads((HERE / "digests.json").read_text())
    assert [json.loads(text) for text in outputs] == [expected, expected]


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
