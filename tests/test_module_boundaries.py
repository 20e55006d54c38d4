"""No module of the package uses another module's private (``_``) names."""

import ast
from pathlib import Path

import freenil2

PACKAGE = Path(freenil2.__file__).parent


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def cross_module_private_uses(path):
    """(line, name) of every private name that the module at path imports
    from a sibling module, or reads as an attribute of a sibling module or of
    a name imported from one (``Automorphism._trusted``)."""
    tree = ast.parse(path.read_text(), str(path))
    siblings, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "freenil2"
                                                 or (node.module or "").startswith("freenil2.")):
            for alias in node.names:
                if private(alias.name):
                    uses.append((node.lineno, alias.name))
                siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("freenil2."):
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and ast.unparse(node.value) in siblings):
            uses.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return uses


def test_no_module_uses_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    offences = {p.name: uses for p in modules if (uses := cross_module_private_uses(p))}
    assert offences == {}


def test_detector_flags_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import autgroup\n"
                      "from .nilcore import _pair_pos, pair_list\n"
                      "from .autgroup import Automorphism\n"
                      "import freenil2.zlinalg as z\n"
                      "x = autgroup._zero_based_pairs(3) + z._identity_rows(2)\n"
                      "y = Automorphism._trusted(x), autgroup.__name__, pair_list(2)\n")
    assert sorted(cross_module_private_uses(sample)) == [
        (2, "_pair_pos"), (5, "autgroup._zero_based_pairs"), (5, "z._identity_rows"),
        (6, "Automorphism._trusted")]
