"""Boundaries of the package's modules: no module uses another module's
private (``_``) names, only an explicit set of modules constructs anything
unchecked, only ``wordlang`` decodes JSON, only ``verify`` builds check
results, seeds a ``random.Random`` and imports ``sampling``, only ``verify``
and ``cli`` import ``wordlang``, only an import that breaks a cycle is made
inside a function, every public name is referenced, and every package error
is raised."""

import ast
from pathlib import Path

import freenil2
from freenil2 import errors

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
                      "y = Automorphism._signed(x), autgroup.__name__, pair_list(2)\n"
                      "w = Automorphism.trusted(x), z.IntMatrix.trusted(x)\n")
    assert sorted(cross_module_private_uses(sample)) == [
        (2, "_pair_pos"), (5, "autgroup._zero_based_pairs"), (5, "z._identity_rows"),
        (6, "Automorphism._signed")]


# the trust boundary: the only modules that call a ``trusted`` constructor,
# each on values it computes from ints the package already holds.  Every other
# module, among them ``wordlang`` and ``cli``, which turn user text into
# values, and ``verify``, constructs only through the validating constructors.
TRUSTED_BUILDERS = {"nilcore.py", "zlinalg.py", "autgroup.py", "sampling.py",
                    "iastruct.py", "involutions.py"}


def unchecked_constructions(path):
    """(line, call) of every call of a ``trusted`` or ``_trusted`` attribute
    in the module at path."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("trusted", "_trusted")]


def test_only_the_trusted_builders_construct_unchecked():
    builders = {p.name for p in PACKAGE.glob("*.py") if unchecked_constructions(p)}
    assert builders == TRUSTED_BUILDERS
    assert {"wordlang.py", "cli.py", "verify.py"}.isdisjoint(TRUSTED_BUILDERS)


def test_unchecked_construction_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .nilcore import Element\n"
                      "from . import autgroup\n"
                      "g = Element.trusted(1, (1,), ())\n"
                      "s = autgroup.Automorphism.trusted((g,))\n"
                      "t = Element(1, (1,)).trusted\n"
                      "u = trusted(g)\n")
    assert unchecked_constructions(sample) == [
        (3, "Element.trusted"), (4, "autgroup.Automorphism.trusted")]


def json_decodes(path):
    """(line, name) of every call of ``json.loads`` or ``json.load``, and of
    every import of either name from ``json``, in the module at path."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.loads", "json.load"):
            uses.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            uses += [(node.lineno, f"json.{alias.name}") for alias in node.names
                     if alias.name in ("loads", "load")]
    return sorted(uses)


def test_only_wordlang_decodes_json():
    assert json_decodes(PACKAGE / "wordlang.py")
    offences = {p.name: uses for p in sorted(PACKAGE.glob("*.py"))
                if p.name != "wordlang.py" and (uses := json_decodes(p))}
    assert offences == {}


def test_json_decode_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import json\n"
                      "from json import load, dumps\n"
                      "a = json.loads('[]')\n"
                      "b = json.load(open('f'))\n"
                      "c = json.dumps(a), json.JSONDecodeError, dumps(b)\n")
    assert json_decodes(sample) == [(2, "json.load"), (3, "json.loads"), (4, "json.load")]


def check_result_constructions(path):
    """(line, call) of every call of a ``CheckResult`` name or attribute in
    the module at path."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2] == "CheckResult"]


def test_only_verify_builds_check_results():
    assert check_result_constructions(PACKAGE / "verify.py")
    offences = {p.name: uses for p in sorted(PACKAGE.glob("*.py"))
                if p.name != "verify.py" and (uses := check_result_constructions(p))}
    assert offences == {}


def test_check_result_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import verify\n"
                      "from .verify import CheckResult\n"
                      "a = CheckResult('x', 'pass', 1)\n"
                      "b = verify.CheckResult('x', 'fail', 1, {})\n"
                      "c = isinstance(a, CheckResult), a.to_json()\n")
    assert check_result_constructions(sample) == [
        (3, "CheckResult"), (4, "verify.CheckResult")]


def rng_constructions(path):
    """(line, call) of every call that constructs a ``random.Random`` in the
    module at path: ``random.Random(...)``, through any alias of the
    ``random`` module, or a ``Random`` imported from it."""
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(f"{alias.asname or alias.name}.Random" for alias in node.names
                         if alias.name == "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "Random")
    return sorted((node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) in names)


def test_only_verify_seeds_a_random_generator():
    # every draw comes from a trial rng, which verify._trial_rng seeds
    assert rng_constructions(PACKAGE / "verify.py")
    offences = {p.name: uses for p in sorted(PACKAGE.glob("*.py"))
                if p.name != "verify.py" and (uses := rng_constructions(p))}
    assert offences == {}


def test_rng_construction_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import random\n"
                      "import random as rnd\n"
                      "from random import Random, choice\n"
                      "from random import Random as R\n"
                      "a = random.Random(1), rnd.Random(2)\n"
                      "b = Random(3), R(4)\n"
                      "c = random.choice([a]), choice([b]), isinstance(a, Random)\n"
                      "def f(rng: random.Random): return rng.random()\n")
    assert rng_constructions(sample) == [
        (5, "random.Random"), (5, "rnd.Random"), (6, "R"), (6, "Random")]


def sibling_imports(path):
    """(line, module) of every import of a module of the package in the
    module at path: ``from . import a``, ``from .a import x``,
    ``import freenil2.a`` and ``from freenil2 import a`` all import ``a``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            dotted = node.module or ""
            if not node.level:
                package, _, dotted = dotted.partition(".")
                if package != "freenil2":
                    continue
            modules = [dotted.partition(".")[0]] if dotted else [a.name for a in node.names]
            found += [(node.lineno, module) for module in modules]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[1]) for alias in node.names
                      if alias.name.startswith("freenil2.")]
    return sorted(found)


def importers(paths, module):
    """Names of the files among paths that import the package module."""
    return sorted(p.name for p in paths if any(m == module for _, m in sibling_imports(p)))


def test_only_verify_imports_sampling():
    # library functions take the values they work on; verify draws them
    assert importers(PACKAGE.glob("*.py"), "sampling") == ["verify.py"]


def test_only_verify_and_cli_import_wordlang():
    # text is made and read at the edges: check reports and the command line
    assert importers(PACKAGE.glob("*.py"), "wordlang") == ["cli.py", "verify.py"]


def test_sibling_import_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import autgroup, sampling\n"
                      "from .wordlang import format_element\n"
                      "import freenil2.sampling as s\n"
                      "from freenil2 import wordlang\n"
                      "from freenil2.nilcore import Element\n"
                      "import random, json\n"
                      "from random import Random\n")
    assert sibling_imports(sample) == [(1, "autgroup"), (1, "sampling"), (2, "wordlang"),
                                       (3, "sampling"), (4, "wordlang"), (5, "nilcore")]
    (tmp_path / "other.py").write_text("from .sampling_extra import x\nimport sampling\n")
    (tmp_path / "late.py").write_text("def f():\n    from .wordlang import parse_element\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert importers(paths, "sampling") == ["sample.py"]
    assert importers(paths, "wordlang") == ["late.py", "sample.py"]


def function_level_imports(path):
    """(line, function, statement) of every import statement inside a
    function of the module at path, under its innermost function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child.lineno, function, ast.unparse(child)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


# the one import made at call time: involutions imports autgroup, so autgroup
# can import involutions only once both modules are loaded
LAZY_IMPORTS = {("autgroup.py", "classify_involution",
                 "from .involutions import involution_block_type")}


def test_only_a_cycle_breaking_import_is_made_inside_a_function():
    found = {(p.name, function, statement) for p in sorted(PACKAGE.glob("*.py"))
             for _, function, statement in function_level_imports(p)}
    assert found == LAZY_IMPORTS
    assert "autgroup" in {m for _, m in sibling_imports(PACKAGE / "involutions.py")}


def test_function_level_import_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import json\n"
                      "def f():\n"
                      "    from .a import b\n"
                      "    def g():\n"
                      "        import os\n"
                      "    return b\n"
                      "class C:\n"
                      "    def m(self):\n"
                      "        if self:\n"
                      "            import re as r\n"
                      "if True:\n"
                      "    import sys\n")
    assert function_level_imports(sample) == [
        (3, "f", "from .a import b"), (5, "g", "import os"), (10, "m", "import re as r")]


# public names that no module of the package references, kept on purpose
KEPT_UNREFERENCED = {
    # the lattice-r8 benchmark workload calls it and the benchmark's tracer wraps it
    "zlinalg.smith_decompose",
}


def unreferenced_public_names(paths):
    """``module.name`` of every public module-level function and class that no
    module among paths references, by name, attribute or import, other than
    by its own def.  A def decorated by a function of these modules (a
    registering decorator, like verify's ``_check``) counts as referenced."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}
    defs = {name: [node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
            for name, tree in trees.items()}
    functions = {node.name for nodes in defs.values() for node in nodes
                 if not isinstance(node, ast.ClassDef)}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(
        f"{module}.{node.name}" for module, nodes in defs.items() for node in nodes
        if not private(node.name) and node.name not in referenced
        and not any(ast.unparse(getattr(d, "func", d)) in functions for d in node.decorator_list))


def test_every_public_name_is_referenced_in_the_package():
    assert unreferenced_public_names(sorted(PACKAGE.glob("*.py"))) == sorted(KEPT_UNREFERENCED)


def test_unreferenced_detector(tmp_path):
    (tmp_path / "a.py").write_text("def used(): pass\n"
                                   "def by_attribute(): pass\n"
                                   "def unused(): return helper()\n"
                                   "def helper(): pass\n"
                                   "class Unused: pass\n"
                                   "def _private(): pass\n"
                                   "def _register(name): return lambda fn: fn\n"
                                   "@_register('x')\n"
                                   "def registered(): pass\n"
                                   "@lru_cache\n"
                                   "def cached(): pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n"
                                   "from . import a\n"
                                   "y = a.by_attribute()\n")
    assert unreferenced_public_names(sorted(tmp_path.glob("*.py"))) == [
        "a.Unused", "a.cached", "a.unused"]


def raised_names(paths):
    """Last dotted part of every name in a ``raise`` statement among paths,
    called or not: ``raise errors.NotIA("x")`` gives ``NotIA``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(ast.unparse(exc).rpartition(".")[2])
    return names


def test_every_package_error_is_raised():
    subclasses = {cls.__name__ for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.FreeNil2Error)
                  and cls is not errors.FreeNil2Error}
    assert len(subclasses) >= 10
    assert sorted(subclasses - raised_names(sorted(PACKAGE.glob("*.py")))) == []


def test_raised_detector(tmp_path):
    (tmp_path / "a.py").write_text("from . import errors\n"
                                   "def f(x):\n"
                                   "    if x:\n"
                                   "        raise errors.NotIA('x')\n"
                                   "    try:\n"
                                   "        pass\n"
                                   "    except KeyError:\n"
                                   "        raise\n"
                                   "    raise NotInner\n")
    assert raised_names([tmp_path / "a.py"]) == {"NotIA", "NotInner"}
