"""The qubit budget has one owner: ``RegisterTooLargeError`` is raised only
inside ``registers.stage_levels``, which counts each stage's register,
decides both stages' levels and refuses an over-budget call before anything
is built, so no builder counts a register again.  The program,
``src/fidest``, is parsed with ``ast``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fidest")


def callers(name: str, paths) -> list[str]:
    """Where ``name`` is called, as ``name(...)`` or ``obj.name(...)``: each
    enclosing definition as ``module.outer.inner``, the module alone for a
    call outside any definition."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.add(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        visit(tree, [os.path.splitext(os.path.basename(path))[0]])
    return sorted(found)


def test_callers_name_each_enclosing_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import r\n\n\ndef f():\n    r.g()\n\n\nclass C:\n    def h(self):\n"
                      "        def inner():\n            return g(1)\n        return inner\n\n\n"
                      "g(2)\nf()\n")
    assert callers("g", [module]) == ["m", "m.C.h.inner", "m.f"]
    assert callers("f", [module]) == ["m"]


def test_only_stage_levels_checks_the_budget():
    paths = [os.path.join(SRC, name) for name in sorted(os.listdir(SRC)) if name.endswith(".py")]
    assert {"pipeline.py", "registers.py", "sqrt_extractor.py", "block_encoding.py"} <= {
        os.path.basename(p) for p in paths}
    assert callers("RegisterTooLargeError", paths) == ["registers.stage_levels"]
