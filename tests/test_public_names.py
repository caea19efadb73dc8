"""Every public name of fidest is one the program uses.

The program is ``src/fidest`` (its CLI and ``verify`` included) and
``demos/``, parsed with ``ast``: a name counts as used where it is read, as
``name`` or ``obj.name``, outside its own top-level definition.  A name in
``fidest.__all__`` with no such use is a helper only the tests call, and
belongs under ``tests/`` beside the other oracles.
"""

import ast
import os

import fidest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_DIRS = (os.path.join(ROOT, "src", "fidest"), os.path.join(ROOT, "demos"))


def used_names(paths) -> set[str]:
    """The names read in the files at ``paths``, each outside the top-level
    definition of the same name (so recursion is no use)."""
    used = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_used_names_skip_a_names_own_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(n):\n    return f(n - 1)\n\n\ndef g():\n    return 1\n\n\nx = g()\n")
    assert used_names([module]) >= {"g"}
    assert "f" not in used_names([module]) and "x" not in used_names([module])


def test_every_public_name_is_used_by_the_program():
    paths = [os.path.join(d, name) for d in PROGRAM_DIRS
             for name in sorted(os.listdir(d)) if name.endswith(".py")]
    names = {os.path.basename(p) for p in paths}
    assert {"cli.py", "verify.py", "06_full_pipeline.py"} <= names
    assert sorted(set(fidest.__all__) - used_names(paths)) == []
