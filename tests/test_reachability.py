"""Every public top-level function and class of `hconc`, and every public
method of a top-level class, has a caller in the package itself.  Code that
only tests reach belongs under tests/ as a declared oracle
(tests/oracles.py), or goes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hconc"

# name -> why it may stay without a caller in the package
ALLOWED = {
    "density_necessity_demo": (
        "the converse (necessity) half of the theorem; it is to become a "
        "recipe with its own config (ROADMAP item 6)"
    ),
}


def _references(node: ast.AST, own: set[str]) -> set[str]:
    """Names that `node` loads or reads as attributes, other than `own`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names - own


def _unreached(package: Path) -> dict[str, str]:
    """Top-level public functions and classes of the modules in `package`,
    and public methods of top-level classes (named Class.method), that no
    module of it loads or reads as an attribute outside the body of their
    own definition, as {name: module file}.  Imports (so also the
    re-exports of `__init__`) and `__all__` strings are not references."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            own = {top.name} if named else set()
            if named and not top.name.startswith("_"):
                defined[top.name] = path.name
            parts = [(top, own)]
            if isinstance(top, ast.ClassDef):
                # as for a function, a method's own body does not reach it
                parts = [(node, own) for node in top.bases + top.decorator_list]
                for item in top.body:
                    method = isinstance(item, ast.FunctionDef)
                    if method and not item.name.startswith("_"):
                        defined[f"{top.name}.{item.name}"] = path.name
                    parts.append((item, own | {item.name} if method else own))
            for node, skip in parts:
                referenced |= _references(node, skip)
    return {
        name: mod
        for name, mod in defined.items()
        if name.rpartition(".")[2] not in referenced
    }


def test_every_public_definition_has_a_caller_in_the_package():
    unreached = {
        name: mod for name, mod in _unreached(SRC).items() if name not in ALLOWED
    }
    assert not unreached, (
        "public definitions that no hconc code reaches; move them to "
        f"tests/oracles.py, give them a caller, or delete them: {unreached}"
    )


def test_allowlist_names_only_unreached_definitions():
    unreached = _unreached(SRC)
    for name in ALLOWED:
        assert name in unreached, f"{name} is reached or gone; drop it from ALLOWED"


def test_scan_flags_code_that_only_itself_or_an_import_reaches(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Box:\n    @staticmethod\n    def make():\n        return Box()\n\n"
        "    def size(self):\n        return 1\n\n"
        "    def spin(self, n):\n        return self.spin(n - 1) if n else 0\n\n"
        "def _private():\n    return 0\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, recursive\n__all__ = ['recursive']\n\n"
        "def caller(obj):\n    return obj.used, obj.size()\n",
        encoding="utf-8",
    )
    assert _unreached(tmp_path) == {
        "recursive": "a.py",
        "Box": "a.py",
        "Box.make": "a.py",
        "Box.spin": "a.py",
        "caller": "b.py",
    }
