"""Every public top-level function and class of `hconc`, and every public
method of a top-level class, has a caller in the package itself, and so has
every value of theirs: each defaulted parameter is passed by some call in
the package.  Code and options that only tests reach belong under tests/ as
a declared oracle (tests/oracles.py), or go.  Every field of a dataclass is
read by package code outside its own class.  And every name a module
imports is used in it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hconc"

# name -> why it may stay without a caller in the package
ALLOWED = {
    "density_necessity_demo": (
        "the converse (necessity) half of the theorem; it is to become a "
        "recipe with its own config (ROADMAP item 9)"
    ),
}

# "name(parameter)" -> why the default may stay without a caller that sets it
ALLOWED_DEFAULTS = {
    "main(argv)": (
        "the console entry point calls main() bare, so argv=None reads "
        "sys.argv; perfbench and the tests pass argv"
    ),
}


def _external(tree: ast.Module) -> set[str]:
    """Names that the module binds by importing from outside the package
    (math, np, linalg, dataclass, ...): an absolute import."""
    return {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.level == 0)
        for alias in node.names
    }


def _root(node: ast.Attribute) -> ast.AST:
    """The base of a dotted chain a.b.c: the node under its last attribute."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _on_external(node: ast.AST, external: set[str]) -> bool:
    """Whether `node` is an attribute read on a dotted chain rooted at an
    imported outside name: `math.inf` or `linalg.lapack.dpstrf` is not a use
    of a package method named inf or dpstrf."""
    if not isinstance(node, ast.Attribute):
        return False
    root = _root(node)
    return isinstance(root, ast.Name) and root.id in external


def _references(node: ast.AST, own: set[str], external: set[str]) -> set[str]:
    """Names that `node` loads or reads as attributes, other than `own` and
    attributes read on imported outside names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not _on_external(sub, external):
            names.add(sub.attr)
    return names - own


def _parts(tree: ast.Module):
    """(top-level definition or None, node, names the node's references to
    which do not count): each top-level statement, and for a class its
    bases, decorators and body items apart, since a method's own body does
    not reach it, as a function's does not."""
    for top in tree.body:
        named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
        own = {top.name} if named else set()
        if not isinstance(top, ast.ClassDef):
            yield top, own
            continue
        for node in top.bases + top.decorator_list:
            yield node, own
        for item in top.body:
            method = isinstance(item, ast.FunctionDef)
            yield item, own | {item.name} if method else own


def _public(tree: ast.Module):
    """(name, definition) of each public top-level function and class, and
    of each public method of a top-level class, named Class.method."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not top.name.startswith("_"):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{top.name}.{item.name}", item


def _unreached(package: Path) -> dict[str, str]:
    """Top-level public functions and classes of the modules in `package`,
    and public methods of top-level classes (named Class.method), that no
    module of it loads or reads as an attribute outside the body of their
    own definition, as {name: module file}.  Imports (so also the
    re-exports of `__init__`), `__all__` strings and attribute reads on
    names imported from outside the package are not references."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update((name, path.name) for name, _ in _public(tree))
        external = _external(tree)
        for node, own in _parts(tree):
            referenced |= _references(node, own, external)
    return {
        name: mod
        for name, mod in defined.items()
        if name.rpartition(".")[2] not in referenced
    }


def _defaults(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position among the call's positional arguments) of each
    parameter of `fn` with a default; None for a keyword-only one.  A bound
    method's first parameter takes no argument."""
    positional = fn.args.posonlyargs + fn.args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    kw = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return params + [(a.arg, None) for a, d in kw if d is not None]


def _unset_defaults(package: Path) -> dict[str, str]:
    """Defaulted parameters of the public functions and methods of the
    modules in `package`, and of the constructors of public classes with an
    `__init__` of their own (an exception's, say), that no call in `package`
    outside their own definition passes, as {"name(parameter)": module file}.
    A call is matched by the callee's last name: f(...), m.f(...) or
    obj.method(...), and Class(...) for a constructor; a call of an
    attribute of a name imported from outside the package (np.sum(...)) is
    none of them.  A *args argument passes every positional parameter, a
    **kwargs argument every one."""
    targets: dict[str, tuple[list, str]] = {}
    trees = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        trees.append(tree)
        for name, node in _public(tree):
            if isinstance(node, ast.FunctionDef):
                bound = "." in name and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                targets[name] = (_defaults(node, bound), path.name)
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    targets[name] = (_defaults(item, True), path.name)
    by_callee: dict[str, list[str]] = {}
    for name in targets:
        by_callee.setdefault(name.rpartition(".")[2], []).append(name)
    passed: set[tuple[str, str]] = set()
    for tree in trees:
        external = _external(tree)
        for node, own in _parts(tree):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call) or _on_external(call.func, external):
                    continue
                func = call.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                if callee in own:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                keywords = {k.arg for k in call.keywords}
                for name in by_callee.get(callee, ()):
                    for param, pos in targets[name][0]:
                        by_position = pos is not None and (starred or pos < len(call.args))
                        if by_position or param in keywords or None in keywords:
                            passed.add((name, param))
    return {
        f"{name}({param})": mod
        for name, (params, mod) in targets.items()
        for param, _ in params
        if (name, param) not in passed
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


def test_scan_ignores_attribute_reads_on_imported_outside_names(tmp_path):
    # math.inf, np.linalg.norm and linalg.lapack.dpstrf read attributes of
    # imported modules, not the package methods of those names; a read on a
    # package name (IntervalSet.of), a local (box.size) or a call result
    # still counts
    (tmp_path / "a.py").write_text(
        "import math\nimport numpy as np\nfrom scipy import linalg\n\n"
        "class Box:\n    @staticmethod\n    def of():\n        return Box()\n\n"
        "    def inf(self):\n        return math.inf\n\n"
        "    def norm(self):\n        return np.linalg.norm\n\n"
        "    def dpstrf(self):\n        return linalg.lapack.dpstrf\n\n"
        "    def size(self):\n        return 1\n\n"
        "    def shape(self):\n        return 2\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "import math\nimport numpy as np\nfrom .a import Box\n\n"
        "def caller(box):\n"
        "    return Box.of(), box.size(), np.asarray(box).shape, math.inf\n\n"
        "def sums(x):\n    return np.linalg.norm(x), caller(x)\n",
        encoding="utf-8",
    )
    assert _unreached(tmp_path) == {
        "Box.inf": "a.py",
        "Box.norm": "a.py",
        "Box.dpstrf": "a.py",
        "sums": "b.py",
    }


def test_every_default_is_passed_by_a_caller_in_the_package():
    unset = {
        name: mod
        for name, mod in _unset_defaults(SRC).items()
        if name not in ALLOWED_DEFAULTS
    }
    assert not unset, (
        "defaulted parameters that no hconc call passes; fix the value in "
        f"the function, give them a caller, or delete them: {unset}"
    )


def test_default_allowlist_names_only_unset_parameters():
    unset = _unset_defaults(SRC)
    for name in ALLOWED_DEFAULTS:
        assert name in unset, f"{name} is passed or gone; drop it from ALLOWED_DEFAULTS"


def test_scan_flags_defaults_that_only_their_own_body_passes(tmp_path):
    (tmp_path / "a.py").write_text(
        "def plain(x, scale=1.0, *, mode='a'):\n    return x * scale\n\n"
        "def recursive(n, depth=0):\n"
        "    return recursive(n - 1, depth + 1) if n else depth\n\n"
        "def keyed(x, y=2, z=3):\n    return x + y + z\n\n"
        "class Oops(Exception):\n"
        "    def __init__(self, message, code=None, hint=None):\n"
        "        super().__init__(message)\n        self.code = code\n\n"
        "class Box:\n    def grow(self, by=1, *, twice=False):\n"
        "        return self.grow(by, twice=False) if twice else by\n\n"
        "    @staticmethod\n    def make(size=0):\n        return size\n\n"
        "def _private(flag=False):\n    return flag\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, Oops, keyed, plain, recursive\n\n"
        "def use(box, args, opts):\n"
        "    box.grow(2)\n    recursive(3)\n    plain(*args)\n"
        "    keyed(1, **opts)\n    Box.make(4)\n"
        "    raise Oops('no', code=2)\n\n"
        "def main(argv=None):\n    return use(Box(), argv, {})\n",
        encoding="utf-8",
    )
    assert _unset_defaults(tmp_path) == {
        "plain(mode)": "a.py",
        "recursive(depth)": "a.py",
        "Oops(hint)": "a.py",
        "Box.grow(twice)": "a.py",
        "main(argv)": "b.py",
    }


def _unused_imports(package: Path) -> dict[str, list[str]]:
    """Names that a module of `package` other than `__init__` (whose imports
    are re-exports) imports and never loads, as {module file: names}.  A
    `from __future__` import binds no name."""
    unused = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if bound - loaded:
            unused[path.name] = sorted(bound - loaded)
    return unused


def test_every_import_is_used():
    unused = _unused_imports(SRC)
    assert not unused, f"imported names that no code of their module uses: {unused}"


def test_scan_flags_imports_that_no_code_loads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport numpy as np\nimport math, sys\n"
        "from .b import helper as aid, other\n\n"
        "def used(x: np.ndarray):\n    return aid(math.pi * x)\n",
        encoding="utf-8",
    )
    assert _unused_imports(tmp_path) == {"a.py": ["os", "other", "sys"]}


def _unread_options(path: Path) -> list[str]:
    """The dest of each `add_argument` in the module at `path` (its `dest=`,
    else its first long flag, or its first flag, or its name, with `-` read
    as `_`) that no code of the module reads as `args.<dest>`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    dests = []
    for call in ast.walk(tree):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "add_argument"
        ):
            continue
        keyed = [k.value.value for k in call.keywords if k.arg == "dest"]
        flags = [a.value for a in call.args if isinstance(a, ast.Constant)]
        longs = [f for f in flags if f.startswith("--")]
        dest = keyed[0] if keyed else (longs or flags)[0].lstrip("-")
        dests.append(dest.replace("-", "_"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    return [dest for dest in dests if dest not in read]


def test_every_cli_option_is_read_by_its_handler():
    unread = _unread_options(SRC / "cli.py")
    assert not unread, f"options that no handler reads; use or delete them: {unread}"


def test_scan_flags_options_that_no_handler_reads(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "def handle(args):\n    return args.x_grid, args.infile, args.n, args.k\n\n"
        "def build(p):\n"
        "    p.add_argument('direction', choices=('a', 'b'))\n"
        "    p.add_argument('--x-grid')\n"
        "    p.add_argument('--in', dest='infile')\n"
        "    p.add_argument('-n', '--count')\n"
        "    p.add_argument('-k')\n"
        "    p.add_argument('--dry-run', action='store_true')\n",
        encoding="utf-8",
    )
    assert _unread_options(path) == ["direction", "count", "dry_run"]


def _is_dataclass(decorator: ast.AST) -> bool:
    """Whether a class decorator is `dataclass`, `dataclass(...)` or
    `dataclasses.dataclass(...)`."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def _unread_fields(package: Path) -> dict[str, str]:
    """Fields of the top-level dataclasses of the modules in `package` that
    no module of it reads as an attribute (`obj.field`) outside the body of
    their own class, as {"Class.field": module file}.  A read is matched by
    the attribute's name, as the other scans match calls; attribute reads on
    names imported from outside the package (np.size) are none, and neither
    is passing a field to the constructor."""
    fields: dict[tuple[str, str], str] = {}
    read_outside: dict[str, set[str]] = {}  # attribute -> classes it is read in
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        external = _external(tree)
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            if owner and any(_is_dataclass(d) for d in top.decorator_list):
                for item in top.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        fields[(owner, item.target.id)] = path.name
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and not _on_external(node, external)
                ):
                    read_outside.setdefault(node.attr, set()).add(owner)
    return {
        f"{cls}.{name}": mod
        for (cls, name), mod in fields.items()
        if not read_outside.get(name, set()) - {cls}
    }


# "Class.field" -> why the field may stay unread by the package
ALLOWED_FIELDS = {
    f"NecessityRow.{name}": ALLOWED["density_necessity_demo"]
    for name in (
        "s_prime",
        "concentration",
        "concentrated",
        "tail",
        "window_mass",
        "window_bound",
        "gamma_implied",
        "passes",
    )
}


def test_every_dataclass_field_is_read_outside_its_class():
    unread = {
        name: mod
        for name, mod in _unread_fields(SRC).items()
        if name not in ALLOWED_FIELDS
    }
    assert not unread, (
        "dataclass fields that no hconc code reads outside their own class; "
        f"read them, or delete them: {unread}"
    )


def test_field_allowlist_names_only_unread_fields():
    unread = _unread_fields(SRC)
    for name in ALLOWED_FIELDS:
        assert name in unread, f"{name} is read or gone; drop it from ALLOWED_FIELDS"


def test_scan_flags_fields_that_only_their_own_class_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\nfrom dataclasses import dataclass, field\n\n"
        "@dataclass(frozen=True)\nclass Pair:\n    lo: float\n    hi: float\n"
        "    cap: float\n    size: int = field(default=0)\n\n"
        "    def __post_init__(self):\n"
        "        assert self.hi <= self.cap\n\n"
        "@dataclass\nclass Box:\n    width: float\n\n"
        "class Plain:\n    depth: float\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "import numpy as np\nfrom .a import Box, Pair\n\n"
        "def use(x):\n    pair = Pair(lo=0.0, hi=1.0, cap=x, size=2)\n"
        "    return pair.lo + pair.hi + np.size(x) + Box(width=x).width\n",
        encoding="utf-8",
    )
    assert _unread_fields(tmp_path) == {"Pair.cap": "a.py", "Pair.size": "a.py"}


def test_no_module_starts_threads():
    # every recipe runs its trials in order, in one thread
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        threaded = sorted(
            m for m in imported if m.split(".")[0] in ("concurrent", "threading")
        )
        assert not threaded, f"{path.name} imports {threaded}"


def _caches(package: Path) -> dict[str, str]:
    """The bound of each function of the modules in `package` that
    `lru_cache` or `functools.cache` memoizes, as {"module.function":
    "<maxsize> entries"}, or "unbounded" for `cache` and
    `lru_cache(maxsize=None)`.  A bare `lru_cache` holds 128."""
    caches = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for dec in fn.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                node = call.func if call else dec
                kind = getattr(node, "id", getattr(node, "attr", None))
                if kind not in ("lru_cache", "cache"):
                    continue
                size = 128 if kind == "lru_cache" else None
                if call:
                    given = call.args + [k.value for k in call.keywords]
                    size = ast.literal_eval(given[0]) if given else size
                bound = "unbounded" if size is None else f"{size} entries"
                caches[f"{path.stem}.{fn.name}"] = bound
    return caches


def _cache_table(readme: str) -> dict[str, str]:
    """{cache: bound cell} of each row of README's table of process-wide
    caches, keyed by the first code span of the row's cache cell."""
    after = readme.split("Every process-wide cache", 1)[1]
    table = re.search(r"(?:^[ \t]*\|.*\n)+", after, re.M).group(0)
    rows = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        name = re.match(r"`([\w.]+)`", cells[0])
        if name:
            rows[name.group(1)] = cells[2]
    return rows


def test_every_cache_has_a_row_with_its_bound_in_the_readme():
    caches = _caches(SRC)
    rows = _cache_table((ROOT / "README.md").read_text(encoding="utf-8"))
    missing = sorted(set(caches) - set(rows))
    assert not missing, f"caches with no row in README's cache table: {missing}"
    stale = sorted(set(rows) - set(caches))
    assert not stale, f"README's cache table names caches that are gone: {stale}"
    wrong = {
        name: (rows[name], bound)
        for name, bound in caches.items()
        if not rows[name].startswith(bound)
    }
    assert not wrong, f"README bound against the code's (README, code): {wrong}"


def test_scan_finds_every_cache_and_its_bound(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=16)\ndef keyed(x):\n    return x\n\n"
        "@functools.lru_cache(4)\ndef positional(x):\n    return x\n\n"
        "@lru_cache\ndef bare(x):\n    return x\n\n"
        "@functools.lru_cache(maxsize=None)\ndef unbounded(x):\n    return x\n\n"
        "@functools.cache\ndef once():\n    return 1\n\n"
        "@cache\ndef plain(x):\n    return x\n\n"
        "@staticmethod\ndef other(x):\n    return x\n",
        encoding="utf-8",
    )
    assert _caches(tmp_path) == {
        "a.keyed": "16 entries",
        "a.positional": "4 entries",
        "a.bare": "128 entries",
        "a.unbounded": "unbounded",
        "a.once": "unbounded",
        "a.plain": "unbounded",
    }
