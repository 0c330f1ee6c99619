import ast
import pathlib

import rvpmodes

SRC = pathlib.Path(rvpmodes.__file__).parent


def _private_cross_imports(path):
    """(line, module, name) for each underscore name that ``path`` imports
    from another rvpmodes module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "rvpmodes":
                continue
            found += [(node.lineno, module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
            found += [(node.lineno, module, module)
                      for part in module.split(".") if part.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, alias.name)
                      for alias in node.names
                      if alias.name.split(".")[0] == "rvpmodes"
                      and any(part.startswith("_")
                              for part in alias.name.split(".")[1:])]
    return found


class TestModuleBoundaries:
    def test_no_private_names_cross_modules(self):
        found = {path.name: _private_cross_imports(path)
                 for path in sorted(SRC.glob("*.py"))}
        assert len(found) >= 8
        assert {name: hits for name, hits in found.items() if hits} == {}

    def test_scan_sees_private_imports(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("from .spectral import _filon_batch, ModeSpec\n"
                         "from rvpmodes.quadrature import _FILON_L\n"
                         "import rvpmodes._hidden\n"
                         "from scipy import fft as _fft\n"
                         "from . import decay as _decay\n")
        names = [name for _, _, name in _private_cross_imports(probe)]
        assert names == ["_filon_batch", "_FILON_L", "rvpmodes._hidden"]


# --- no numeric path hands a matrix to BLAS ----------------------------------

BLAS_NAMES = {"matmul", "tensordot", "inner", "dot"}


def _blas_uses(path):
    """Sorted (line, name) for each ``@`` (named "@") in ``path`` and each
    matmul, tensordot, inner or dot it names, as attribute or import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in BLAS_NAMES]
    return sorted(found)


class TestNoBlasMatrices:
    def test_only_the_march_calls_dot(self):
        # einsum runs its own loops; a BLAS call wakes the worker thread,
        # which then spins.  The march's dots are vectors of at most
        # _BASE - 1 terms
        found = {path.name: {name for _, name in _blas_uses(path)}
                 for path in sorted(SRC.glob("*.py"))}
        assert len(found) >= 8
        assert {name: hits for name, hits in found.items() if hits} == {
            "volterra.py": {"dot"}}

    def test_scan_sees_planted_matrix_products(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("@functools.cache\n"
                         "def f(a, b):\n"
                         "    a @= b\n"
                         "    return a @ b, np.matmul(a, b), np.inner(a, b)\n"
                         "from numpy import tensordot, einsum\n"
                         "c = a.dot(b) + np.einsum('rn,n->r', a, b)\n")
        assert _blas_uses(probe) == [(3, "@"), (4, "@"), (4, "inner"),
                                     (4, "matmul"), (5, "tensordot"),
                                     (6, "dot")]


# --- every top-level name of src/ is reached from a program entry point -----

REPO = SRC.parent.parent
ENTRY_FILES = (sorted(REPO.glob("scripts/*.py"))
               + sorted(REPO.glob("bench/*.py")))


def _top_level(tree):
    """Each name a module defines at top level, with its defining node."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defs.update((t.id, node) for t in targets
                        if isinstance(t, ast.Name))
    return defs


def _bindings(tree, src):
    """local name -> (module, name) for each rvpmodes import in ``tree``;
    name is None where a whole module is bound, module is "__init__" for a
    name imported from the package itself."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "rvpmodes":
                continue
            module = module[len("rvpmodes"):].lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if module:
                out[local] = (module, alias.name)
            elif (src / f"{alias.name}.py").is_file():
                out[local] = (alias.name, None)
            else:
                out[local] = ("__init__", alias.name)
    return out


def _references(node, bindings, defs):
    """(module, name) for each rvpmodes name that ``node`` uses; module is
    None for a top-level name of the module that holds ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in bindings and bindings[sub.id][1] is not None:
                yield bindings[sub.id]
            elif sub.id in defs:
                yield None, sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value,
                                                           ast.Name):
            module, name = bindings.get(sub.value.id, (None, ""))
            if module and name is None:
                yield module, sub.attr


def _unreached(src, entry_files):
    """Top-level names of the modules in ``src`` that neither ``cli.main``
    nor any of ``entry_files`` reaches, following references transitively;
    dunder names are exempt."""
    modules = {}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules[path.stem] = (_top_level(tree), _bindings(tree, src))
    todo = [("cli", "main")]
    for path in entry_files:
        tree = ast.parse(path.read_text())
        todo += _references(tree, _bindings(tree, src), {})
    seen = set()
    while todo:
        module, name = todo.pop()
        if module == "__init__":
            module, name = modules["__init__"][1].get(name, (None, None))
        if (module not in modules or name not in modules[module][0]
                or (module, name) in seen):
            continue
        seen.add((module, name))
        defs, bindings = modules[module]
        todo += [(other or module, ref)
                 for other, ref in _references(defs[name], bindings, defs)]
    return sorted(f"{module}.{name}" for module, (defs, _) in modules.items()
                  for name in defs if (module, name) not in seen
                  and not (name.startswith("__") and name.endswith("__")))


class TestReachability:
    def test_every_src_name_is_reached(self):
        assert len(ENTRY_FILES) >= 4
        assert _unreached(SRC, ENTRY_FILES) == []

    def test_scan_flags_planted_names(self, tmp_path):
        src = tmp_path / "rvpmodes"
        src.mkdir()
        for path in SRC.glob("*.py"):
            (src / path.name).write_text(path.read_text())
        with open(src / "spectral.py", "a") as fh:
            fh.write("\n\n_PLANTED = 3\n\n\n"
                     "def planted(mode):\n"
                     "    return threshold_plasma(mode) * _PLANTED\n")
        assert _unreached(src, ENTRY_FILES) == ["spectral._PLANTED",
                                                "spectral.planted"]
        # a use in an entry file reaches the name and what it uses
        entry = tmp_path / "entry.py"
        entry.write_text("from rvpmodes import spectral\n"
                         "spectral.planted(None)\n")
        assert _unreached(src, ENTRY_FILES + [entry]) == []


# --- one criticality decision ------------------------------------------------

THRESHOLDS = {"threshold_plasma", "threshold_astro"}


def _threshold_users(path):
    """Top-level names of ``path`` (None for module-level code) that name a
    threshold function: by import, by reference or as an attribute."""
    users = set()
    for node in ast.parse(path.read_text()).body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id in THRESHOLDS
                    or isinstance(sub, ast.Attribute)
                    and sub.attr in THRESHOLDS
                    or isinstance(sub, ast.alias) and sub.name in THRESHOLDS):
                users.add(getattr(node, "name", None))
    return users


class TestOneCriticalityDecision:
    def test_only_kappa_crit_sq_names_the_thresholds(self):
        # the sign-threshold pairing lives in spectral.kappa_crit_sq alone;
        # sweep, find_y0 and the resolvent read that one number
        users = {path.name: _threshold_users(path)
                 for path in sorted(SRC.glob("*.py"))}
        assert {name: hits for name, hits in users.items() if hits} == {
            "spectral.py": {"kappa_crit_sq"}}

    def test_find_y0_computes_no_threshold(self):
        tree = ast.parse((SRC / "spectral.py").read_text())
        (find_y0,) = [node for node in tree.body
                      if getattr(node, "name", None) == "find_y0"]
        called = {sub.func.id for sub in ast.walk(find_y0)
                  if isinstance(sub, ast.Call)
                  and isinstance(sub.func, ast.Name)}
        assert not called & (THRESHOLDS | {"kappa_crit_sq"})

    def test_scan_sees_threshold_names(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("from .spectral import threshold_astro\n"
                         "def f(eq):\n"
                         "    return spectral.threshold_plasma(eq)\n"
                         "def g(eq):\n"
                         "    return 'threshold_plasma'\n")
        assert _threshold_users(probe) == {None, "f"}
