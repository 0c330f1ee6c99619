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
