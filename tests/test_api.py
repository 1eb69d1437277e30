import ast
import inspect
from pathlib import Path

import zbsim


def _readme_sketch() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def _referenced(source: str) -> set[str]:
    """Every name the code refers to: as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_resolves():
    for name in zbsim.__all__:
        assert getattr(zbsim, name) is not None


def test_no_exported_function_is_test_only():
    # an exported function must be reached by another module of the package
    # or by the README's sketch; record classes and enums are exempt, being
    # the types that the reached functions take and return
    package = Path(zbsim.__file__).parent
    modules = {path.stem: _referenced(path.read_text())
               for path in package.glob("*.py") if path.name != "__init__.py"}
    sketch = _referenced(_readme_sketch())
    idle = sorted(
        name for name, home in zbsim._EXPORTS.items()
        if inspect.isfunction(getattr(zbsim, name))
        and name not in sketch
        and not any(name in names for stem, names in modules.items() if stem != home)
    )
    assert idle == []


def test_unknown_attribute_raises():
    try:
        zbsim.no_such_symbol
    except AttributeError as exc:
        assert "no_such_symbol" in str(exc)
    else:
        raise AssertionError("expected AttributeError")


def test_readme_library_sketch_runs(capsys):
    # the docs cannot drift from the exports: run the README's sketch as written
    exec(compile(_readme_sketch(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    # the strongest line is the cyclotron line, and every printed peak is labelled
    assert lines[0].split()[-1] == "intraband(0->1)"
    assert all(line.split()[-1].startswith(("intraband(", "interband(")) for line in lines)
