from pathlib import Path

import zbsim


def test_every_export_resolves():
    for name in zbsim.__all__:
        assert getattr(zbsim, name) is not None


def test_unknown_attribute_raises():
    try:
        zbsim.no_such_symbol
    except AttributeError as exc:
        assert "no_such_symbol" in str(exc)
    else:
        raise AssertionError("expected AttributeError")


def test_readme_library_sketch_runs(capsys):
    # the docs cannot drift from the exports: run the README's sketch as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5
