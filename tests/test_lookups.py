"""Names that the rest of the repository looks up in cfmimo: the functions
that the benchmark traces, and those of the README's library sketch."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_function_resolves():
    # The benchmark finds each traced function by (module, name); one that
    # is gone would fail only a traced benchmark run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in tracer.TRACED:
        assert callable(tracer.original(module, name)), f"{module}.{name}"


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [sketch] = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```",
                          readme, flags=re.M | re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out
