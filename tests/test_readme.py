"""The README's Python sketch runs, and every value its comments state is the value returned."""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def test_readme_sketch_values_match_its_comments():
    source = _sketch()
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        # a bare expression states its value: its comment starts with the repr
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        assert comments.get(node.lineno, "").startswith(repr(value)), (node.lineno, repr(value))
        checked += 1
    assert checked == 5
