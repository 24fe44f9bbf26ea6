"""The README's ```python examples run and print what the README says they print."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for block in re.finditer(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE):
        lineno = text.count("\n", 0, block.start(1))
        runner.run(parser.get_doctest(block.group(1), {}, "README.md", str(README), lineno))
    failed, attempted = runner.summarize(verbose=False)
    assert failed == 0
    assert attempted >= 10
