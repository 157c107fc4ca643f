"""The README's library example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments(capsys):
    """The example block runs, prints one line per `print` call, and each
    call with a `# value` comment prints that value."""
    section = README.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(prints)
    pinned = [(m.group(1), got) for line, got in zip(prints, printed)
              for m in [re.search(r"\)\s+# (.+)$", line)] if m]
    assert len(pinned) == 4
    assert [got for _, got in pinned] == [want for want, _ in pinned]
