"""README's "Library overview" example runs as written, so the documented
API cannot drift from the package's."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def overview_example() -> str:
    with open(README) as fh:
        section = fh.read().split("## Library overview", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_overview_runs(capsys):
    exec(compile(overview_example(), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(float(x) > 0.0 for x in printed)
