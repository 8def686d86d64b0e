"""README's "Quick use" block is run as written, so it cannot drift from the
package's API or stop recovering its instance unnoticed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_use_block_runs_and_recovers(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Quick use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    namespace = {}
    exec(compile(code, "README.md (Quick use)", "exec"), namespace)
    assert namespace["report"].rse[-1] < 1e-6
