import re
from pathlib import Path

import longmem

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api_section_lists_exactly_the_exported_names():
    text = README.read_text(encoding="utf-8")
    assert "\n## Public API\n" in text, "README has no Public API section"
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert len(names) == len(set(names)), "a name is listed twice"
    assert sorted(names) == sorted(longmem.__all__)
    assert all(hasattr(longmem, name) for name in names)
