"""The names ``lowresmt`` exports are its documented library API.

Every public top-level name (submodules aside) appears in README's
"Library use" section, so a new export arrives with its documentation.
"""
import re
import types
from pathlib import Path

import lowresmt

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_appears_in_readme_library_use():
    section = re.search(
        r"^## Library use$(.*?)(?=^## |\Z)", README.read_text(encoding="utf-8"), re.M | re.S
    )
    documented = set(re.findall(r"\w+", section.group(1)))
    exported = {
        name for name, value in vars(lowresmt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - documented) == []
