"""The public surface: every exported name is used by the package itself
or documented in the README, so nothing is exported only for its tests."""

import pathlib
import re

import wordrep

PACKAGE = pathlib.Path(wordrep.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def test_every_export_resolves_once():
    assert len(set(wordrep.__all__)) == len(wordrep.__all__)
    for name in wordrep.__all__:
        assert getattr(wordrep, name) is not None, name


def test_every_export_has_a_caller_or_is_documented():
    # each module's lines, less those that define a name (def, class or
    # assignment) so that a definition does not count as its own use
    defining = re.compile(r"^\s*(?:def|class)\s+(\w+)|^\s*(\w+)\s*(?::[^=]*)?=(?!=)")
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            m = defining.match(line)
            uses.setdefault(m and (m.group(1) or m.group(2)), []).append(line)
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    unused = []
    for name in wordrep.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        in_code = any(word.search(line)
                      for defined, lines in uses.items() if defined != name
                      for line in lines)
        if not (in_code or any(word.search(span) for span in spans)):
            unused.append(name)
    assert unused == []
