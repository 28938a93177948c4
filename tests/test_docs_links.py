"""Documentation link check: every relative link, anchor and code path
resolves.

Scans the markdown the repository ships (``README.md`` and
``docs/*.md``) for ``[text](target)`` links and verifies that relative
targets point at files that exist and that ``#fragment`` anchors match a
heading in the target document (GitHub slug rules: lowercase, spaces to
dashes, punctuation dropped).  External ``http(s)`` links are only
checked for well-formedness — the suite must pass offline.  Every
backticked dotted ``repro.…`` path in those documents plus
``DESIGN.md`` and ``EXPERIMENTS.md`` must name a module or attribute
that exists.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])
CODE_PATH_DOCUMENTS = sorted([*DOCUMENTS, REPO / "DESIGN.md",
                              REPO / "EXPERIMENTS.md"])

_CODE_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)


def _strip_fences(text: str) -> str:
    """Remove fenced code blocks so example snippets are not scanned."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _slug(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code
    heading = re.sub(r"\*+", "", heading)           # emphasis markers
    heading = heading.lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    text = _strip_fences(path.read_text(encoding="utf-8"))
    return {_slug(h) for h in _HEADING.findall(text)}


def _links(path: Path) -> list[str]:
    return _LINK.findall(_strip_fences(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("document", DOCUMENTS,
                         ids=[d.name for d in DOCUMENTS])
def test_relative_links_resolve(document):
    broken = []
    for target in _links(document):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = (document.parent / path_part if path_part
                    else document)
        if not resolved.exists():
            broken.append(f"{target}: no such file {resolved}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors(resolved):
                broken.append(f"{target}: no heading for #{fragment}")
    assert not broken, f"{document.name}: {broken}"


@pytest.mark.parametrize("document", DOCUMENTS,
                         ids=[d.name for d in DOCUMENTS])
def test_external_links_are_well_formed(document):
    for target in _links(document):
        if target.startswith(("http://", "https://")):
            assert re.match(r"https?://[\w.\-]+(/\S*)?$", target), (
                f"{document.name}: malformed URL {target!r}"
            )


def test_docs_reference_each_other():
    """The doc set is connected: API.md links the observability page."""
    api = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    assert "OBSERVABILITY.md" in api
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "OBSERVABILITY.md" in readme


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from
    the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


@pytest.mark.parametrize("document", CODE_PATH_DOCUMENTS,
                         ids=[d.name for d in CODE_PATH_DOCUMENTS])
def test_code_paths_resolve(document):
    paths = _CODE_PATH.findall(document.read_text(encoding="utf-8"))
    broken = sorted({path for path in paths if not _resolves(path)})
    assert not broken, f"{document.name}: unresolved code paths {broken}"
