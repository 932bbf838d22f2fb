#!/usr/bin/env python
"""Documentation health check (the ``make docs-check`` target).

Two gates, both hard failures:

1. **Intra-doc links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file or directory, and an
   ``#anchor`` on a markdown target must match a heading in that file.
2. **Docstring coverage** — every public module, class, function and method
   in ``repro.service``, ``repro.shard`` and ``repro.resilience`` must carry
   a docstring (the service is the documented front door, the shard layer
   runs behind its ``"sharded:<engine>"`` backend, and the resilience layer
   holds the backend-health verdict the server's router reads; none of
   these API surfaces may grow undocumented).

Exit status 0 when clean, 1 with a findings list otherwise.
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
DOCSTRING_PACKAGES = ["repro.service", "repro.shard", "repro.resilience"]


def heading_anchors(markdown: str) -> set:
    """GitHub-style anchors of every heading in a markdown document."""
    anchors = set()
    for line in markdown.splitlines():
        match = re.match(r"#+\s+(.*)", line)
        if match:
            text = re.sub(r"[`*_]", "", match.group(1)).strip().lower()
            anchors.add(re.sub(r"[^\w\- ]", "", text).replace(" ", "-"))
    return anchors


def check_links() -> list:
    problems = []
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"{doc.relative_to(REPO_ROOT)}: file missing")
            continue
        text = doc.read_text()
        for target in LINK_PATTERN.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            if target.startswith("#"):
                if target[1:] not in heading_anchors(text):
                    problems.append(
                        f"{doc.relative_to(REPO_ROOT)}: broken anchor {target!r}"
                    )
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link {target!r}"
                )
            elif anchor and resolved.suffix == ".md":
                if anchor not in heading_anchors(resolved.read_text()):
                    problems.append(
                        f"{doc.relative_to(REPO_ROOT)}: broken anchor {target!r}"
                    )
    return problems


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(obj) is not module:
            continue  # re-exports are someone else's responsibility
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj
            if inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    if inspect.isfunction(method) or isinstance(method, property):
                        yield f"{name}.{method_name}", method


def check_docstrings() -> list:
    import importlib
    import pkgutil

    problems = []
    for package_name in DOCSTRING_PACKAGES:
        package = importlib.import_module(package_name)
        module_names = [package_name] + [
            f"{package_name}.{info.name}"
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module_name in module_names:
            module = importlib.import_module(module_name)
            if not (module.__doc__ or "").strip():
                problems.append(f"{module_name}: missing module docstring")
            for name, obj in _public_members(module):
                doc = inspect.getdoc(obj)
                if not (doc or "").strip():
                    problems.append(f"{module_name}.{name}: missing docstring")
    return problems


def main() -> int:
    problems = check_links() + check_docstrings()
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    checked = ", ".join(str(d.relative_to(REPO_ROOT)) for d in DOC_FILES)
    print(f"docs-check: OK ({checked}; docstrings of {', '.join(DOCSTRING_PACKAGES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
