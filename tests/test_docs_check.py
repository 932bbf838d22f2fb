"""The documentation gate behind ``make docs-check``.

``tools/docs_check.py`` fails the build on a broken intra-doc link or an
undocumented public name in the gated packages.  The resilience layer is
gated because it holds the backend-health verdict the server's router
reads.  These tests pin that the gate covers it, that the tree passes it,
and that it does flag what it claims to.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def docs_check():
    spec = importlib.util.spec_from_file_location(
        "docs_check_under_test", TOOLS / "docs_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_docstring_gate_covers_the_resilience_layer_and_passes(docs_check):
    assert "repro.resilience" in docs_check.DOCSTRING_PACKAGES
    assert docs_check.check_docstrings() == []


def test_intra_doc_links_resolve(docs_check):
    assert docs_check.check_links() == []


def test_docstring_gate_flags_undocumented_public_names(
    docs_check, tmp_path, monkeypatch
):
    package = tmp_path / "gatedpkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""A gated package."""\n')
    (package / "mod.py").write_text(textwrap.dedent('''
        """A gated module."""
        from json import dumps  # a re-export: not this module's to document

        def documented():
            """Has one."""

        def undocumented():
            pass

        def _private():
            pass

        class Thing:
            """Has one."""

            def method(self):
                pass

            def _helper(self):
                pass
    '''))
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(docs_check, "DOCSTRING_PACKAGES", ["gatedpkg"])
    try:
        problems = docs_check.check_docstrings()
    finally:
        for name in ("gatedpkg", "gatedpkg.mod"):
            sys.modules.pop(name, None)
    assert sorted(problems) == [
        "gatedpkg.mod.Thing.method: missing docstring",
        "gatedpkg.mod.undocumented: missing docstring",
    ]


def test_heading_anchors_follow_github_rules(docs_check):
    anchors = docs_check.heading_anchors(
        "# Top\n## The `repro.obs` layer\ntext\n### Deadlines & budgets\n"
    )
    assert anchors == {"top", "the-reproobs-layer", "deadlines--budgets"}
