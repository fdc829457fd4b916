"""Docs-site integrity checks that run without the docs toolchain.

CI builds the MkDocs site with ``--strict`` (broken references fail the
build), but that job only runs where mkdocs is installed.  These tests
catch the same failure classes — missing nav pages, dead relative
links, mkdocstrings identifiers that don't import — inside the tier-1
suite, so a refactor that breaks the site fails fast everywhere.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
MKDOCS_YML = REPO / "mkdocs.yml"


def doc_pages() -> list[Path]:
    return sorted(DOCS.rglob("*.md"))


class TestSiteSkeleton:
    def test_config_and_landing_page_exist(self):
        assert MKDOCS_YML.is_file()
        assert (DOCS / "index.md").is_file()

    def test_nav_pages_exist(self):
        """Every .md path referenced from mkdocs.yml must exist (a
        missing nav entry is a --strict build failure)."""
        text = MKDOCS_YML.read_text()
        paths = re.findall(r":\s*([\w./-]+\.md)\b", text)
        assert paths, "mkdocs.yml declares no nav pages"
        for path in paths:
            assert (DOCS / path).is_file(), f"nav page missing: {path}"

    def test_strict_mode_configured(self):
        assert re.search(r"^strict:\s*true", MKDOCS_YML.read_text(),
                         re.MULTILINE)

    def test_mkdocstrings_covers_required_packages(self):
        """The docs satellite's contract: rendered API reference for the
        engine (incl. the monitor), core and instrument layers."""
        identifiers = {
            match
            for page in doc_pages()
            for match in re.findall(r"^::: ([\w.]+)", page.read_text(),
                                    re.MULTILINE)
        }
        for required in ("repro.engine", "repro.engine.monitor",
                         "repro.engine.therapy",
                         "repro.engine.estimation",
                         "repro.engine.core",
                         "repro.engine.core.plan",
                         "repro.engine.core.kernelset",
                         "repro.engine.core.executor",
                         "repro.engine.core.registry",
                         "repro.engine.core.contract",
                         "repro.engine.core.bench",
                         "repro.engine.core.snapshot",
                         "repro.serve", "repro.serve.session",
                         "repro.serve.server", "repro.serve.client",
                         "repro.serve.cli", "repro.pk.models",
                         "repro.pk.population",
                         "repro.therapy.controllers",
                         "repro.scenarios", "repro.scenarios.spec",
                         "repro.scenarios.workloads",
                         "repro.campaigns", "repro.campaigns.spec",
                         "repro.campaigns.store",
                         "repro.campaigns.runner",
                         "repro.campaigns.cli",
                         "repro.campaigns.report",
                         "repro.inference", "repro.inference.kalman",
                         "repro.inference.observation",
                         "repro.inference.evaluate",
                         "repro.telemetry", "repro.telemetry.recorder",
                         "repro.telemetry.aggregate",
                         "repro.telemetry.sinks",
                         "repro.telemetry.perfetto",
                         "repro.telemetry.metrics",
                         "repro.telemetry.cli",
                         "repro.core", "repro.instrument"):
            assert required in identifiers, f"no API page renders {required}"


class TestReferences:
    @pytest.mark.parametrize("page", doc_pages(),
                             ids=lambda p: str(p.relative_to(DOCS)))
    def test_mkdocstrings_identifiers_import(self, page):
        for identifier in re.findall(r"^::: ([\w.]+)", page.read_text(),
                                     re.MULTILINE):
            module = importlib.import_module(identifier)
            assert (module.__doc__ or "").strip(), (
                f"{identifier} has no module docstring to render")

    @pytest.mark.parametrize("page", doc_pages(),
                             ids=lambda p: str(p.relative_to(DOCS)))
    def test_relative_links_resolve(self, page):
        for target in re.findall(r"\]\(([^)#]+\.md)(?:#[^)]*)?\)",
                                 page.read_text()):
            if target.startswith(("http://", "https://")):
                continue
            resolved = (page.parent / target).resolve()
            assert resolved.is_file(), (
                f"{page.relative_to(REPO)} links to missing {target}")
