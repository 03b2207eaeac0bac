"""Every experiment script imports cleanly, so a renamed or deleted public
name fails here rather than in a user's run."""

import importlib.util
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
