"""The names the traced benchmark wraps must exist in the program.

``perfbench/spans.py`` looks its targets up by attribute name only when a
traced run starts, so a renamed function would otherwise break only
``perfbench/run.py --trace 1``.
"""

import importlib.util
import os

import pytest

from cavityrb.problem import CavityProblem

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_and_kernel_targets_resolve(spans):
    for name, owner, attr, _ in spans.MODULE_TARGETS + spans.KERNEL_TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_method_targets_are_problem_methods(spans):
    for name, attr in spans.METHOD_TARGETS:
        assert attr in vars(CavityProblem), name
