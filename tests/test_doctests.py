"""The examples in the module docstrings run and give what they show."""

import doctest

import pytest

from gottlieb import abelian, numtheory


@pytest.mark.parametrize("module", [abelian, numtheory], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
