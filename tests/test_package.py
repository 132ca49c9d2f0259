"""The package surface: one export list, built from the modules' own."""

import sparsemix
from sparsemix import bfdr, errors, experiments, model, montecarlo, normal, procedures, risk, rules

MODULES = (errors, normal, model, risk, bfdr, procedures, rules, montecarlo, experiments)


def test_package_exports_every_module_export():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(sparsemix.__all__) == expected
    assert len(sparsemix.__all__) == len(expected)
    for name in sparsemix.__all__:
        assert hasattr(sparsemix, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sparsemix, name) is getattr(module, name), name
