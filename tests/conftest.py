import sys
from types import SimpleNamespace

import pytest

from bopcalc import catalog as catalog_mod
from bopcalc import series as series_mod
from bopcalc import splitting as splitting_mod


@pytest.fixture
def counted(monkeypatch):
    """What is built from now on: `passes`, the degree of each binomial
    pass, and `profiles`, the (spectrum, truncation) of each profile
    build, the nested builds of BPbar, F and X included."""
    made = SimpleNamespace(passes=[], profiles=[])
    real_pass = series_mod._binomial_pass
    real_profile = catalog_mod.homotopy_profile

    def binomial_pass(coeffs, degree, sign, power):
        made.passes.append(degree)
        real_pass(coeffs, degree, sign, power)

    def homotopy_profile(spectrum, truncation):
        made.profiles.append((spectrum, truncation))
        return real_profile(spectrum, truncation)

    for module in (series_mod, splitting_mod):
        monkeypatch.setattr(module, "_binomial_pass", binomial_pass)
    # every module that binds the builder by name, the catalog's own
    # recursive calls included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bopcalc" and \
                getattr(module, "homotopy_profile", None) is real_profile:
            monkeypatch.setattr(module, "homotopy_profile", homotopy_profile)
    return made
