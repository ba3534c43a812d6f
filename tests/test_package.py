import pkgutil
import sys

import sbxs
from sbxs import (
    cli,
    dirac_oracle,
    errors,
    gbessel,
    kinematics,
    potential,
    scan,
    units,
    xsection,
)

SUBMODULES = {"cli": cli, "dirac_oracle": dirac_oracle, "errors": errors,
              "gbessel": gbessel, "kinematics": kinematics,
              "potential": potential, "scan": scan, "units": units,
              "xsection": xsection}


def test_no_package_name_shadows_its_submodule():
    # `from sbxs import gbessel` and `import sbxs.gbessel as m` give the
    # module, not a function the package rebound the name to
    assert set(SUBMODULES) == {m.name for m in pkgutil.iter_modules(sbxs.__path__)}
    for name, module in SUBMODULES.items():
        assert module is sys.modules["sbxs." + name], name
        assert getattr(sbxs, name) is module, name


def test_every_exported_name_resolves():
    assert len(sbxs.__all__) == len(set(sbxs.__all__))
    for name in sbxs.__all__:
        assert hasattr(sbxs, name), name
