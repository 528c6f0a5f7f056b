"""The settable surface: every parameter or dataclass field of the public API
that has a default.  A value that no job file, result or guard needs is a
module constant, so a new default must be added to the allow-list on
purpose."""
import dataclasses
import inspect

import qhm
import qhm.cli

ALLOWED = {
    # job-file fields
    "Grid.mask_fraction",
    "PhysParams.hbar",
    "PhysParams.mass",
    "PhysParams.omega",
    "PhysParams.mu",
    "PhysParams.lam",
    "PhysParams.delta_t",
    "PhysParams.tau",
    "PhysParams.gamma_t",
    # result and spec fields
    "MetricSpec.theta",
    "MetricSpec.factors",
    "FitResult.distances",
    "FitResult.nearest",
    # the command line reads sys.argv when called without arguments
    "main.argv",
}


def _defaults(name: str, obj) -> set[str]:
    """``name.param`` for each parameter of a callable, or field of a
    dataclass, that has a default; a class adds its public methods."""
    if not isinstance(obj, type):
        return {
            f"{name}.{p.name}"
            for p in inspect.signature(obj).parameters.values()
            if p.default is not inspect.Parameter.empty
        }
    if issubclass(obj, BaseException):
        return set()
    if dataclasses.is_dataclass(obj):
        out = {
            f"{name}.{f.name}"
            for f in dataclasses.fields(obj)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        }
    else:
        out = _defaults(name, obj.__init__)
    for attr in dir(obj):
        member = getattr(obj, attr)
        if not attr.startswith("_") and callable(member):
            out |= _defaults(f"{name}.{attr}", member)
    return out


def test_only_allowed_settings_have_defaults():
    public = {name: getattr(qhm, name) for name in qhm.__all__}
    public["main"] = qhm.cli.main
    found = set()
    for name, obj in public.items():
        if callable(obj):
            found |= _defaults(name, obj)
    assert found == ALLOWED
