"""Model-driven execution planning for the tone-mapping runtime.

Public surface:

* :mod:`repro.planner.profile` — :class:`CalibrationProfile` (the
  serialized host calibration), call-time ``active_profile()``
  resolution, the ``override`` context manager, and the shared dispatch
  formulas.
* :mod:`repro.planner.plan` — :class:`Workload`,
  :class:`ExecutionPlan`, :class:`Planner`, and the :func:`plan_for`
  convenience.
* :mod:`repro.planner.cost` — the analytic candidate-cost estimates
  behind every plan's rationale.
* :mod:`repro.planner.calibrate` — the measurement pass that writes a
  profile for this host.

The package root is **lazy** (PEP 562): the hot-path modules
(``repro.tonemap.gaussian``, ``repro.runtime.fused``) import
``repro.planner.profile`` directly, and eagerly importing ``plan`` here
would close an import cycle back through them.  Attribute access like
``repro.planner.plan_for`` resolves on first use instead.
"""

from __future__ import annotations

_EXPORTS = {
    "CalibrationProfile": ("repro.planner.profile", "CalibrationProfile"),
    "active_profile": ("repro.planner.profile", "active_profile"),
    "set_active_profile": ("repro.planner.profile", "set_active_profile"),
    "override": ("repro.planner.profile", "override"),
    "load_or_default": ("repro.planner.profile", "load_or_default"),
    "select_blur_method": ("repro.planner.profile", "select_blur_method"),
    "select_band_method": ("repro.planner.profile", "select_band_method"),
    "Workload": ("repro.planner.plan", "Workload"),
    "ExecutionPlan": ("repro.planner.plan", "ExecutionPlan"),
    "Planner": ("repro.planner.plan", "Planner"),
    "plan_for": ("repro.planner.plan", "plan_for"),
    "pinned": ("repro.planner.plan", "pinned"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.planner' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return __all__
