"""Compatibility import path for :func:`stage_breakdown`.

The delivery stages are frames of the one profiler in
:mod:`repro.obs.profile`, which owns the stage taxonomy, the fold and
the table.  This module only keeps ``repro.obs.stages.stage_breakdown``
importable for ``perfbench/layers.py``, which reads stage rows by that
path.
"""

from repro.obs.profile import stage_breakdown

__all__ = ["stage_breakdown"]
