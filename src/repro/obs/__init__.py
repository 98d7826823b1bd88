"""Unified observability: tracing, profiles and metrics for every layer.

One instrumentation layer spans the whole machine hierarchy:

* :class:`ObsSink` collects structured :class:`ObsEvent` records from
  every timing model — integer/FP issue, TCDM bank grants and
  conflicts, ``TransferEngine`` transfers, SoC interconnect link
  grants, barriers, DMA fences, L2 traffic — tagged with hierarchical
  scopes (``soc/cluster{c}/core{k}``, ``bank{b}``, ``link{l}``).
  Attach one with ``Machine.attach_obs`` /
  ``ClusterMachine.attach_obs`` / ``SocMachine.attach_obs``, or pass
  ``--trace out.json`` to any eval artifact.
* :func:`chrome_trace` / :func:`write_chrome_trace` export a sink as
  Chrome/Perfetto trace-event JSON (open in https://ui.perfetto.dev
  or ``chrome://tracing``); :func:`validate_chrome_trace` checks the
  schema.
* :func:`core_profile` / :func:`aggregate_profile` /
  :func:`render_profile` derive the deterministic top-down
  cycle-attribution tree (``--profile``; embedded in ``RunRecord``
  schema v4).
* :class:`MetricsRegistry` names the derived measurements every
  artifact shares.
* :func:`render_timeline` / :func:`dual_issue_cycles` /
  :func:`lane_utilization` read one core's issue events back as the
  two-lane issue timeline.

Everything here is import-cycle-free by design: no module under
``repro.obs`` imports from the rest of the repo (the package init uses
only the leaf helper :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

# The simulator imports nothing from here; resolving names on first
# use keeps the metrics and trace exporters out of processes that
# never read them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "events": ("ObsEvent", "ObsSink"),
    "metrics": ("DEFAULT_METRICS", "METRIC_KINDS", "Histogram", "Metric",
                "MetricsRegistry"),
    "profile": ("ProfileNode", "aggregate_profile", "core_profile",
                "render_profile"),
    "timeline": ("dual_issue_cycles", "lane_utilization",
                 "render_timeline"),
    "trace": ("chrome_trace", "validate_chrome_trace",
              "write_chrome_trace"),
})

__all__ = [
    "DEFAULT_METRICS",
    "METRIC_KINDS",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "ObsEvent",
    "ObsSink",
    "ProfileNode",
    "aggregate_profile",
    "chrome_trace",
    "core_profile",
    "dual_issue_cycles",
    "lane_utilization",
    "render_profile",
    "render_timeline",
    "validate_chrome_trace",
    "write_chrome_trace",
]
