"""Daemon defaults, importable without loading the simulator.

``repro serve`` shows these in its ``--help``; keeping them apart from
:mod:`repro.service.daemon` lets the CLI build its parser without
importing the daemon (and through it every simulator layer).
"""

#: Default bound on queued (not yet running) submissions.
DEFAULT_QUEUE_DEPTH = 16
