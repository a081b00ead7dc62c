"""Campaign worker defaults, importable without loading the simulator.

``repro campaign`` shows these in its ``--help``; keeping them apart from
:mod:`repro.runner.campaign` lets the CLI build its parser without
importing the runner (and through it every simulator layer).
"""

#: Seconds without a heartbeat before a claim may be taken over.
DEFAULT_STALE_AFTER = 600.0

#: Seconds between polls while waiting on units claimed by other workers.
DEFAULT_POLL = 0.5
