"""End-to-end benchmark for the Maxoid reproduction.

Four seeded workloads (``delegate_invoke``, ``cow_read``, ``cow_write``,
``sweep``) run whole delegate invocations, copy-on-write provider traffic
and the fuzz/interleave sweeps, check every result, and report end-to-end
metrics; a separate traced pass wraps each layer's public methods from
here (nothing under ``src/`` changes) for per-layer numbers. See
``e2ebench/README.md``; the entry point is ``e2ebench/run.py``.
"""
