"""Loads the benchmark's span tracer into every process of a traced run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one; traced runs of the end-to-end benchmark put this
directory on ``PYTHONPATH`` and name the span directory in
``E2E_TRACE_DIR``.
"""

import os

if os.environ.get("E2E_TRACE_DIR"):
    import e2e_tracer

    e2e_tracer.install(os.environ["E2E_TRACE_DIR"])
