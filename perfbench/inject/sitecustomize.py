"""Start-up hook of the benchmark's traced processes.

The traced run puts this directory first on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR``; Python imports ``sitecustomize`` at start-up, so
every process of the traced workload -- the benchmark's child, ``repro
serve``, each ``repro worker`` -- installs the call tracer before it runs
anything.  Without the variable this module does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import sys
    from pathlib import Path

    # Appended, not prepended: the benchmark's modules must not shadow any
    # module the program imports.
    sys.path.append(str(Path(__file__).resolve().parent.parent))
    import calltrace

    calltrace.install_from_env()
