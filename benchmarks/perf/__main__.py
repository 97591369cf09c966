"""``PYTHONPATH=src python -m benchmarks.perf``: ``run.py`` as a module."""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from run import main

    raise SystemExit(main())
