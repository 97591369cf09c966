"""Regenerate the work-counter golden.

Run after an intentional change to how much work a layer does (and say
in CHANGES.md which counter moved and why):

    PYTHONPATH=src python tests/make_counter_goldens.py

Each cell of ``test_work_counters.CELLS`` is measured cold and written
to tests/golden/work_counters.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_work_counters import CELLS, GOLDEN, measure  # noqa: E402


def main() -> None:
    doc = {name: measure(name) for name in sorted(CELLS)}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, counters in doc.items():
        print(f"{name}: {len(counters)} counter(s)")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
