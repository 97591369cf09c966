"""Regenerate the pop-log golden.

Run only when the kernel entries a hotspot pops change on purpose (and
say in CHANGES.md which cells moved and why):

    PYTHONPATH=src python tests/make_poplog_goldens.py

Each cell of ``test_fastpath_equivalence.POP_CELLS`` is measured and
written to tests/golden/pop_logs.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_fastpath_equivalence import POP_CELLS, POP_GOLDEN, pop_log  # noqa: E402


def main() -> None:
    doc = {name: pop_log(name) for name in sorted(POP_CELLS)}
    POP_GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, cell in doc.items():
        print(f"{name}: {cell['entries']} entries")
    print(f"wrote {POP_GOLDEN}")


if __name__ == "__main__":
    main()
