"""Regenerate the access-analysis golden.

Run after an intentional change to the summary sets or the Access
Region Test's access lists (and say in CHANGES.md what moved and why):

    PYTHONPATH=src python tests/make_access_goldens.py

Every program of ``test_access_goldens.corpus`` is analysed and its
per-loop digests are written to tests/golden/access_summaries.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_access_goldens import GOLDEN, compute  # noqa: E402


def main() -> None:
    doc = compute()
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, loops in doc.items():
        print(f"{name}: {len(loops)} loop(s)")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
