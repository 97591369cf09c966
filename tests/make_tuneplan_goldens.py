"""Regenerate the autotuner goldens.

Run after an intentional change to what the tuner decides or prints
(and update the pinned counters in tests/test_tuneplan_goldens.py if
the search's work changed on purpose):

    PYTHONPATH=src python tests/make_tuneplan_goldens.py

Each cell of ``test_tuneplan_goldens.CELLS`` pins its canonical
``TunePlan.to_jsonable()`` bytes under tests/golden/tuneplan_<name>.json;
each ``AUTOTUNE_OUTPUTS`` entry pins ``repro autotune`` stdout under
tests/golden/autotune_<name>.txt.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.sweep.cache import canonical_json  # noqa: E402
from repro.tools.cli import main as cli_main  # noqa: E402
from test_tuneplan_goldens import (  # noqa: E402
    AUTOTUNE_OUTPUTS,
    CELLS,
    GOLDEN_DIR,
    tune_cell,
)


def main() -> None:
    for name in sorted(CELLS):
        plan = tune_cell(name)
        out = GOLDEN_DIR / f"tuneplan_{name}.json"
        out.write_text(canonical_json(plan.to_jsonable()) + "\n")
        print(
            f"wrote {out} (profiles={plan.profiles}, "
            f"evaluated={plan.evaluated_candidates}, "
            f"pruned={plan.pruned_candidates})"
        )
    for name, argv in sorted(AUTOTUNE_OUTPUTS.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main(argv)
        out = GOLDEN_DIR / f"autotune_{name}.txt"
        out.write_text(buf.getvalue())
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
