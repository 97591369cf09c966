#!/usr/bin/env python
"""Repo-convention lints the generic toolchain can't express.

Three rules, all load-bearing for reproducibility contracts:

1. **No wall clocks in the simulator** (``src/repro/sim``,
   ``src/repro/vbus``): every quantity those layers produce must be
   *simulated* time — a ``time.time()`` / ``datetime.now()`` sneaking in
   breaks byte-identical reruns and the sweep cache (docs/SWEEP.md).

2. **Omitted-when-unset JSON fields**: in any ``to_jsonable`` method,
   an assignment of a registered optional key (``out["grain_map"] =
   ...``) must sit under an ``if`` — unconditionally emitting the key
   changes the bytes of every previously-committed artifact and cache
   row (the byte-compat convention of docs/SWEEP.md and docs/CHECK.md).

3. **Only the kernel moves the clock and settles events**: outside
   ``src/repro/sim`` no code may assign a :class:`~repro.sim.Simulator`
   private field (``_now``, ``_seq``, ``_queue``) or an
   :class:`~repro.sim.Event` private field (``_value``, ``_ok``,
   ``_processed``, ``_cb1``, ``_cbs``, ``_defused``).  Layers that run
   ahead of the heap (the RMA put streams booking legs before the event
   horizon) keep their own clock, schedule through kernel methods and
   settle events through them (``Simulator.settle``, ``fire``,
   ``urgent``), so every heap entry keeps its ``(time, priority, seq)``
   order.

Usage::

    python tools/lint_repo.py          # lints the tree, exit 1 on findings

Run as part of tools/check_docs.sh.
"""

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Directories whose code must never consult the host clock.
SIM_DIRS = ("src/repro/sim", "src/repro/vbus")

#: Host-clock call names, as ``module.attr`` attribute accesses.
WALL_CLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: JSON keys that are optional-by-contract: their presence depends on
#: the run/plan configuration, so emitting them must be conditional.
#: Grow this set when a new omitted-when-unset field ships.
OPTIONAL_JSON_KEYS = {
    # RunReport (docs/SWEEP.md)
    "grain_map", "partition", "partition_map", "sanitizer",
    # TunePlan / RegionDecision (docs/AUTOTUNE.md)
    "tune_partition", "calibration_sha256", "measured",
    # CheckReport / Diagnostic / Violation (docs/CHECK.md)
    "diagnostics", "notes", "array", "rank", "loop_var", "region_id",
}


def _iter_py(rel_dirs):
    for rel in rel_dirs:
        yield from sorted((REPO / rel).rglob("*.py"))


def lint_wall_clock(findings):
    for path in _iter_py(SIM_DIRS):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            # time.perf_counter(), datetime.now(), datetime.datetime.now()
            if isinstance(node, ast.Attribute):
                base = node.value
                root = None
                if isinstance(base, ast.Name):
                    root = base.id
                elif isinstance(base, ast.Attribute):
                    root = base.attr
                if root in WALL_CLOCK_ATTRS and (
                    node.attr in WALL_CLOCK_ATTRS[root]
                ):
                    findings.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: "
                        f"wall-clock call {root}.{node.attr} in simulator "
                        f"code (simulated time only)"
                    )
            # from time import perf_counter
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time", "datetime"
            ):
                banned = WALL_CLOCK_ATTRS.get(node.module, set())
                for alias in node.names:
                    if alias.name in banned:
                        findings.append(
                            f"{path.relative_to(REPO)}:{node.lineno}: "
                            f"imports wall clock "
                            f"{node.module}.{alias.name} in simulator code"
                        )


#: Simulator and Event fields only the kernel may assign.
SIMULATOR_PRIVATE = {"_now", "_seq", "_queue"}
EVENT_PRIVATE = {"_value", "_ok", "_processed", "_cb1", "_cbs", "_defused"}


def lint_kernel_private(findings):
    for path in _iter_py(("src/repro",)):
        if path.is_relative_to(REPO / "src/repro/sim"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if not isinstance(sub, ast.Attribute):
                        continue
                    if sub.attr in SIMULATOR_PRIVATE:
                        owner = "Simulator"
                    elif sub.attr in EVENT_PRIVATE:
                        owner = "Event"
                    else:
                        continue
                    findings.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: "
                        f"assigns {owner} field {sub.attr} outside "
                        f"src/repro/sim (schedule through the kernel)"
                    )


def _optional_key_of(stmt):
    """The registered optional key a statement assigns, or None."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Subscript):
        return None
    sl = target.slice
    if isinstance(sl, ast.Constant) and sl.value in OPTIONAL_JSON_KEYS:
        return sl.value
    return None


def _check_jsonable(func, path, findings):
    """Optional-key assignments must be nested under an If."""

    def visit(stmts, guarded):
        for stmt in stmts:
            key = _optional_key_of(stmt)
            if key is not None and not guarded:
                findings.append(
                    f"{path.relative_to(REPO)}:{stmt.lineno}: "
                    f"to_jsonable emits optional key {key!r} "
                    f"unconditionally (omitted-when-unset convention)"
                )
            for child_field, child_guarded in (
                ("body", guarded or isinstance(stmt, ast.If)),
                ("orelse", guarded or isinstance(stmt, ast.If)),
                ("finalbody", guarded),
            ):
                children = getattr(stmt, child_field, None)
                if children:
                    visit(children, child_guarded)

    visit(func.body, guarded=False)


def lint_jsonable(findings):
    for path in _iter_py(("src/repro",)):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name == "to_jsonable"
            ):
                _check_jsonable(node, path, findings)


def main() -> int:
    findings = []
    lint_wall_clock(findings)
    lint_jsonable(findings)
    lint_kernel_private(findings)
    if findings:
        print("\n".join(findings))
        return 1
    nfiles = len(list(_iter_py(SIM_DIRS))) + len(
        list(_iter_py(("src/repro",)))
    )
    print(f"repo lints OK ({nfiles} file pass(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
