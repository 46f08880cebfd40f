#!/usr/bin/env python3
"""Cross-check failpoint names armed in tests/benches against src/.

A failpoint only fires if the name armed by a test matches the name the
runtime evaluates, and nothing in the type system connects the two string
literals. A typo silently turns a crash test into a happy-path test. This
linter extracts both sides and fails on arms that can never fire.

Registered points (scanned from src/**/*.cc):
  - Eval("name"), AtPoint("name"), AtWritePoint("name"), AtTransition("name")
    literals.
  - Every "tm.<...>_force" string literal in src/tranman/: a protocol force
    point, which ForceAt expands to "name.before" and "name.after". The rule
    holds however the name reaches ForceAt, directly or as an argument of a
    shared step (PrepareCoordinator, Accept, CoordinatorCommit, ...), so a
    new step needs no new pattern.
  - tm.send.<TYPE> for every message-type string in TmMsgTypeName
    (src/tranman/messages.cc); the send path builds these dynamically.

Armed points (scanned from tests/, bench/, src/harness/):
  - Arm("name", ...) literals, and the literals of test helpers that arm
    for their caller: CrashAt("name", site) arms the name as written;
    ProbeWorkerHold(rig, "name", site) arms "name.before", so its literal
    must be a force point.
  - Every "tm.<...>_force" string literal in tests/: a force point a test
    probes through a helper (the ProbeWorkerHold tables), armed as
    "name.before".
  - Schedule-grammar string literals: every "point@site#hit" inside a string,
    with or without its "=action" (the CrashSchedule / NemesisScript /
    CAMELOT_SCHEDULE grammar, and bare nemesis triggers such as
    "tm.prepared@1#1" that code joins to an action later). Relative nemesis
    entries ("+1000=heal") carry no point and are skipped.
  - The model checker's replay recipes (src/analysis/protocol_spec.cc), which
    it builds at run time: "<point>.after" for every "tm.<...>_force" string
    literal there (the same rule: a spec rule passes the point to Force
    directly or through a shared step), and tm.send.<TYPE> for every wire
    name in SpecMsgTypeName.

Synthetic names are exempt: unit tests for the failpoint machinery itself arm
throwaway points on a bare FailpointRegistry. A name is synthetic when it has
no "." (e.g. "p", "x") or starts with "pt." (nemesis-test trigger points).

Exit status: 0 clean, 1 mismatches, 2 usage/environment trouble.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

EVAL_RE = re.compile(r'\b(?:Eval|AtPoint|AtWritePoint|AtTransition)\(\s*"([^"]+)"')
# A protocol force point: any "tm.<...>_force" string literal.
FORCE_POINT_RE = re.compile(r'"(tm\.[A-Za-z0-9_.]*_force)"')
ARM_RE = re.compile(r'\b(?:Arm|CrashAt)\(\s*"([^"]+)"')
PROBE_RE = re.compile(r'\bProbeWorkerHold\(\s*[^,()]+,\s*"([^"]+)"')
MSG_TYPE_RE = re.compile(r'return\s+"([^"]+)";')
# What a wire-name function returns for an out-of-range type.
UNNAMED_TYPES = ("UNKNOWN", "?")
# One schedule entry or trigger inside any string literal. The name must look
# like a dotted failpoint (letters/digits/underscore/dot) directly before
# @site#hit; the "=action" may follow or be absent.
SCHEDULE_ENTRY_RE = re.compile(r'([A-Za-z][A-Za-z0-9_.]*)@\d+#\d+')
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
LINE_COMMENT_RE = re.compile(r'^\s*(?://|\*)')


def synthetic(name: str) -> bool:
    return "." not in name or name.startswith("pt.")


def iter_cc(root: Path, rel_dirs: list[str]):
    for rel in rel_dirs:
        base = root / rel
        if base.is_dir():
            yield from sorted(base.rglob("*.cc"))


def message_type_names(path: Path, function: str) -> list[tuple[str, int]]:
    """(wire name, line) for each name `function` in `path` returns."""
    names: list[tuple[str, int]] = []
    if not path.is_file():
        return names
    in_names = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if function in line:
            in_names = True
        if in_names:
            m = MSG_TYPE_RE.search(line)
            if m and m.group(1) not in UNNAMED_TYPES:
                names.append((m.group(1), lineno))
            if line.startswith("}"):
                break
    return names


def registered_points(root: Path) -> set[str]:
    points: set[str] = set()
    for path in iter_cc(root, ["src"]):
        points.update(EVAL_RE.findall(
            path.read_text(encoding="utf-8", errors="replace")))
    for path in iter_cc(root, ["src/tranman"]):
        text = path.read_text(encoding="utf-8", errors="replace")
        for name in FORCE_POINT_RE.findall(text):
            points.add(name + ".before")
            points.add(name + ".after")
    messages = root / "src" / "tranman" / "messages.cc"
    for name, _ in message_type_names(messages, "TmMsgTypeName"):
        points.add("tm.send." + name)
    return points


def armed_points(root: Path) -> dict[str, list[str]]:
    """name -> list of file:line sites that arm it."""
    armed: dict[str, list[str]] = {}

    def note(name: str, path: Path, lineno: int) -> None:
        if synthetic(name):
            return
        armed.setdefault(name, []).append(
            f"{path.relative_to(root)}:{lineno}")

    for path in iter_cc(root, ["tests", "bench", "src/harness"]):
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(),
                start=1):
            # Commented-out examples of the grammar (docs headers, nemesis.h)
            # are not arms; skip pure comment lines.
            if LINE_COMMENT_RE.match(line):
                continue
            names = set(ARM_RE.findall(line))
            names.update(name + ".before" for name in PROBE_RE.findall(line))
            if path.is_relative_to(root / "tests"):
                names.update(name + ".before" for name in FORCE_POINT_RE.findall(line))
            for s in STRING_RE.finditer(line):
                names.update(SCHEDULE_ENTRY_RE.findall(s.group(1)))
            for name in sorted(names):
                note(name, path, lineno)

    spec = root / "src" / "analysis" / "protocol_spec.cc"
    if spec.is_file():
        text = spec.read_text(encoding="utf-8", errors="replace")
        for m in FORCE_POINT_RE.finditer(text):
            note(m.group(1) + ".after", spec, text.count("\n", 0, m.start(1)) + 1)
        for name, lineno in message_type_names(spec, "SpecMsgTypeName"):
            note("tm.send." + name, spec, lineno)
    return armed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--list-unarmed", action="store_true",
                        help="also list registered points nothing arms "
                             "(informational; never fails the lint)")
    args = parser.parse_args()

    if not (args.root / "src").is_dir():
        print(f"error: {args.root} has no src/ directory", file=sys.stderr)
        return 2

    registered = registered_points(args.root)
    armed = armed_points(args.root)
    if not registered or not armed:
        print("error: extraction came back empty; scanner regexes are stale",
              file=sys.stderr)
        return 2

    unknown = {name: sites for name, sites in sorted(armed.items())
               if name not in registered}
    print(f"failpoint lint: {len(registered)} registered, "
          f"{len(armed)} distinct armed")
    for name, sites in unknown.items():
        print(f"UNKNOWN POINT {name!r} armed but never evaluated in src/:")
        for site in sites:
            print(f"    {site}")

    if args.list_unarmed:
        for name in sorted(registered - set(armed)):
            print(f"note: registered point never armed: {name}")

    if unknown:
        print(f"FAIL: {len(unknown)} armed name(s) match no registered "
              "failpoint")
        return 1
    print("PASS: every armed failpoint name resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
