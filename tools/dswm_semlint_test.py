#!/usr/bin/env python3
"""Self-test for tools/dswm_semlint.py against the committed fixtures.

Every rule in the linter's RULES ships at least one violating (`bad_*`)
and one clean (`ok_*`) fixture, a .cc or .h file under
tests/semlint_fixtures/<rule>/. Each fixture's first line declares the
in-tree path it impersonates:

    // semlint-fixture-path: src/core/bad_unordered.cc

The test stages all fixtures into a temporary tree at those paths (the
directory-scoped rules only fire on realistic locations), runs the
linter over the staged tree, and asserts:

  * every bad fixture yields >= 1 violation of its own rule,
  * no ok fixture yields any violation of its own rule, and
  * a staging of only the ok fixtures exits 0 (fully clean).

Run directly or via ctest (dswm_semlint_selftest):
    tools/dswm_semlint_test.py --root <repo-root>
"""

import argparse
import importlib.util
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

FIXTURE_PATH_RE = re.compile(r"//\s*semlint-fixture-path:\s*(\S+)")
VIOLATION_RE = re.compile(r"^(\S+?):(\d+): \[([\w-]+)\] ")


def load_fixtures(fixture_root):
    """[(rule, is_bad, fixture_file, pretend_relpath)]"""
    fixtures = []
    for rule_dir in sorted(fixture_root.iterdir()):
        if not rule_dir.is_dir():
            continue
        for f in sorted(p for p in rule_dir.iterdir()
                        if p.suffix in (".cc", ".h")):
            first = f.read_text(encoding="utf-8").splitlines()[0]
            m = FIXTURE_PATH_RE.search(first)
            if not m:
                raise SystemExit(
                    f"{f}: missing '// semlint-fixture-path: ...' header")
            is_bad = f.name.startswith("bad_")
            if not is_bad and not f.name.startswith("ok_"):
                raise SystemExit(f"{f}: fixture name must start bad_ or ok_")
            rel = pathlib.PurePosixPath(m.group(1))
            if any(rel == other for (_, _, _, other) in fixtures):
                raise SystemExit(f"{f}: another fixture already stages "
                                 f"at {rel}")
            fixtures.append((rule_dir.name, is_bad, f, rel))
    return fixtures


def stage(fixtures, stage_dir):
    (stage_dir / "src").mkdir(parents=True, exist_ok=True)
    for (_, _, f, rel) in fixtures:
        dest = stage_dir / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(f, dest)


def run_semlint(linter, stage_dir):
    proc = subprocess.run(
        [sys.executable, str(linter), "--root", str(stage_dir)],
        capture_output=True, text=True)
    violations = {}  # relpath -> set of rules
    for line in proc.stdout.splitlines():
        m = VIOLATION_RE.match(line)
        if m:
            violations.setdefault(m.group(1), set()).add(m.group(3))
    return proc, violations


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    linter = root / "tools" / "dswm_semlint.py"
    fixture_root = root / "tests" / "semlint_fixtures"
    if not linter.is_file() or not fixture_root.is_dir():
        print("semlint selftest: repo layout not found under --root",
              file=sys.stderr)
        return 2

    spec = importlib.util.spec_from_file_location("dswm_semlint", linter)
    semlint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(semlint)

    fixtures = load_fixtures(fixture_root)
    rules = set(semlint.RULES)
    for rule in sorted(rules | {r for (r, _, _, _) in fixtures}):
        kinds = {is_bad for (r, is_bad, _, _) in fixtures if r == rule}
        if rule not in rules or kinds != {True, False}:
            print(f"semlint selftest: '{rule}' must be a linter rule with "
                  "both a bad_ and an ok_ fixture", file=sys.stderr)
            return 2

    failures = []

    with tempfile.TemporaryDirectory(prefix="semlint_fixtures_") as tmp:
        stage_dir = pathlib.Path(tmp) / "all"
        stage(fixtures, stage_dir)
        proc, violations = run_semlint(linter, stage_dir)
        if proc.returncode not in (0, 1):
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"semlint selftest: linter exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        for (rule, is_bad, f, rel) in fixtures:
            hit = rule in violations.get(str(rel), set())
            if is_bad and not hit:
                failures.append(f"{f.name}: expected a '{rule}' violation "
                                f"at {rel}, got none")
            if not is_bad and hit:
                failures.append(f"{f.name}: unexpected '{rule}' violation "
                                f"at {rel}")

        # The clean half alone must produce a fully green run.
        ok_only = [fx for fx in fixtures if not fx[1]]
        ok_dir = pathlib.Path(tmp) / "ok_only"
        stage(ok_only, ok_dir)
        proc_ok, violations_ok = run_semlint(linter, ok_dir)
        if proc_ok.returncode != 0:
            detail = "; ".join(f"{p}: {sorted(rs)}"
                               for p, rs in sorted(violations_ok.items()))
            failures.append("ok-only staging should be clean but exited "
                            f"{proc_ok.returncode} ({detail})")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        print(f"semlint selftest: {len(failures)} failure(s)")
        return 1
    bad_n = sum(1 for (_, b, _, _) in fixtures if b)
    print(f"semlint selftest: OK ({len(rules)} rules, {bad_n} violating + "
          f"{len(fixtures) - bad_n} clean fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
