"""Apply each mutant of tests/mutants.py to a copy of src/ and run its tests
against the copy, one mutant and one pytest process at a time.  The
mutants' tests first run once on the unmutated copy, where they must
pass.  Lists the survivors and exits 1 if any mutant survives or its run
errs.  Standard library only; not part of the tier-1 suite.

    python3 tests/run_mutants.py [NAME ...]
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def _pytest(copy: Path, tests) -> int:
    """pytest's exit code for `tests`, run from the repository root with
    qforge imported from `copy`."""
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={copy}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in chosen}:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        baseline = sorted({t for m in chosen for t in m.tests})
        if code := _pytest(copy, baseline):
            print(f"the mutants' tests fail on the unmutated source (pytest exit {code})")
            return 1
        bad = []
        for m in chosen:
            target = copy / "qforge" / m.file
            original = target.read_text()
            if original.count(m.old) != 1:
                verdict = "stale: old text does not occur exactly once"
            else:
                target.write_text(original.replace(m.old, m.new))
                try:
                    code = _pytest(copy, m.tests)
                finally:
                    target.write_text(original)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}")
            print(f"{m.name}: {verdict}")
            if verdict != "killed":
                bad.append(m.name)
    print(f"{len(chosen) - len(bad)} of {len(chosen)} killed in {time.perf_counter() - t0:.1f} s")
    if bad:
        print("not killed: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
