"""Show that the benchmark's correctness gate can fail.

    python3 bench/selfcheck.py

Runs bench/run.py once per (workload, corruption) pair with one expected
answer made wrong (`--corrupt count` adds an axiom to an expected ontology
or an obligation to the corpus list; `--corrupt verdict` flips one expected
obligation verdict), and once uncorrupted as a control.  Every corrupted
run must exit 1 and report `"correct": false`; the control must pass.  Run
from the root of a gdol checkout.  Exits nonzero if any run behaves
otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

CASES = [
    ("deep_list", None),
    ("deep_list", "count"),
    ("corpus", "count"),
    ("corpus", "verdict"),
    ("shared_context", "count"),
    ("shared_context", "verdict"),
    ("many_contexts", "count"),
    ("many_contexts", "verdict"),
]


def main() -> int:
    run = Path(__file__).with_name("run.py")
    bad = 0
    for workload, corruption in CASES:
        argv = [sys.executable, str(run), "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", "0"]
        if corruption:
            argv += ["--corrupt", corruption]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        first_error = next((ln for ln in lines if ln.startswith("FAILED: ")), "")
        want_ok = corruption is None
        ok = (proc.returncode == 0) == want_ok and result.get("correct") is want_ok
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {workload:15s} corrupt={corruption or '-':8s}"
              f" exit={proc.returncode} correct={result.get('correct')}"
              f" failed={result.get('failed')}/{result.get('attempted')}  {first_error[:110]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
