#!/usr/bin/env python3
"""Compare two saved run.py outputs, metric by metric.

Usage: python3 pipebench/compare.py BASE.out NEW.out

Each file is the standard output of one run.py call: the environment line
followed by the result line. Runs whose environment fingerprint differs
(backend, numpy, BLAS build, core or threads) are refused with exit code 2,
since their times and output bytes are not comparable.
"""

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    env = result = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("{"):
                doc = json.loads(line)
                if "env" in doc:
                    env = doc["env"]
                elif "metrics" in doc:
                    result = doc
    if env is None or result is None:
        raise SystemExit(f"{path}: no environment line or no result line")
    return env, result


def main(base_path: str, new_path: str) -> int:
    (base_env, base), (new_env, new) = load(base_path), load(new_path)
    if base_env["fingerprint"] != new_env["fingerprint"]:
        print(f"refused: environments differ\n  {base_env['fingerprint']}\n  {new_env['fingerprint']}",
              file=sys.stderr)
        return 2
    for run, path in ((base, base_path), (new, new_path)):
        if not run["correct"]:
            print(f"warning: {path} had {run['failed']} failed runs of {run['attempted']}", file=sys.stderr)
    for name, m in base["metrics"].items():
        if name in new["metrics"]:
            a, b = m["value"], new["metrics"][name]["value"]
            change = f"{b / a - 1:+.1%}" if a else "n/a"
            print(f"{name:45s} {a:14.6g} {b:14.6g} {m['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
