#!/usr/bin/env python3
"""End-to-end check of the dfault CLI's artifact flags.

Usage:
    tests/tools/test_dfault_cli.py DFAULT_BINARY WORK_DIR

Runs a reduced `dfault characterize srad` with --stats-out=,
--trace-events= and --manifest-out=, then checks that the command
exits 0, that all three files parse as JSON, and that the manifest
names the tool "dfault" and records no interruption.
"""

import json
import os
import subprocess
import sys


def main():
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    paths = {name: os.path.join(work, f"cli_{name}.json")
             for name in ("stats", "trace", "manifest")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "characterize", "srad", "footprint_mib=4",
           "work_scale=0.25",
           f"--stats-out={paths['stats']}",
           f"--trace-events={paths['trace']}",
           f"--manifest-out={paths['manifest']}"]
    rc = subprocess.run(cmd).returncode
    if rc != 0:
        sys.exit(f"dfault exited {rc}")
    docs = {}
    for name, path in paths.items():
        with open(path) as f:
            docs[name] = json.load(f)
    manifest = docs["manifest"]
    if manifest.get("tool") != "dfault":
        sys.exit(f"manifest tool is {manifest.get('tool')!r}, not 'dfault'")
    if manifest.get("interrupted"):
        sys.exit("clean run's manifest is marked interrupted")
    print("dfault characterize: stats, trace and manifest are valid JSON")


if __name__ == "__main__":
    main()
