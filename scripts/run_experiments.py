#!/usr/bin/env python3
"""Run every experiment config in scripts/configs/ through the CLI.

Writes JSON + CSV reports under results/ and evaluates each config's
acceptance checks.  Exits nonzero if any suite fails its checks.

    python3 scripts/run_experiments.py [--threads N]
"""

import argparse
import sys
from pathlib import Path

# run from a checkout without installing the package, as pytest does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eivpred.cli import main as cli_main  # noqa: E402

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    failures = []
    for config in sorted(CONFIG_DIR.glob("*.json")):
        if config.name.startswith("simulate"):
            command = ["simulate", "--config", str(config)]
        else:
            command = [
                "experiment",
                "--config",
                str(config),
                "--check",
                "--threads",
                str(args.threads),
            ]
        print(f"== {config.name}")
        rc = cli_main(command)
        if rc != 0:
            failures.append((config.name, rc))
    for name, rc in failures:
        print(f"FAILED ({rc}): {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
