#!/usr/bin/env python3
"""Record the reference outputs of the CLI commands of ``cli_prototype``.

Run from the root of a checkout whose outputs are to become the reference:

    python3 perfbench/record_reference.py

Each command runs once as a subprocess; its files are copied to
``perfbench/reference/<command>/``.  The ``export`` command reads the
``netlist.json`` that ``synth`` wrote.  The checked-in reference was
recorded at the commit that introduced the benchmark, before any change
to ``src/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    with workloads.work_dir(ROOT) as work:
        workloads.prepare_cli_dir(work, None)
        for cmd in workloads.COMMANDS:  # synth comes first
            if cmd == "export":
                shutil.copyfile(os.path.join(work, "synth", "netlist.json"),
                                os.path.join(work, "netlist.json"))
            argv, files = workloads.COMMANDS[cmd]
            subprocess.run(
                [sys.executable, "-m", "dohertylab.cli", *argv],
                cwd=os.path.join(work, cmd),
                env=workloads.cli_env(ROOT),
                check=True,
                capture_output=True,
                timeout=120,
            )
            dest = os.path.join(workloads.REFERENCE_DIR, cmd)
            os.makedirs(dest, exist_ok=True)
            for name in files:
                shutil.copyfile(os.path.join(work, cmd, name), os.path.join(dest, name))
            print(f"{cmd}: {', '.join(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
