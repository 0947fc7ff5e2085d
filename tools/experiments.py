#!/usr/bin/env python3
"""Regenerate the program-output blocks of EXPERIMENTS.md, or check them.

    python3 tools/experiments.py [--build-dir build] [--check]

Every block of EXPERIMENTS.md written as

    <!-- run: examples/zoom_campaign --view fig5 -->
    ...
    <!-- end run -->

is replaced by a fenced copy of the whole standard output of that command,
a path under the build directory plus its arguments. Each command runs
without a shell, in a fresh temporary working directory and with the GC_*
environment variables removed, so the document depends on the program
alone. A command that exits non-zero is an error (exit status 2). With
--check nothing is written: the script prints a unified diff and exits 1
when the committed document differs from what the build prints.
"""
import argparse
import difflib
import os
import re
import shlex
import subprocess
import sys
import tempfile

DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "EXPERIMENTS.md")
RUN_LINE = re.compile(r"^<!-- run: ", re.M)
BLOCK = re.compile(r"^<!-- run: (.+?) -->\n(?:(?!^<!-- run: ).)*?^<!-- end run -->$",
                   re.M | re.S)


def fail(message):
    print(f"experiments: {message}", file=sys.stderr)
    sys.exit(2)


def run(build_dir, command):
    argv = shlex.split(command)
    argv[0] = os.path.join(build_dir, argv[0])
    env = {k: v for k, v in os.environ.items() if not k.startswith("GC_")}
    with tempfile.TemporaryDirectory(prefix="experiments-") as cwd:
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                                  text=True, check=False)
        except OSError as err:
            fail(f"{command}: {err}")
    if proc.returncode != 0:
        fail(f"{command}: exit status {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def regenerate(text, build_dir):
    def block(match):
        command = match.group(1)
        return (f"<!-- run: {command} -->\n```\n{run(build_dir, command)}```\n"
                "<!-- end run -->")

    if len(RUN_LINE.findall(text)) != len(BLOCK.findall(text)):
        fail("every '<!-- run: ... -->' line needs its own '<!-- end run -->'")
    return BLOCK.sub(block, text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding the binaries")
    parser.add_argument("--check", action="store_true",
                        help="diff only; exit 1 if EXPERIMENTS.md is stale")
    args = parser.parse_args()

    with open(DOC, encoding="utf-8") as f:
        old = f.read()
    new = regenerate(old, os.path.abspath(args.build_dir))
    if new == old:
        return 0
    if args.check:
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), new.splitlines(keepends=True),
            "EXPERIMENTS.md (committed)", "EXPERIMENTS.md (this build)"))
        print("EXPERIMENTS.md is stale: run python3 tools/experiments.py",
              file=sys.stderr)
        return 1
    with open(DOC, "w", encoding="utf-8") as f:
        f.write(new)
    print("rewrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
