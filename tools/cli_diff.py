"""Check that two source checkouts give byte-identical CLI output.

    python3 tools/cli_diff.py PARENT_DIR CHANGE_DIR --commands tools/cli_commands.txt \
        --out BENCH_15.json

The commands file holds one ``rmfperc`` command line per line, without the
program name; blank lines and lines starting with ``#`` are skipped.
``tools/cli_commands.txt`` is the list kept with the code.  Each line
runs once per checkout as ``python3 -m rmfperc.cli ARGS`` with that
checkout's ``src/`` first on ``PYTHONPATH``, from a fresh empty directory
and with ``RMFPERC_SEED`` unset.  Its digest is a sha256 prefix of stdout,
then ``"\\nexit=N\\n"``, then stderr, then the name and bytes of every file
the command left in its directory (an ``--out`` file), in name order.

The ``cli_diff`` record of ``--out`` maps each command line to its digest,
or to both digests where the checkouts differ, and says whether all were
identical.  An existing ``--out`` file keeps its other fields.  The exit
status is 0 when every command is identical and 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

DIGEST_CHARS = 16


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--commands", type=Path, required=True, help="one command line per line")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def read_commands(path: Path) -> list:
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def digest(checkout: Path, command: str) -> str:
    """Digest of one command line run against ``checkout``'s sources."""
    env = {k: v for k, v in os.environ.items() if k != "RMFPERC_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout.resolve() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-m", "rmfperc.cli", *shlex.split(command)],
            cwd=work, env=env, capture_output=True,
        )
        h = hashlib.sha256(proc.stdout + f"\nexit={proc.returncode}\n".encode() + proc.stderr)
        for path in sorted(Path(work).iterdir()):
            h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()[:DIGEST_CHARS]


def compare(parent: Path, change: Path, commands: list) -> dict:
    """The ``cli_diff`` record of ``commands`` at both checkouts."""
    record = {
        "what": "stdout, exit code, stderr and any --out file of each command, run at both "
                "trees from an empty directory with RMFPERC_SEED unset; sha256 prefix of "
                'stdout + "\\nexit=N\\n" + stderr + (file name, file bytes)',
        "identical": True,
        "commands": {},
    }
    for command in commands:
        before, after = digest(parent, command), digest(change, command)
        if before == after:
            record["commands"][command] = before
        else:
            record["identical"] = False
            record["commands"][command] = {"parent": before, "change": after}
            print(f"differs: {command}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    record = compare(args.parent, args.change, read_commands(args.commands))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["cli_diff"] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if record["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
