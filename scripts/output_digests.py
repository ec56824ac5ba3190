#!/usr/bin/env python3
"""Print the exit code and stdout sha256 of fixed CLI calls on every graph.

For the i-th `*.dmc` file of DIR in sorted order, with seed N + i, the
script runs `arborpack.cli.main` in-process on `hierarchy`,
`mincut --verbose`, `mincut --exact`, `pack --k 2` and `pack --k 3`, and
then `pack --k λ` and `pack --k λ+1`, with λ the value that
`mincut --exact` printed (these two are left out when it exits nonzero).
The stdout of each of these calls is written to a temporary file, and
`verify` runs on it and the graph; its entry is keyed `verify (<call>)`.
It prints one JSON object with sorted keys that maps each call (its
argv, with the graph given by file name) to its exit code and the sha256
of its stdout; a call that repeats an earlier argv has one entry. Two
checkouts print the same object exactly when every call gives the same
output, so a change that claims byte-identical output can be checked
with `diff`.

Example:
    PYTHONPATH=src python scripts/output_digests.py graphs/ > new.json
    PYTHONPATH=../parent/src python scripts/output_digests.py graphs/ > old.json
    diff old.json new.json
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from arborpack.cli import main as cli_main

CALLS = (
    ("hierarchy",),
    ("mincut", "--verbose"),
    ("mincut", "--exact"),
    ("pack", "--k", "2"),
    ("pack", "--k", "3"),
)


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def entry(code: int, stdout: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def digests(directory: Path, seed_base: int) -> dict:
    """`{argv: {"exit": code, "sha256": hex}}` over the graphs of
    `directory`, as the module docstring describes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "result.json"
        for i, path in enumerate(sorted(directory.glob("*.dmc"))):
            seed = str(seed_base + i)
            calls = list(CALLS)
            while calls:
                command, *flags = calls.pop(0)
                code, stdout = run([command, str(path), *flags, "--seed", seed])
                key = " ".join([command, path.name, *flags, "--seed", seed])
                out[key] = entry(code, stdout)
                result.write_text(stdout)
                out[f"verify ({key})"] = entry(*run(["verify", str(result), str(path)]))
                if flags == ["--exact"] and code == 0:
                    lam = json.loads(stdout)["value"]
                    calls += [("pack", "--k", str(k)) for k in (lam, lam + 1)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="directory of .dmc graph files")
    parser.add_argument("--seed-base", type=int, default=1000,
                        help="seed of the first graph; the i-th gets N + i (default 1000)")
    args = parser.parse_args()
    if not any(args.dir.glob("*.dmc")):
        print(f"output_digests.py: error: no .dmc files under {args.dir}", file=sys.stderr)
        return 2
    print(json.dumps(digests(args.dir, args.seed_base), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
