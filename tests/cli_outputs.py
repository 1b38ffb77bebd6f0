#!/usr/bin/env python3
"""Golden stdout of the ytcdn CLI's log commands (ctest: cli_outputs).

Runs `ytcdn run --scale 0.005 --binary` into a temporary directory, then
`summary`, `sessions` and `analyze` on the EU2 vantage point's YFL2 log and
server->DC map, and compares a 64-bit FNV-1a digest (plus length) of each
command's stdout with the recorded value. The `run` banner names the output
directory, which is replaced by "<out>" before hashing. A deliberate change
to any of these outputs re-records the table below and says so in
EXPERIMENTS.md.

Usage: cli_outputs.py <path-to-ytcdn-binary>
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

# command -> (fnv1a64, byte length) of its stdout.
EXPECTED: dict[str, tuple[int, int]] = {
    "run": (0xAF7811B764131081, 1673),
    "summary": (0xDB4C2B3E6FD694BA, 130),
    "sessions": (0xCF7B9D7DDF9767DE, 233),
    "analyze": (0x668BF3EDFA431B0D, 401),
}


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def stdout_of(binary: str, args: list[str], cwd: str | None = None) -> bytes:
    proc = subprocess.run([binary, *args], cwd=cwd, capture_output=True,
                          check=False, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"ytcdn {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()[:200]}")
    return proc.stdout


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: cli_outputs.py <ytcdn-binary>")
        return 2
    binary = os.path.abspath(sys.argv[1])
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="ytcdn_cli_out_") as tmp:
        out = os.path.join(tmp, "logs")
        log = os.path.join(out, "EU2.yfl")
        dcmap = os.path.join(out, "EU2.dcmap")
        outputs = {
            "run": stdout_of(binary, ["run", "--scale", "0.005", "--binary",
                                      "--out", out]).replace(
                                          out.encode(), b"<out>"),
        }
        # `summary` prints the log path it was given; run it from the
        # output directory so the path is the same on every host.
        outputs["summary"] = stdout_of(binary, ["summary", "EU2.yfl"], cwd=out)
        outputs["sessions"] = stdout_of(binary, ["sessions", log])
        outputs["analyze"] = stdout_of(binary, ["analyze", log, dcmap])

    for name, data in outputs.items():
        got = (fnv1a64(data), len(data))
        want = EXPECTED[name]
        if got == want:
            print(f"  ok: {name} -> {got[0]:#018x} ({got[1]} bytes)")
        else:
            failures.append(name)
            print(f"  FAIL: {name}: got ({got[0]:#018x}, {got[1]}), "
                  f"expected ({want[0]:#018x}, {want[1]})\n"
                  + data.decode(errors="replace"))
    if failures:
        print(f"{len(failures)} failing: {', '.join(failures)}")
        return 1
    print("all CLI outputs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
