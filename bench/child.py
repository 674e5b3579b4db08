"""Work done in a fresh interpreter, so that start-up cost and peak memory
belong to that work alone.

    python3 child.py setup          import duostego and load the lexicon
    python3 child.py cli ARGS...    run one `duostego` command through cli.main

The `cli` form prints one JSON line: the exit code, the command's stdout
and the process's own VmHWM from /proc/self/status. VmHWM is read here,
by the process itself, because `ru_maxrss` of a child forked from a large
parent inherits the parent's high-water mark across exec.
"""

import contextlib
import io
import json
import sys


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        import duostego

        duostego.load_default_lexicon()
        return 0
    if argv[:1] == ["cli"]:
        from duostego import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv[1:])
        print(json.dumps({"exit": code, "stdout": out.getvalue(), "hwm_mb": vm_hwm_mb()}))
        return 0
    print(f"usage: {sys.argv[0]} setup | cli ARGS...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
