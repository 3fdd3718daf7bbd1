"""Digest of every file the CLI pipeline writes, one line per seed.

    python tools/output_digest.py --seeds 0-4
    python tools/output_digest.py --seeds 0 --recall-boost

For each seed it writes ``harness.default_plan(seed)`` (with
``recall_boost`` on if asked) to a temporary directory, runs ``train``,
``evaluate`` and ``sweep`` on it in-process, and prints a SHA-256 over every
output file: name, then content. The three checkpoints are hashed through
``nncore.load_params``: each parameter's name, in sorted order, then its
dtype, shape and bytes. Their checkpoint version and file layout do not
count, so a change of layout that keeps every parameter bit for bit prints
the same line. After the file count it prints the SHA-256 of the plan file
it saved, which is not an output. Two checkouts that print the same lines
wrote the same plan files and the same outputs byte for byte. It imports
``edgecloud`` from the ``src`` directory beside this script and runs BLAS
on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("train", "evaluate", "sweep")


def parse_seeds(text: str) -> list[int]:
    """``"0-4"`` -> [0, 1, 2, 3, 4]; ``"0,3"`` -> [0, 3]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def arrays_digest(h, arrays) -> None:
    """Feed each named array to ``h`` in sorted name order: name, dtype,
    shape, then bytes."""
    for name in sorted(arrays):
        arr = arrays[name]
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())


def file_digest(path: str) -> bytes:
    from edgecloud import cli, nncore
    h = hashlib.sha256()
    if os.path.basename(path) in cli.CHECKPOINT_FILES.values():
        arrays_digest(h, nncore.load_params(path))
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.digest()


def outputs_digest(out_dir: str) -> tuple[str, int]:
    """SHA-256 over the sorted names and content digests of ``out_dir``'s files."""
    names = sorted(os.listdir(out_dir))
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(file_digest(os.path.join(out_dir, name)))
    return h.hexdigest(), len(names)


def run_seed(seed: int, recall_boost: bool) -> tuple[str, int, str]:
    """The outputs digest and file count of one seed, and its plan file's SHA-256."""
    from edgecloud import cli, harness
    plan = dataclasses.replace(harness.default_plan(seed), recall_boost=recall_boost)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "plan.json"), os.path.join(tmp, "out")
        harness.save_plan(config, plan)
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch([command, "--config", config, "--out", out])
            if code != 0:
                raise SystemExit(f"seed {seed}: `{command}` exited {code}")
        return *outputs_digest(out), file_digest(config).hex()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-4", help="master seeds, e.g. 0-4 or 0,3 (default 0-4)")
    parser.add_argument("--recall-boost", action="store_true",
                        help="turn on the plan's recall_boost")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    suffix = " recall_boost" if args.recall_boost else ""
    for seed in parse_seeds(args.seeds):
        digest, files, plan = run_seed(seed, args.recall_boost)
        print(f"seed {seed}{suffix}: {digest} ({files} files) plan {plan}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
