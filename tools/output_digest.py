"""Digest of every file the CLI pipeline writes, one line per seed.

    python tools/output_digest.py --seeds 0-4
    python tools/output_digest.py --seeds 0 --recall-boost

For each seed it writes ``harness.default_plan(seed)`` (with
``recall_boost`` on if asked) to a temporary directory, runs ``gen-data``,
``train``, ``evaluate`` and ``sweep`` on it in-process, and prints a SHA-256
over every output file: name, then content. A ``.npz`` file is hashed by
member name, dtype, shape and array bytes, so the zip timestamps inside it
do not count. Two checkouts that print the same lines wrote the same
outputs byte for byte. It imports ``edgecloud`` from the ``src`` directory
beside this script and runs BLAS on one thread.
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
COMMANDS = ("gen-data", "train", "evaluate", "sweep")


def parse_seeds(text: str) -> list[int]:
    """``"0-4"`` -> [0, 1, 2, 3, 4]; ``"0,3"`` -> [0, 3]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def file_digest(path: str) -> bytes:
    import numpy as np
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with np.load(path) as z:
            for name in sorted(z.files):
                arr = z[name]
                h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
                h.update(arr.tobytes())
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


def run_seed(seed: int, recall_boost: bool) -> tuple[str, int]:
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
        return outputs_digest(out)


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
        digest, files = run_seed(seed, args.recall_boost)
        print(f"seed {seed}{suffix}: {digest} ({files} files)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
