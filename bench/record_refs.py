#!/usr/bin/env python3
"""Record reference sha256(hyps.tsv) of the saturated workload per seed.

The blank workloads need no table: their reference transcript is empty
for every seed. Each recorded decode must already have the saturated
regime's transcript length. Run from the root of a checkout:

    python3 bench/record_refs.py 0 64    # seeds 0..63
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.SRC))
    refs = run.load_references()
    for wl in run.WORKLOADS.values():
        if wl.chars_per_utt == 0:
            continue
        table = refs.setdefault(wl.name, {})
        for seed in range(lo, hi):
            run.WORK.mkdir(parents=True, exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.WORK))
            try:
                inputs = run.build_inputs(wl, seed, workdir)
                out = workdir / "hyps.tsv"
                proc = run.run_process(run.decode_argv(wl, inputs, out), workdir)
                bad, sha = run.check_decode(wl, proc, out, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if bad:
                print(f"{wl.name} seed {seed}: regime check failed for {bad}",
                      file=sys.stderr)
                return 1
            table[str(seed)] = sha
            print(f"{wl.name} seed {seed}: {sha}", flush=True)
        refs[wl.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
