"""Store the outputs the benchmark checks every invocation against.

Run from the repository root:

    python3 perfbench/make_reference.py --seeds 0-19
    python3 perfbench/make_reference.py --scale tiny --seeds 0

For each workload, seed and case it writes the inputs, runs one untraced
serial invocation (--threads 1; results must not depend on the worker
count, so a pool run that differs shows as outputs_identical false),
checks the invariants, and stores the
rows and sha256 of every output file, plus the sha256 of the inputs, in
reference/<workload>.json.gz under the key "<scale>:<seed>:<case>".  Existing
entries for other seeds and scales are kept.  Regenerate an entry only
for a change to the program's results that is intended and named.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import tempfile

import run


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,9")
    parser.add_argument("--scale", choices=tuple(run.WORKLOADS), default="full")
    args = parser.parse_args(argv)
    run._import_portrisk()
    run.WORK_DIR.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in run.WORKLOADS[args.scale].items():
        path = run.REFERENCE_DIR / f"{name}.json.gz"
        stored = {}
        if path.exists():
            with gzip.open(path, "rt") as fh:
                stored = json.load(fh)
        for seed in _seeds(args.seeds):
            where = run.Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK_DIR))
            try:
                for case in range(spec["cases"]):
                    inputs = run.Inputs(spec, seed, case, where)
                    result, outdir, log_path = run.Invoker(where / f"case{case}")(
                        lambda d: inputs.argv(d, threads=1), False)
                    if result is None:
                        print(run._tail(log_path), file=sys.stderr)
                        return 1
                    files = run.snapshot(inputs, outdir)
                    problems = []
                    run._invariants(inputs, {k: v["rows"] for k, v in files.items()},
                                    problems)
                    if problems:
                        print(f"{name} seed {seed} case {case}: {problems}",
                              file=sys.stderr)
                        return 1
                    key = run.reference_key(args.scale, seed, case)
                    stored[key] = {"inputs_sha256": inputs.sha256(), "files": files}
                    print(f"{name} {key} wall {result['wall_s']:.3f} s", flush=True)
            finally:
                shutil.rmtree(where, ignore_errors=True)
        # mtime 0 keeps the file byte-identical when its content is
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(stored, sort_keys=True, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
