"""Run every job of a benchmark workload on two trees and report what differs.

A change that claims "same outputs" is checked here: each job of the
workload (the nprsim command lines perfbench times, built from
perfbench/workloads.py, which this script only reads) runs once against
this tree and once against a base, both on one shared work path, so
paths printed in outputs match.  Every output file, and each job's
stdout, stderr and exit code, are compared byte for byte.

    python3 scripts/diff_outputs.py --base HEAD~1 --workload attack --seeds 0-7
    python3 scripts/diff_outputs.py --base-tree ../other-checkout --workload closed-loop
    python3 scripts/diff_outputs.py --base HEAD~1 --workload all --seeds 0-3

--workload all runs characterize, attack and closed-loop in turn, with a
summary line for each.

--base checks the revision out into a temporary `git worktree`, removed
afterwards; --base-tree uses a directory holding src/nprsim as it is.
Each side runs in its own interpreter, with only that side's src on the
import path.  Exit status: 0 when nothing differs, 1 when something does,
2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tree_child import imported_from, run_in_tree

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    """perfbench/workloads.py, imported without writing its bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _run_jobs(jobs_path: str, results_path: str, src: str) -> int:
    """Child mode: run the jobs in-process with the nprsim found under src."""
    import nprsim.cli as cli

    if not imported_from(cli, src):
        return 2
    results = []
    for job in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(job["argv"]))
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is an outcome to compare
            rc = f"{type(exc).__name__}: {exc}"
        results.append({"id": job["id"], "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")
    return 0


def _files(work: Path) -> dict[str, str]:
    """sha256 of every file under work, by relative path."""
    return {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*")) if path.is_file()
    }


def _run_side(tree: Path, workloads, name: str, seed: int, tiny: bool, scratch: Path):
    """Build the inputs afresh in the shared work path and run every job
    against tree; returns (job results, output file digests)."""
    work = scratch / "work"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(name, work, seed, tiny, ROOT)
    jobs_path = scratch / "jobs.json"
    results_path = scratch / "results.json"
    jobs_path.write_text(json.dumps([{"id": j.id, "argv": j.argv} for j in workload.jobs]),
                         encoding="utf-8")
    proc = run_in_tree(tree, [str(Path(__file__).resolve()), "--run-jobs", str(jobs_path),
                              str(results_path), str(tree / "src")], scratch)
    if proc.returncode != 0:
        raise RuntimeError(f"jobs against {tree} failed to run:\n{proc.stderr}")
    results = json.loads(results_path.read_text(encoding="utf-8"))
    return results, _files(work)


def _differences(base, head) -> list[str]:
    (base_jobs, base_files), (head_jobs, head_files) = base, head
    found = []
    for b, h in zip(base_jobs, head_jobs):
        for key in ("rc", "stdout", "stderr"):
            if b[key] != h[key]:
                found.append(f"job {h['id']}: {key} differs")
    for path in sorted(set(base_files) | set(head_files)):
        if path not in base_files:
            found.append(f"file {path}: only in this tree")
        elif path not in head_files:
            found.append(f"file {path}: only in the base")
        elif base_files[path] != head_files[path]:
            found.append(f"file {path}: differs")
    return found


@contextlib.contextmanager
def _base_tree(args, scratch: Path):
    if args.base_tree is not None:
        yield Path(args.base_tree).resolve()
        return
    tree = scratch / "base"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                    str(tree), args.base], check=True)
    try:
        yield tree
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       check=False)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-jobs"]:
        return _run_jobs(*argv[1:4])
    workloads = _load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--base", help="git revision to compare against")
    which.add_argument("--base-tree", help="checkout (holding src/nprsim) to compare against")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="attack",
                        help="one workload, or all of them in turn (default attack)")
    parser.add_argument("--seeds", default="0", help="e.g. 0-7 or 0,3,5 (default 0)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--scratch", default=None,
                        help="directory for the work path and the base checkout "
                             "(default: a new temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"--seeds expects numbers and ranges, got {args.seeds!r}")
    if args.base_tree is not None and not (Path(args.base_tree) / "src" / "nprsim").is_dir():
        parser.error(f"{args.base_tree} holds no src/nprsim")

    try:
        return _compare(args, workloads, seeds)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"diff_outputs: {exc}", file=sys.stderr)
        return 2


def _compare(args, workloads, seeds: list[int]) -> int:
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    with contextlib.ExitStack() as stack:
        if args.scratch is None:
            scratch = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            scratch = Path(args.scratch).resolve()
            scratch.mkdir(parents=True, exist_ok=True)
        base = stack.enter_context(_base_tree(args, scratch))
        tiny = args.size == "tiny"
        total = sum(_compare_workload(base, workloads, name, seeds, tiny, scratch)
                    for name in names)
    return 1 if total else 0


def _compare_workload(base: Path, workloads, name: str, seeds: list[int], tiny: bool,
                      scratch: Path) -> int:
    """Print what differs on each seed of one workload; returns the count."""
    total = 0
    for seed in seeds:
        base_run = _run_side(base, workloads, name, seed, tiny, scratch)
        head_run = _run_side(ROOT, workloads, name, seed, tiny, scratch)
        found = _differences(base_run, head_run)
        for line in found:
            print(f"seed {seed}: {line}")
        print(f"seed {seed}: {len(head_run[0])} jobs, {len(head_run[1])} files, "
              f"{len(found)} differences")
        total += len(found)
    print(f"{name}: {total} differences over {len(seeds)} seed(s)")
    return total


if __name__ == "__main__":
    sys.exit(main())
