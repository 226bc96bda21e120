"""Byte-identity check of the working tree against a git revision.

    python tools/identity.py --against <git rev>

Builds the revision from ``git archive`` into a temporary directory, then
runs two CLI pipelines with each tree's ``src`` at FLATTRACK_THREADS 1, 2
and 4, each command in a fresh interpreter with BLAS pinned to one thread:

- the criterion 9 pipeline of the acceptance suite (3x3 grid, 32x32
  frames, 16x16 PSF, 2 subjects x 2 rounds, 2 epochs);
- a chain the size of the benchmark's cli-chain (6x6 grid, 128x128
  frames, 2 subjects x 3 rounds, 5 epochs, ``eval --psf``).

Each pipeline also writes the grid's angular layout with ``grid-stats``,
and ends with ``compare-lensed`` on its scenes, which trains on the clean
scenes and on their simulated reconstructions.

It prints every artifact whose sha256 differs between the two trees, with a
diff when both sides are text. It also compares the working tree with
itself, its runs at 2 and 4 workers against its run at 1, so a change whose
artifacts differ from the revision on purpose still shows that they do not
depend on the worker count. It exits 1 on any difference of either kind, 0
when every artifact is identical. Files named ``latency.csv`` hold timings
and are left out. Both trees run on the same machine, so no stored hash is
needed.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = ("1", "2", "4")
TIMING_FILES = ("latency.csv",)

# Only the keys that differ from the defaults, so both trees read the file.
PIPELINES = {
    "criterion9": {
        "seed": 555, "grid.rows": 3, "grid.cols": 3,
        "grid.spacing_x_px": 200.0, "grid.spacing_y_px": 150.0,
        "grid.origin_x_px": 760.0, "grid.origin_y_px": 390.0,
        "render.image_h": 32, "render.image_w": 32,
        "render.camera_scale_px_per_mm": 1.0,
        "render.light_x_px": 15.5, "render.light_y_px": 15.5,
        "dataset.subjects": 2, "dataset.rounds": 2,
        "optics.psf_h": 16, "optics.psf_w": 16,
        "train.epochs": 2, "train.batch_size": 8,
    },
    # The 6x6 grid spans the default 15x15 grid's extent.
    "cli-chain": {
        "seed": 3, "grid.rows": 6, "grid.cols": 6,
        "grid.spacing_x_px": 121.3 * 14 / 5, "grid.spacing_y_px": 66.3 * 14 / 5,
        "dataset.subjects": 2, "dataset.rounds": 3,
        "train.epochs": 5, "train.lr": 1e-3,
    },
}


def steps(cfg: str, out: str, eval_psf: bool) -> list[list[str]]:
    d = {k: os.path.join(out, k) for k in ("scenes", "meas", "recon", "models", "eval")}
    psf = os.path.join(out, "psf.fltimg")
    return [
        ["gen-psf", "--config", cfg, "--out", psf],
        ["grid-stats", "--config", cfg, "--out", os.path.join(out, "grid_stats.csv")],
        ["render-dataset", "--config", cfg, "--out", d["scenes"]],
        ["simulate", "--in", d["scenes"], "--psf", psf, "--out", d["meas"]],
        ["reconstruct", "--in", d["meas"], "--psf", psf, "--out", d["recon"]],
        ["train", "--in", d["recon"], "--out", d["models"]],
        ["eval", "--in", d["recon"], "--models", d["models"], "--out", d["eval"]]
        + (["--psf", psf] if eval_psf else []),
        ["grid-report", "--in", os.path.join(d["eval"], "per_point.csv"),
         "--out", os.path.join(d["eval"], "map.svg")],
        ["compare-lensed", "--in", d["scenes"], "--psf", psf,
         "--out", os.path.join(out, "compare_lensed.csv")],
    ]


def child_env(src: str, threads: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=src, FLATTRACK_THREADS=threads,
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def check_import(src: str) -> None:
    """Stop unless a child process imports flattrack from ``src``."""
    where = subprocess.run(
        [sys.executable, "-c", "import flattrack; print(flattrack.__file__)"],
        env=child_env(src, "1"), cwd=src, capture_output=True, text=True,
        check=True).stdout.strip()
    if not os.path.abspath(where).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"flattrack imported from {where}, not from {src}")


def run_pipeline(src: str, name: str, threads: str, work: str) -> dict[str, tuple[str, str]]:
    """Run one pipeline with the package under ``src``;
    {relative path: (sha256, path)} of its artifacts."""
    out = os.path.join(work, f"{name}-{threads}")
    os.makedirs(out)
    cfg = os.path.join(out, "exp.cfg")
    with open(cfg, "w") as f:
        f.writelines(f"{k} = {v!r}\n" for k, v in PIPELINES[name].items())
    env = child_env(src, threads)
    for argv in steps(cfg, out, eval_psf=name == "cli-chain"):
        proc = subprocess.run([sys.executable, "-m", "flattrack.cli", *argv],
                              env=env, cwd=out, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{src}: {argv[0]} exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
    files = {}
    for dirpath, _, names in os.walk(out):
        for fname in names:
            if fname not in TIMING_FILES:
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                files[os.path.relpath(path, out)] = digest, path
    return files


def export(rev: str, dest: str) -> None:
    """The files of ``rev`` under ``dest``, as ``git archive`` gives them."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def text_diff(a: str, b: str, name: str) -> list[str]:
    """The changed lines of two text files, or [] if either is not text."""
    try:
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            old, new = fa.read(), fb.read()
    except UnicodeDecodeError:
        return []
    return list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                     f"against/{name}", f"tree/{name}",
                                     n=0, lineterm=""))[2:]


def compare(title: str, a: dict, b: dict, names: tuple[str, str]) -> tuple[int, int]:
    """Print the artifacts of run ``b`` whose sha256 differs from run
    ``a``'s; (identical, differing) counts."""
    differ = sorted(k for k in a.keys() | b.keys()
                    if k not in a or k not in b or a[k][0] != b[k][0])
    print(f"{title}: {len(a)} artifacts against {len(b)}, {len(differ)} differ")
    for rel in differ:
        if rel not in a or rel not in b:
            print(f"  DIFFERS {rel}: only in {names[1] if rel in b else names[0]}")
            continue
        print(f"  DIFFERS {rel}: sha256 {a[rel][0][:16]} -> {b[rel][0][:16]}")
        for line in text_diff(a[rel][1], b[rel][1], rel)[:20]:
            print(f"    {line}")
    return len(a.keys() | b.keys()) - len(differ), len(differ)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="git revision to compare with")
    args = ap.parse_args(argv)
    n_same = n_diff = n_self_same = n_self_diff = 0
    with tempfile.TemporaryDirectory(prefix="flattrack-identity-") as tmp:
        export(args.against, os.path.join(tmp, "against"))
        trees = {"against": os.path.join(tmp, "against", "src"),
                 "tree": os.path.join(ROOT, "src")}
        for src in trees.values():
            check_import(src)
        for name in PIPELINES:
            tree_runs = {}
            for threads in THREADS:
                got = {side: run_pipeline(src, name, threads, os.path.join(tmp, side))
                       for side, src in trees.items()}
                tree_runs[threads] = got["tree"]
                same, diff = compare(f"{name}, FLATTRACK_THREADS={threads}",
                                     got["against"], got["tree"], ("against", "tree"))
                n_same, n_diff = n_same + same, n_diff + diff
            for threads in THREADS[1:]:
                same, diff = compare(
                    f"{name}, tree at FLATTRACK_THREADS={threads} against {THREADS[0]}",
                    tree_runs[THREADS[0]], tree_runs[threads],
                    (f"{THREADS[0]} workers", f"{threads} workers"))
                n_self_same, n_self_diff = n_self_same + same, n_self_diff + diff
    print(f"tree against {args.against}: {n_same} identical, {n_diff} differing; "
          f"tree across FLATTRACK_THREADS: {n_self_same} identical, "
          f"{n_self_diff} differing (timing files excluded: {', '.join(TIMING_FILES)})")
    return 1 if n_diff or n_self_diff else 0


if __name__ == "__main__":
    sys.exit(main())
