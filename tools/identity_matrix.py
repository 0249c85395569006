#!/usr/bin/env python3
"""Bit-identity matrix: hash the deterministic outputs of whole mbavf runs.

Every entry runs one or more mbavf / mbavf_analyze commands, or one bench
harness or example, at scale 1, hashes what they must reproduce bit for
bit, and compares the hashes with the checked-in golden file
(ci/golden/IDENTITY.json):

  sweep/<workload>     mbavf --structure=S --threads=T --arena-out
                       --manifest for S in {l1, l2, vgpr} and T in
                       {1, 4}; both thread counts must give the one
                       recorded hash of the manifest and of the arena
  designs/<workload>   mbavf --arena-in sweeps of the l1, l2 and vgpr
                       arenas (written at --threads=4) over DESIGNS:
                       every scheme and interleaving style, and
                       --modes from 1 to 64 (wider than a VGPR row)
  campaign/<workload>  seeded uniform register and memory campaigns
  stratified           one seeded stratified campaign
  analyze              one mbavf_analyze run (manifest, stdout and
                       exit status)
  attribution/<workload>
                       mbavf_analyze --threads=4 --top=1000000 runs
                       over ATTRIBUTIONS (manifest, stdout and exit
                       status of each): the whole per-instruction
                       table of three designs
  bench/<name>         one figure, ablation or extension harness, or
                       one example, at its smoke-test arguments in
                       BENCHES (stdout and exit status)

A manifest's deterministic sections are all of it except "phases",
"env" and "build", which hold timings, the thread count and the
compiler. They are hashed as canonical JSON (sorted keys).

Usage:
  identity_matrix.py --bin DIR [--bin DIR ...] [--golden FILE]
                     [--only ENTRY]
  identity_matrix.py --bin DIR [--bin DIR ...] --record

--bin names a directory to look for the binaries in: mbavf and
mbavf_analyze, and for bench/* entries the harness or example itself.
Repeat it to search several directories in order (a build tree keeps
tools/, bench/ and examples/ apart). --only checks a single entry
(ctest runs one entry per test). --record runs every entry and
rewrites the golden file; use it only in a change that says which
results move, and why.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "ci" / "golden" / \
    "IDENTITY.json"

# workloadNames(), in registry order.
WORKLOADS = [
    "minife", "comd", "srad", "hotspot", "pathfinder", "bfs", "kmeans",
    "nw", "lud", "backprop", "scan_large_arrays", "prefix_sum",
    "dwt_haar1d", "fast_walsh", "dct", "histogram", "matrix_transpose",
    "recursive_gaussian", "matmul",
]
STRUCTURES = ["l1", "l2", "vgpr"]
THREADS = [1, 4]
CAMPAIGN_WORKLOADS = ["bfs", "nw", "histogram", "minife"]
# (structure, scheme, style, interleave, modes, windows) of each
# designs/<workload> sweep: perfbench's design grid, then an L2 design
# and the --modes/--windows extremes.
DESIGNS = [
    ("l1", "parity", "way", 2, 8, 8),
    ("l1", "secded", "way", 4, 8, 8),
    ("l1", "dected", "index", 4, 8, 8),
    ("l1", "parity", "logical", 1, 8, 8),
    ("l1", "secded", "index", 2, 8, 8),
    ("vgpr", "parity", "inter", 2, 8, 8),
    ("vgpr", "secded", "intra", 1, 8, 8),
    ("vgpr", "dected", "inter", 4, 8, 8),
    ("l2", "secded", "way", 4, 8, 8),
    ("l1", "parity", "way", 2, 1, 8),
    ("vgpr", "secded", "intra", 1, 40, 3),
    ("l1", "crc", "logical", 1, 64, 0),
]
# (structure, scheme, style, interleave, mode) of each
# attribution/<workload> run: mbavf_analyze's default design (DUE
# shields SDC), VGPR parity with no shield, and an L1 design whose
# corrected regions sit beside detected ones.
ATTRIBUTIONS = [
    ("vgpr", "secded", "inter", 2, 4),
    ("vgpr", "parity", "intra", 1, 8),
    ("l1", "dected", "index", 4, 12),
]
# Arguments of each bench/<name> entry: those of its bench_smoke_* or
# example_* ctest. Harnesses also get --no-manifest: a manifest holds
# timings, and the entry hashes stdout only.
BENCHES = {
    "fig4_due_interleaving": ["--workloads=histogram", "--no-manifest"],
    "fig5_minife_timeseries": ["--windows=4", "--no-manifest"],
    "fig6_fault_modes": ["--workloads=histogram", "--no-manifest"],
    "fig8_sdc_3x1": ["--windows=4", "--no-manifest"],
    "fig9_sdc_large_modes": ["--workloads=histogram", "--no-manifest"],
    "fig10_false_due": ["--workloads=histogram", "--no-manifest"],
    "fig11_vgpr_case_study": ["--workloads=histogram", "--no-manifest"],
    "ablation_ace_locality": ["--workloads=histogram", "--no-manifest"],
    "ablation_fault_geometry": ["--workloads=histogram",
                                "--no-manifest"],
    "ext_l2_avf": ["--workloads=histogram", "--no-manifest"],
    "quickstart": ["--workload=histogram"],
    "protection_explorer": ["--workload=histogram"],
    "injection_study": ["--n=80", "--workload=dct"],
    "chip_ser": ["--workload=histogram"],
}
NONDETERMINISTIC = {"phases", "env", "build"}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def manifest_hash(path):
    doc = json.loads(pathlib.Path(path).read_text())
    kept = {k: v for k, v in doc.items() if k not in NONDETERMINISTIC}
    return sha256(json.dumps(kept, sort_keys=True).encode())


def binary(bindirs, name):
    """Path of the binary name in the first --bin directory holding it."""
    for bindir in bindirs:
        if (bindir / name).exists():
            return bindir / name
    raise SystemExit(f"{name} is in none of: "
                     + ", ".join(map(str, bindirs)))


def run(cmd, ok_codes=(0,)):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode not in ok_codes:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"command failed ({proc.returncode}): "
                         + " ".join(map(str, cmd)))
    return proc.stdout + f"exit {proc.returncode}\n".encode()


def sweep_entry(bindirs, workload, work):
    """One hash pair per structure, identical at every thread count."""
    mbavf = binary(bindirs, "mbavf")
    out = {}
    for structure in STRUCTURES:
        seen = None
        for threads in THREADS:
            arena = work / f"{structure}_{threads}.arena"
            manifest = work / f"{structure}_{threads}.json"
            run([mbavf, f"--workload={workload}",
                 f"--structure={structure}", f"--threads={threads}",
                 f"--arena-out={arena}", f"--manifest={manifest}"])
            got = {"manifest": manifest_hash(manifest),
                   "arena": sha256(arena.read_bytes())}
            if seen is not None and got != seen:
                raise SystemExit(f"sweep/{workload}/{structure}: "
                                 f"--threads={threads} differs from "
                                 f"--threads={THREADS[0]}")
            seen = got
        out[structure] = seen
    return out


def designs_entry(bindirs, workload, work):
    """One manifest hash per DESIGNS sweep of the saved arenas."""
    mbavf = binary(bindirs, "mbavf")
    for structure in STRUCTURES:
        run([mbavf, f"--workload={workload}",
             f"--structure={structure}", "--threads=4",
             f"--arena-out={work / structure}.arena"])
    out = {}
    for structure, scheme, style, il, modes, windows in DESIGNS:
        key = f"{structure}/{scheme}-{style}-{il}/m{modes}w{windows}"
        manifest = work / "design.json"
        run([mbavf, f"--arena-in={work / structure}.arena",
             f"--structure={structure}", f"--scheme={scheme}",
             f"--style={style}", f"--interleave={il}",
             f"--modes={modes}", f"--windows={windows}", "--threads=4",
             f"--manifest={manifest}"])
        out[key] = manifest_hash(manifest)
    return out


def campaign_entry(bindirs, workload, work):
    mbavf = binary(bindirs, "mbavf")
    out = {}
    for kind, seed in (("register", 11), ("memory", 12)):
        manifest = work / f"{kind}.json"
        run([mbavf, "--campaign", f"--workload={workload}",
             f"--kind={kind}", "--trials=300", f"--seed={seed}",
             "--threads=4", f"--manifest={manifest}"])
        out[kind] = manifest_hash(manifest)
    return out


def stratified_entry(bindirs, work):
    manifest = work / "stratified.json"
    run([binary(bindirs, "mbavf"), "--campaign", "--stratify",
         "--workload=minife",
         "--budget=300", "--seed=7", "--threads=4",
         f"--manifest={manifest}"])
    return {"manifest": manifest_hash(manifest)}


def analyze_entry(bindirs, work):
    manifest = work / "analyze.json"
    # lud has findings: exit 2, and the lint passes have work to do.
    stdout = run([binary(bindirs, "mbavf_analyze"), "--workload=lud",
                  "--threads=4", f"--manifest={manifest}"], (0, 2))
    return {"manifest": manifest_hash(manifest), "stdout": sha256(stdout)}


def attribution_entry(bindirs, workload, work):
    """Manifest, stdout and exit status of each ATTRIBUTIONS run."""
    analyze = binary(bindirs, "mbavf_analyze")
    out = {}
    for structure, scheme, style, il, mode in ATTRIBUTIONS:
        key = f"{structure}/{scheme}-{style}-{il}/m{mode}"
        manifest = work / "attribution.json"
        # A run with findings exits 2.
        stdout = run([analyze, f"--workload={workload}",
                      f"--structure={structure}", f"--scheme={scheme}",
                      f"--style={style}", f"--interleave={il}",
                      f"--mode={mode}", "--threads=4", "--top=1000000",
                      f"--manifest={manifest}"], (0, 2))
        out[key] = {"manifest": manifest_hash(manifest),
                    "stdout": sha256(stdout)}
    return out


def bench_entry(bindirs, name):
    """Stdout and exit status of one BENCHES run (exit 1 is a verdict)."""
    stdout = run([binary(bindirs, name)] + BENCHES[name], (0, 1))
    return {"stdout": sha256(stdout)}


def entries():
    names = [f"sweep/{w}" for w in WORKLOADS]
    names += [f"designs/{w}" for w in WORKLOADS]
    names += [f"attribution/{w}" for w in WORKLOADS]
    names += [f"campaign/{w}" for w in CAMPAIGN_WORKLOADS]
    names += [f"bench/{b}" for b in BENCHES]
    return names + ["stratified", "analyze"]


def run_entry(bindirs, name):
    with tempfile.TemporaryDirectory(prefix="mbavf_identity_") as tmp:
        work = pathlib.Path(tmp)
        kind, _, workload = name.partition("/")
        if kind == "sweep" and workload in WORKLOADS:
            return sweep_entry(bindirs, workload, work)
        if kind == "designs" and workload in WORKLOADS:
            return designs_entry(bindirs, workload, work)
        if kind == "attribution" and workload in WORKLOADS:
            return attribution_entry(bindirs, workload, work)
        if kind == "campaign" and workload in CAMPAIGN_WORKLOADS:
            return campaign_entry(bindirs, workload, work)
        if kind == "bench" and workload in BENCHES:
            return bench_entry(bindirs, workload)
        if name == "stratified":
            return stratified_entry(bindirs, work)
        if name == "analyze":
            return analyze_entry(bindirs, work)
    raise SystemExit(f"unknown entry '{name}' (one of: "
                     + ", ".join(entries()) + ")")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--bin", required=True, type=pathlib.Path,
                   action="append")
    p.add_argument("--golden", type=pathlib.Path, default=GOLDEN)
    p.add_argument("--only")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    if args.record:
        if args.only:
            p.error("--record rewrites every entry; drop --only")
        golden = {name: run_entry(args.bin, name) for name in entries()}
        args.golden.write_text(json.dumps(golden, indent=2,
                                          sort_keys=True) + "\n")
        print(f"recorded {len(golden)} entries to {args.golden}")
        return 0

    golden = json.loads(args.golden.read_text())
    failed = 0
    for name in [args.only] if args.only else entries():
        got = run_entry(args.bin, name)
        want = golden.get(name)
        if got == want:
            print(f"ok      {name}")
            continue
        failed += 1
        print(f"DIFFERS {name}\n  want {json.dumps(want, sort_keys=True)}"
              f"\n  got  {json.dumps(got, sort_keys=True)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
