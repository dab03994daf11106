#!/usr/bin/env bash
# Full verification gate: formatting, build, every test in the workspace,
# a warning-free clippy pass, a docs build with no broken intra-doc links,
# a restart-engine equivalence smoke run
# (K=1 vs K=4 must recover byte-identical state), the concurrent-pipeline
# stress tests, the observability property/conservation suites, and a
# throughput smoke with --obs that must show >= 2x txns/sec at 4 workers
# vs 1, >= 1.5 commits per group-commit batch at 4 workers, AND emit a
# metrics snapshot whose conservation laws balance
# (results land in target/smoke/results/BENCH_throughput.json; every
# smoke writes under the git-ignored target/smoke/results/, never the
# committed results/), plus failover and
# membership-churn smokes whose gates derive from the emitted JSON
# (results/BENCH_failover.json), and a read-mix smoke gating MVCC
# snapshot reads at >= 1.5x locked read throughput with zero consistency
# violations (results/BENCH_readmix.json), and a replay smoke gating
# adaptive command logging and its parallel replay: adaptive log bytes
# <= 0.7x physical on a 90/10 hot-key workload, zero byte-equivalence
# violations across redo worker counts, and identical redo accounting at
# every K with both command re-execution and fragment installs present
# (results/BENCH_replay.json), and a block-device backend gate: the
# backend-parametrized conformance suite (mem/file/nvme), the NVMe
# timing-model property tests, the FileDisk crashpoint sweeps, and a
# scaling-sweep smoke that must cover >= 2 backends x >= 3 worker counts
# with zero conservation violations in every cell plus a byte-identical
# FileDisk recovery audit (results/BENCH_scaling.json), and the leveled
# differential-store gate: a `cargo bench --no-run` compile pass over
# every criterion bench (so bench rot fails CI, not the next person to
# run benches), the LSM named-crash-site + seeded-storm sweeps and the
# basic/optimal strategy-equivalence properties (including the
# frame-boundary fence-read property) in release, and an LSM smoke whose
# JSON gate requires zero basic/optimal equivalence violations, a
# compaction count above zero, a finite write amplification figure, and
# a bounded read fan-in: optimal frames read per point get at most
# l0_limit + max_levels, one frame per run the hierarchy can hold
# (results/BENCH_lsm.json), and beside it, in release, the single-pair
# `DiffDb` gate: its property suite (every query and point get at
# workers 1, 2, 3 and 7 and under both strategies against a
# per-transaction model, and identical scan statistics at every worker
# count) and its crashpoint sweeps, and the packed log-tail
# gate in release: the crashpoint sweep that tears every log write of a
# force-per-commit run through several page fills (tail-slot rewrites and
# home-page writes, MemDisk and FileDisk) without losing an acked commit,
# and the wal property suite, whose LogStream property checks that a scan
# is exactly the durable prefix under appends, forces, truncations,
# crashes and torn writes. It also builds perfbench, the end-to-end
# benchmark: it is a workspace of its own, so neither `cargo build` nor
# `cargo test` compiles it, and a library API change could otherwise
# break the benchmark without failing this gate (the build writes to the
# git-ignored perfbench/target/, and the committed perfbench/Cargo.lock is
# put back after it). It fails if a retry budget constant is defined
# outside rmdb-storage, if non-test code outside rmdb-storage decodes
# a frame itself with `Page::from_frame`, or if a lock table is defined
# outside rmdb-storage. Last, it prints non-test LOC per crate
# (scripts/loc.sh) for the record. A verify run leaves `git status` as
# it found it. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# one retry discipline: the retry budget lives once, in rmdb-storage's
# `Disk` (read_page_retry / write_page_verified); a private copy of it
# anywhere else in the workspace fails here
if grep -rnE 'const (IO_RETRIES|ATTEMPTS)\b' crates --include=*.rs | grep -v '^crates/storage/'; then
    echo "verify: retry budget defined outside crates/storage" >&2
    exit 1
fi
# one decode path: outside rmdb-storage a page is read through the `Disk`
# front (read_page_retry_with and friends), which verifies the frame where
# it lies; a copied frame decoded by hand in non-test code (everything
# before a file's `#[cfg(test)]` module) fails here
hand_decoded=$(find crates src examples perfbench/src -name '*.rs' -not -path 'crates/storage/*' -print0 |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /Page::from_frame/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$hand_decoded" ]; then
    echo "$hand_decoded" >&2
    echo "verify: Page::from_frame used outside crates/storage" >&2
    exit 1
fi
# one transaction table: the page lock table and the transaction table
# live once, in rmdb-storage; a private lock table (a `*Locks` or
# `LockTable` struct) anywhere else in the workspace fails here
if grep -rnE 'struct ([A-Za-z0-9_]*Locks|LockTable)\b' crates src examples --include=*.rs | grep -v '^crates/storage/'; then
    echo "verify: lock table defined outside crates/storage" >&2
    exit 1
fi
cargo build --release
# `cargo build --release` alone builds the root package; the smoke below
# runs the bench binary, so build it explicitly or it can go stale
cargo build --release -p rmdb-bench --bin throughput
cargo build --release -p rmdb-bench --bin restart_ablation
cargo build --release -p rmdb-bench --bin scaling
cargo build --release -p rmdb-bench --bin lsm
# perfbench is its own workspace: build it against the library crates
# here, or a storage/exec API change breaks the benchmark silently. Its
# committed Cargo.lock is stale and the build rewrites it; put the
# committed copy back so verify leaves the tree as it found it
cp perfbench/Cargo.lock target/perfbench.Cargo.lock
cargo build --release --offline --manifest-path perfbench/Cargo.toml || {
    cp target/perfbench.Cargo.lock perfbench/Cargo.lock
    exit 1
}
cp target/perfbench.Cargo.lock perfbench/Cargo.lock
# the root package is a workspace member: one run covers its integration
# tests and every crate's
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# every intra-doc link must resolve: a rename or deletion that leaves a
# dangling [`Item`] behind fails here, not in a reader's browser
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace
# compile every criterion bench without running it: bench targets are not
# covered by `cargo test`/`cargo build`, so struct-literal drift in a bench
# otherwise ships silently and breaks the next perf investigation
cargo bench --no-run
# the exec library is failover-critical: a mutex unwrap that panics while a
# sibling thread holds poisoned state turns one stream's death into a
# pipeline-wide outage. Its lib.rs warns on clippy::unwrap_used in non-test
# code (test modules exempt); -D warnings promotes that to a hard failure
cargo clippy -p rmdb-exec --lib -- -D warnings
cargo test -q --release --test restart_equivalence smoke_k1_vs_k4
cargo test -q --release --test restart_equivalence restart_writes_home_only_the_pages_it_changed
cargo test -q --release --test exec_stress
cargo test -q --release --test obs_properties
cargo test -q --release --test fault_sweep recovery_obs_counters_match_report_at_every_crashpoint
cargo test -q --release --test fault_sweep mixed_logical_physical_log_recovers_at_every_crashpoint
# backend gate: every backend behind the Disk front must present the same
# storage contract (conformance), the NVMe timing model must obey its laws
# (conservation / bounded latency / determinism), and the crash-recovery
# oracle must hold on a real file with fsync, not just the in-memory model
cargo test -q --release --test backend_conformance
cargo test -q --release --test nvme_model_properties
cargo test -q --release --test fault_sweep filedisk
# leveled differential-store gate: named-crash-site sweeps (flush and
# compaction tripped at pre-publish / mid-write / post-publish-pre-GC on
# both backends, foreground and background thread), the seeded crashpoint
# storms, background-vs-foreground fault accounting parity, and the
# basic/optimal strategy-equivalence properties over multi-level stores
cargo test -q --release --test fault_sweep lsm_
cargo test -q --release --test lsm_properties
# single-pair differential file: one scan answers query, get and merge;
# the model oracle and the statistics property hold at every worker
# count, and the crashpoint sweeps lose no acked key
cargo test -q --release --test difffile_properties
cargo test -q --release --test fault_sweep difffile_
# packed log tail: a forced partial log page is rewritten through two
# ping-pong tail slots; no torn write may cost an acked record
cargo test -q --release --test fault_sweep log_tail_
cargo test -q --release --test wal_properties

# The smoke binaries write their JSON to results/ under the working
# directory. Run them, and the gates that read that JSON, from the
# git-ignored target/smoke, so the committed results/BENCH_*.json files
# are never rewritten by a verify run
bin="$PWD/target/release"
mkdir -p target/smoke/results
cd target/smoke
"$bin/throughput" --smoke --obs --json > results/BENCH_throughput.json
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_throughput.json"))
cells = doc["cells"]
rate = {c["workers"]: c["txns_per_sec"] for c in cells}
ratio = rate[4] / rate[1]
print(f"throughput smoke: 1w={rate[1]:.0f} 4w={rate[4]:.0f} txns/s ({ratio:.2f}x)")
assert ratio >= 2.0, f"group commit scaling regressed: {ratio:.2f}x < 2x"
# the timerless daemon must still share forces: under the modeled force,
# commits that queue behind one force join the next batch
four = next(c for c in cells if c["workers"] == 4)
per_group = four["txns"] / four["group_commits"]
print(f"throughput smoke: 4w {per_group:.2f} commits per group")
assert per_group >= 1.5, f"group commit stopped grouping: {per_group:.2f} < 1.5 commits per group at 4w"

# obs smoke gate: the snapshot must parse, its core counters must be
# non-zero, and the double-entry conservation laws must balance
m = doc["metrics"]
c, g, h = m["counters"], m["gauges"], m["histograms"]
acked, done = c["txn.commits_acked"], c["group.completions"]
assert acked > 0 and acked == done, f"commit acks {acked} != completions {done}"
enq = sum(v for k, v in c.items() if k.startswith("wal.fragments_enqueued."))
app = sum(v for k, v in c.items() if k.startswith("wal.fragments_appended."))
assert enq > 0 and enq == app, f"fragments enqueued {enq} != appended {app}"
forces = sum(v for k, v in c.items() if k.startswith("wal.forces."))
assert forces > 0, "no log forces recorded"
assert g["pool.lookups"] > 0 and g["pool.hits"] + g["pool.misses"] == g["pool.lookups"], \
    "pool hit/miss split does not tile lookups"
commit_h = h["txn.commit_us"]
assert commit_h["count"] > 0 and commit_h["p99"] >= commit_h["p50"] > 0, \
    "commit latency histogram empty or non-monotone"
force_h = [v for k, v in h.items() if k.startswith("wal.force_us.")]
assert force_h and all(x["count"] > 0 and x["p95"] > 0 for x in force_h), \
    "force latency histograms missing or empty"
print(f"obs smoke: acked={acked} fragments={enq} forces={forces} "
      f"commit p50/p95/p99={commit_h['p50']}/{commit_h['p95']}/{commit_h['p99']}us")
EOF

# failover smoke: kill log stream 1 mid-run; the fleet must reroute (the
# long-transaction probe makes >= 1 reroute deterministic), keep committing
# on the survivors, and lose zero acked commits against a recovered image
# (the binary itself exits non-zero on acked loss or a silent fleet).
# Expectations are derived from the emitted JSON (survivors = streams - 1),
# not hardcoded to a fleet size.
"$bin/throughput" --kill-stream 1@300 --secs 0.6 --json > /dev/null
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_failover.json"))
assert doc["failover"]["reroutes"] > 0, "failover smoke: no fragment reroutes recorded"
assert doc["failover"]["quarantined"] > 0, "failover smoke: victim never quarantined"
assert doc["commits_after_failover"] > 0, "failover smoke: fleet stopped committing after the kill"
assert doc["lost_acked_commits"] == 0, f"failover smoke: {doc['lost_acked_commits']} acked commits lost"
want = doc["streams"] - 1
assert doc["live_streams_after"] == want, \
    f"failover smoke: expected {want} survivors, got {doc['live_streams_after']}"
phases = {p["phase"]: p for p in doc["phases"]}
print(f"failover smoke: detect={doc['detect_ms']}ms reroutes={doc['failover']['reroutes']} "
      f"p99 before/during/after={phases['before']['p99_us']}/{phases['during']['p99_us']}"
      f"/{phases['after']['p99_us']}us commits_after={doc['commits_after_failover']}")
EOF

# membership-churn smoke: kill stream 1, heal the device and rejoin it
# mid-run. The full fleet must be serving again (no degraded latch), zero
# acked commits lost across kill AND rejoin, and post-rejoin throughput
# within 10% of the pre-kill baseline. The churn row lands in
# results/BENCH_failover.json for the records.
"$bin/throughput" --kill-stream 1@300 --rejoin-at 700 --secs 1.2 --json > /dev/null
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_failover.json"))
assert doc["rejoins"] >= 1, "churn smoke: stream never rejoined"
assert doc["live_streams_after"] == doc["streams"], \
    f"churn smoke: fleet not restored ({doc['live_streams_after']}/{doc['streams']} live)"
assert not doc["degraded"], "churn smoke: degraded latch stuck after rejoin"
assert doc["lost_acked_commits"] == 0, f"churn smoke: {doc['lost_acked_commits']} acked commits lost"
churn = doc["churn"]
assert churn and churn["rejoined_at_ms"] is not None, "churn smoke: no churn row emitted"
ratio = churn["tps_after_rejoin"] / churn["tps_before"]
assert ratio >= 0.9, \
    f"churn smoke: post-rejoin throughput {churn['tps_after_rejoin']:.0f} tps is " \
    f"{ratio:.2f}x the pre-kill {churn['tps_before']:.0f} tps (< 0.9x)"
print(f"churn smoke: rejoined at {churn['rejoined_at_ms']}ms, tps "
      f"before/outage/after-rejoin={churn['tps_before']:.0f}/{churn['tps_outage']:.0f}"
      f"/{churn['tps_after_rejoin']:.0f} ({ratio:.2f}x baseline)")
EOF
# read-mix smoke: run the same read-heavy bank workload through MVCC
# snapshot reads and through the lock table. Snapshot reads must deliver
# >= 1.5x the locked read throughput at a 95/5 mix with zero consistency
# violations and zero errors on either path (the binary itself exits
# non-zero on a violation). Rows + speedups land in
# results/BENCH_readmix.json.
"$bin/throughput" --read-pct 95,99 --json > /dev/null
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_readmix.json"))
assert doc["violations"] == 0, f"readmix smoke: {doc['violations']} consistency violations"
rows = {(r["mode"], r["read_pct"]): r for r in doc["rows"]}
for (mode, pct), r in rows.items():
    assert r["errors"] == 0, f"readmix smoke: {mode}@{pct} had {r['errors']} errors"
    assert r["reads"] > 0 and r["writes"] > 0, f"readmix smoke: {mode}@{pct} cell is empty"
speedup = doc["read_speedup"]["95"]
assert speedup >= 1.5, \
    f"readmix smoke: snapshot reads only {speedup:.2f}x locked at 95/5 (< 1.5x)"
mvcc95, lock95 = rows[("mvcc", 95)], rows[("locked", 95)]
print(f"readmix smoke: 95/5 read tps mvcc={mvcc95['read_tps']:.0f} "
      f"locked={lock95['read_tps']:.0f} ({speedup:.2f}x), read p99 "
      f"{mvcc95['read_p99_us']}us vs {lock95['read_p99_us']}us, "
      f"99/1 speedup {doc['read_speedup']['99']:.2f}x")
EOF

# replay smoke: adaptive command/logical logging + page-sharded parallel
# replay. Gates: (1) adaptive logging shrinks the log to <= 0.7x the physical
# after-image bytes on a 90/10 hot-key counter workload; (2) recovered disks
# of one mixed command/physical log are byte-identical for every K in
# {1,2,4,8} (zero equivalence violations); (3) the redo accounting is the
# same at every K, and that log really is mixed: some command ops were
# re-executed and some fragments installed (redone units count both);
# (4) the durable finish writes the same number of pages at every K, never
# more than redo replayed.
"$bin/restart_ablation" --replay-json results/BENCH_replay.json
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_replay.json"))
hot = doc["hotkey"]
ratio = hot["adaptive_vs_physical"]
assert ratio <= 0.7, \
    f"replay smoke: adaptive log bytes {ratio:.2f}x physical (> 0.7x) on hot-key"
sc = doc["scaling"]
assert sc["equivalence_violations"] == 0, \
    f"replay smoke: {sc['equivalence_violations']} byte-equivalence violations across K"
cells = {c["workers"]: c for c in sc["cells"]}
base = cells[1]
for k, c in cells.items():
    assert (c["reexecuted_ops"], c["redone_updates"]) \
        == (base["reexecuted_ops"], base["redone_updates"]), \
        f"replay smoke: K={k} redo accounting differs from K=1"
    assert c["pages_written"] == base["pages_written"], \
        f"replay smoke: K={k} wrote {c['pages_written']} pages, K=1 wrote {base['pages_written']}"
    assert c["pages_written"] <= c["pages_replayed"], \
        f"replay smoke: K={k} wrote {c['pages_written']} of {c['pages_replayed']} pages replayed"
installs = base["redone_updates"] - base["reexecuted_ops"]
assert base["reexecuted_ops"] > 0 and installs > 0, \
    f"replay smoke: log not mixed: {base['reexecuted_ops']} re-executed ops, " \
    f"{installs} fragment installs"
walls = ", ".join(f"K={k} {c['wall_redo_us']}us" for k, c in sorted(cells.items()))
print(f"replay smoke: adaptive={hot['adaptive_bytes']}B vs physical="
      f"{hot['physical_bytes']}B ({ratio:.2f}x), redo {base['reexecuted_ops']} "
      f"re-executed + {installs} installed and {base['pages_written']} of "
      f"{base['pages_replayed']} replayed pages written at every K, wall redo {walls} "
      f"on {sc['host_cores']} cores, violations=0")
EOF
# scaling smoke: high-concurrency sweep over the pluggable block-device
# backends. The binary itself exits non-zero on any conservation violation
# or a non-identical FileDisk recovery; the gate below re-derives both from
# the emitted JSON and additionally requires the sweep to have actually
# covered >= 2 backends x >= 3 worker counts (so a silently shrunk sweep
# cannot pass) with every cell committing work and probing conservation.
"$bin/scaling" --smoke --json > /dev/null
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_scaling.json"))
cells = doc["cells"]
backends = sorted({c["backend"] for c in cells})
workers = sorted({c["workers"] for c in cells})
assert len(backends) >= 2, f"scaling smoke: only {backends} backends swept (< 2)"
assert len(workers) >= 3, f"scaling smoke: only {workers} worker counts swept (< 3)"
for c in cells:
    key = f"{c['backend']}/{c['workers']}w/{c['streams']}s"
    assert c["txns"] > 0, f"scaling smoke: cell {key} committed nothing"
    assert c["conservation_reads"] > 0, f"scaling smoke: cell {key} never probed conservation"
    assert c["conservation_violations"] == 0, \
        f"scaling smoke: {c['conservation_violations']} conservation violations in {key}"
    assert c["commit_p99_us"] >= c["commit_p50_us"] > 0, \
        f"scaling smoke: cell {key} latency percentiles empty or non-monotone"
rec = doc["filedisk_recovery"]
assert rec["identical"] and len(rec["runs"]) >= 3 and \
    all(r["identical"] for r in rec["runs"]), \
    f"scaling smoke: FileDisk recovery not byte-identical: {rec}"
peak = max(cells, key=lambda c: c["txns_per_sec"])
print(f"scaling smoke: {len(cells)} cells over {backends} x workers={workers}, "
      f"peak {peak['txns_per_sec']:.0f} txns/s ({peak['backend']}@{peak['workers']}w), "
      f"0 violations, filedisk recovery identical across {len(rec['runs'])} seeds")
EOF

# LSM smoke: drive the leveled differential store through enough commits
# to flush AND compact, then gate on the emitted JSON: zero basic/optimal
# equivalence violations (the binary also exits non-zero on any), every
# cell must have actually compacted (a run that never compacted measured
# nothing), write amplification must be present and sane, and the fence
# index must hold an optimal get to one frame per live run.
"$bin/lsm" --smoke --json > /dev/null
python3 - <<'EOF'
import json
doc = json.load(open("results/BENCH_lsm.json"))
assert doc["equivalence_violations"] == 0, \
    f"lsm smoke: {doc['equivalence_violations']} basic/optimal equivalence violations"
for c in doc["cells"]:
    name = c["name"]
    assert c["equivalence_violations"] == 0, \
        f"lsm smoke: cell {name} has scan equivalence violations"
    assert c["flushes"] > 0, f"lsm smoke: cell {name} never flushed"
    assert c["compactions"] > 0, f"lsm smoke: cell {name} never compacted"
    assert c["user_bytes"] > 0 and c["frames_written"] > 0, \
        f"lsm smoke: cell {name} committed nothing"
    wa = c["write_amplification"]
    assert wa > 0 and wa == wa and wa != float("inf"), \
        f"lsm smoke: cell {name} write amplification {wa} not a finite positive"
    assert c["basic_scans_per_sec"] > 0 and c["optimal_scans_per_sec"] > 0, \
        f"lsm smoke: cell {name} scan rates empty"
    fan_in = doc["l0_limit"] + doc["max_levels"]
    assert 0 < c["frames_per_get"] <= fan_in, \
        f"lsm smoke: cell {name} reads {c['frames_per_get']} frames per get, " \
        f"bound {fan_in}"
    assert c["frames_per_range"] <= c["live_run_frames"], \
        f"lsm smoke: cell {name} range reads exceed the live run frames"
c = doc["cells"][0]
print(f"lsm smoke: WA {c['write_amplification']:.2f} "
      f"({c['frames_written']} frames / {c['user_bytes']} user bytes), "
      f"{c['flushes']} flushes, {c['compactions']} compactions, "
      f"L0 {c['l0_runs']} + {c['levels_live']} levels, "
      f"basic {c['basic_scans_per_sec']:.0f}/s vs optimal "
      f"{c['optimal_scans_per_sec']:.0f}/s, 0 equivalence violations; "
      + ", ".join(f"{c['name']} {c['frames_per_get']:.2f} frames/get"
                  for c in doc["cells"]))
EOF
cd ../..
# informational, not a gate: non-test Rust LOC per crate, the count that
# "non-test LOC goes down" means in ROADMAP.md
./scripts/loc.sh
echo "verify: OK"
