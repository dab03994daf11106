//! Flush and compaction: the two-phase manifest protocol, the job
//! picker, and the background worker loop.
//!
//! Foreground [`super::LsmStore::maintain`] and the background worker
//! call the exact same `run_job` on the exact same state — one disk,
//! one fault surface, one set of retry counters. That symmetry is what
//! the background-vs-foreground fault-accounting regression test
//! pins down.
//!
//! Every job is a two-phase transition against the dual-slot manifest:
//!
//! 1. allocate the output extent, publish **intent** (`pending` lists
//!    the extent);
//! 2. write + force the output run;
//! 3. publish **install** (output run in the hierarchy, inputs
//!    removed, their extents in `retired`, `pending` cleared);
//! 4. reclaim the input extents in the in-memory free map.
//!
//! The install step also records the output run's fences (first key of
//! each frame) in the in-memory [`super::run::FenceCache`] and drops the
//! retired inputs' fences, so reads never have to rediscover them.
//!
//! A crash anywhere leaves one of exactly two durable states: the old
//! hierarchy (with at worst an orphaned `pending` extent that recovery
//! GCs by derivation and never reads) or the new hierarchy (with
//! `retired` inputs that recovery reclaims). The armed
//! [`CrashSite`]s pin a deterministic crash at each interesting step.

use std::sync::Arc;
use std::time::Instant;

use rmdb_obs::EventKind;
use rmdb_storage::StorageError;

use super::codec::LsmEntry;
use super::manifest::{self, Extent, RunDesc};
use super::run;
use super::store::{LsmShared, LsmState};
use super::{CrashSite, LsmError};

/// One maintenance job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Job {
    /// Memtable → new L0 run; bumps the journal generation.
    Flush,
    /// All L0 runs + L1 → new L1 run.
    CompactL0,
    /// `levels[i]` + `levels[i+1]` → new `levels[i+1]` run.
    CompactLevel(usize),
}

/// Decide the next due job, in priority order: journal pressure first
/// (commits stall on it), then L0 fan-in, then level-size overflow.
pub(crate) fn pick_job(st: &LsmState) -> Option<Job> {
    let journal_pressure = st.journal_head * 2 >= st.cfg.journal_frames;
    if (st.flush_requested || journal_pressure || st.mem.len() >= st.cfg.memtable_limit)
        && !st.mem.is_empty()
    {
        return Some(Job::Flush);
    }
    if st.manifest.l0.len() > st.cfg.l0_limit {
        return Some(Job::CompactL0);
    }
    for i in 0..st.manifest.levels.len().saturating_sub(1) {
        if let Some(d) = &st.manifest.levels[i] {
            if d.frames > st.cfg.level_budget(i) {
                return Some(Job::CompactLevel(i));
            }
        }
    }
    None
}

/// Run one job under the store lock.
pub(crate) fn run_job(st: &mut LsmState, job: Job) -> Result<(), LsmError> {
    match job {
        Job::Flush => flush_locked(st),
        Job::CompactL0 | Job::CompactLevel(_) => compact_locked(st, job),
    }
}

/// The background maintenance loop: drain due jobs, then sleep until
/// someone signals `work`. A failed job parks the worker (no retry
/// spin on a dead device) until the next signal; the error is handed
/// to whichever commit or `wait_idle` call observes it first.
pub(crate) fn worker_loop(shared: &Arc<LsmShared>) {
    let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if st.shutdown {
            return;
        }
        match pick_job(&st) {
            Some(job) => match run_job(&mut st, job) {
                Ok(()) => {
                    st.last_maintenance_err = None;
                    shared.idle.notify_all();
                }
                Err(e) => {
                    st.last_maintenance_err = Some(e);
                    shared.idle.notify_all();
                    st = shared.work.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            },
            None => {
                shared.idle.notify_all();
                st = shared.work.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// Trip an armed one-shot crash site: crash the device through the
/// attached fault handle and abort the job as the injected power
/// failure would.
fn trip(st: &mut LsmState, site: CrashSite) -> Result<(), LsmError> {
    if st.crash_site == Some(site) {
        st.crash_site = None;
        if let Some(h) = &st.faults {
            h.lock().crash_now();
        }
        return Err(LsmError::Storage(StorageError::Offline));
    }
    Ok(())
}

/// First-fit extent allocation from the derived free map.
fn allocate(st: &mut LsmState, frames: u64) -> Result<Extent, LsmError> {
    for i in 0..st.free.len() {
        if st.free[i].frames >= frames {
            let ext = Extent {
                start: st.free[i].start,
                frames,
            };
            st.free[i].start += frames;
            st.free[i].frames -= frames;
            if st.free[i].frames == 0 {
                st.free.remove(i);
            }
            return Ok(ext);
        }
    }
    Err(LsmError::Capacity("run arena exhausted"))
}

/// Return an extent to the free map, coalescing neighbours.
fn release(st: &mut LsmState, ext: Extent) {
    if ext.frames == 0 {
        return;
    }
    let mut v = std::mem::take(&mut st.free);
    v.push(ext);
    v.sort_by_key(|e| e.start);
    let mut out: Vec<Extent> = Vec::with_capacity(v.len());
    for e in v {
        match out.last_mut() {
            Some(last) if last.start + last.frames == e.start => last.frames += e.frames,
            _ => out.push(e),
        }
    }
    st.free = out;
}

/// Publish the in-memory manifest as the next version of its slot pair.
/// On failure the version bump is rolled back so the next attempt
/// rewrites the *same* (possibly torn) slot and the other slot — the last
/// valid manifest — is never endangered.
fn publish(st: &mut LsmState) -> Result<(), LsmError> {
    st.manifest.version += 1;
    match manifest::write(&mut st.disk, &st.cfg, &st.manifest) {
        Ok(()) => Ok(()),
        Err(e) => {
            st.manifest.version -= 1;
            Err(e.into())
        }
    }
}

fn refresh_gauges(st: &LsmState) {
    st.metrics.levels_live.set(st.manifest.levels_live());
    st.metrics.l0_runs.set(st.manifest.l0.len() as u64);
    st.metrics.memtable_entries.set(st.mem.len() as u64);
}

/// Memtable → L0 run. The install publish also bumps the journal
/// generation, logically emptying the journal: replay of the old
/// generation's frames is dead the instant the new manifest lands.
fn flush_locked(st: &mut LsmState) -> Result<(), LsmError> {
    st.flush_requested = false;
    if st.mem.is_empty() {
        return Ok(());
    }
    let t0 = Instant::now();
    let entries: Vec<LsmEntry> = st.mem.values().cloned().collect();
    let seq_lo = entries.iter().map(|e| e.seq).min().expect("non-empty");
    let seq_hi = entries.iter().map(|e| e.seq).max().expect("non-empty");
    let chunks =
        run::build_chunks(&entries).ok_or(LsmError::Capacity("entry overflows a run frame"))?;
    let extent = allocate(st, chunks.len() as u64)?;
    st.metrics.emit(
        EventKind::CompactionStarted,
        0,
        0,
        st.manifest.l0.len() as u64,
        0,
    );
    let saved = st.manifest.clone();
    match flush_attempt(st, extent, &entries, &chunks, seq_lo, seq_hi) {
        Ok(()) => {
            // Durably installed. A crash from here on (the
            // post-publish-pre-GC site) loses only volatile state that
            // recovery rederives; it must NOT roll the manifest back.
            let post = trip(st, CrashSite::PostPublishPreGc);
            if post.is_ok() {
                st.mem.clear();
                st.journal_head = 0;
                st.journal_batch = 0;
            }
            st.stats.flushes += 1;
            st.metrics.flushes.inc();
            st.stats.run_frames_written += chunks.len() as u64;
            st.metrics
                .bytes_rewritten
                .add((chunks.len() * rmdb_storage::FRAME_SIZE) as u64);
            let us = t0.elapsed().as_micros() as u64;
            st.metrics.flush_us.record(us);
            st.metrics
                .emit(EventKind::CompactionFinished, 0, 0, chunks.len() as u64, us);
            refresh_gauges(st);
            post
        }
        Err((written, e)) => {
            abort_job(st, saved, extent, 0, written);
            Err(e)
        }
    }
}

/// Restore the pre-job manifest (keeping the published version
/// counter), free the output extent, and account the abort.
fn abort_job(
    st: &mut LsmState,
    saved: manifest::Manifest,
    extent: Extent,
    target_level: u64,
    frames_written: u64,
) {
    let v = st.manifest.version;
    st.manifest = saved;
    st.manifest.version = v;
    release(st, extent);
    st.stats.maintenance_aborts += 1;
    st.metrics.maintenance_aborts.inc();
    st.metrics.emit(
        EventKind::CompactionAborted,
        0,
        target_level,
        0,
        frames_written,
    );
}

type Attempt = Result<(), (u64, LsmError)>;

fn flush_attempt(
    st: &mut LsmState,
    extent: Extent,
    entries: &[LsmEntry],
    chunks: &[Vec<u8>],
    seq_lo: u64,
    seq_hi: u64,
) -> Attempt {
    // Phase 1: intent.
    st.manifest.pending = vec![extent];
    st.manifest.retired.clear();
    publish(st).map_err(|e| (0, e))?;
    // Phase 2: output.
    let mut written = 0u64;
    for (i, chunk) in chunks.iter().enumerate() {
        if i == chunks.len() / 2 {
            trip(st, CrashSite::MidLevelWrite).map_err(|e| (written, e))?;
        }
        run::write_chunk(&mut st.disk, extent.start + i as u64, chunk)
            .map_err(|e| (written, LsmError::Storage(e)))?;
        written += 1;
    }
    st.disk
        .force()
        .map_err(|e| (written, LsmError::Storage(e)))?;
    trip(st, CrashSite::PreManifestPublish).map_err(|e| (written, e))?;
    // Phase 3: install.
    let desc = RunDesc {
        run_id: st.manifest.next_run_id,
        level: 0,
        start: extent.start,
        frames: chunks.len() as u64,
        entries: entries.len() as u64,
        seq_lo,
        seq_hi,
    };
    st.manifest.next_run_id += 1;
    st.manifest.l0.insert(0, desc);
    st.manifest.pending.clear();
    st.manifest.journal_gen += 1;
    st.manifest.next_seq = st.next_seq;
    publish(st).map_err(|e| (written, e))?;
    st.fences.install(&st.manifest, Some((desc.run_id, chunks)));
    Ok(())
}

/// Merge runs down one level. `CompactL0` folds every L0 run plus L1
/// into a new L1 run; `CompactLevel(i)` folds `levels[i]` into
/// `levels[i+1]`. Tombstones are dropped only when the output is the
/// deepest occupied level (nothing below could resurrect the key).
fn compact_locked(st: &mut LsmState, job: Job) -> Result<(), LsmError> {
    let (inputs, out_idx) = match job {
        Job::CompactL0 => {
            let mut v = st.manifest.l0.clone();
            if let Some(d) = st.manifest.levels[0] {
                v.push(d);
            }
            (v, 0usize)
        }
        Job::CompactLevel(i) => {
            let Some(upper) = st.manifest.levels[i] else {
                return Ok(());
            };
            let mut v = vec![upper];
            if let Some(d) = st.manifest.levels[i + 1] {
                v.push(d);
            }
            (v, i + 1)
        }
        Job::Flush => unreachable!("dispatched in run_job"),
    };
    if inputs.is_empty() {
        return Ok(());
    }
    let t0 = Instant::now();
    let target_level = (out_idx + 1) as u64;
    let input_frames: u64 = inputs.iter().map(|d| d.frames).sum();
    st.metrics.emit(
        EventKind::CompactionStarted,
        0,
        target_level,
        inputs.len() as u64,
        input_frames,
    );
    let mut lists = Vec::with_capacity(inputs.len());
    for d in &inputs {
        lists.push(run::read_run(&st.disk, d)?);
    }
    let drop_tombs = st.manifest.levels[out_idx + 1..]
        .iter()
        .all(Option::is_none);
    let merged = run::merge_newest_wins(lists, drop_tombs);

    if merged.is_empty() {
        // Everything annihilated (tombstones at the bottom): a single
        // install publish removes the inputs, no output run at all.
        let saved = st.manifest.clone();
        remove_inputs(st, job, out_idx, None);
        st.manifest.pending.clear();
        st.manifest.retired = inputs.iter().map(RunDesc::extent).collect();
        if let Err(e) = publish(st) {
            let v = st.manifest.version;
            st.manifest = saved;
            st.manifest.version = v;
            st.stats.maintenance_aborts += 1;
            st.metrics.maintenance_aborts.inc();
            st.metrics
                .emit(EventKind::CompactionAborted, 0, target_level, 0, 0);
            return Err(e);
        }
        st.fences.install(&st.manifest, None);
        let post = trip(st, CrashSite::PostPublishPreGc);
        if post.is_ok() {
            for d in &inputs {
                release(st, d.extent());
            }
        }
        finish_compaction(st, t0, target_level, 0);
        return post;
    }

    let seq_lo = merged.iter().map(|e| e.seq).min().expect("non-empty");
    let seq_hi = merged.iter().map(|e| e.seq).max().expect("non-empty");
    let chunks =
        run::build_chunks(&merged).ok_or(LsmError::Capacity("entry overflows a run frame"))?;
    let extent = allocate(st, chunks.len() as u64)?;
    let saved = st.manifest.clone();
    match compact_attempt(
        st, job, out_idx, extent, &inputs, &merged, &chunks, seq_lo, seq_hi,
    ) {
        Ok(()) => {
            // Durably installed; a post-publish crash loses only the
            // in-memory reclaim, which recovery rederives.
            let post = trip(st, CrashSite::PostPublishPreGc);
            if post.is_ok() {
                for d in &inputs {
                    release(st, d.extent());
                }
            }
            st.stats.run_frames_written += chunks.len() as u64;
            finish_compaction(st, t0, target_level, chunks.len() as u64);
            post
        }
        Err((written, e)) => {
            abort_job(st, saved, extent, target_level, written);
            Err(e)
        }
    }
}

fn finish_compaction(st: &mut LsmState, t0: Instant, target_level: u64, out_frames: u64) {
    st.stats.compactions += 1;
    st.metrics.compactions.inc();
    st.metrics
        .bytes_rewritten
        .add(out_frames * rmdb_storage::FRAME_SIZE as u64);
    let us = t0.elapsed().as_micros() as u64;
    st.metrics.compaction_us.record(us);
    st.metrics.emit(
        EventKind::CompactionFinished,
        0,
        target_level,
        out_frames,
        us,
    );
    refresh_gauges(st);
}

/// Drop the job's inputs from the hierarchy and install `output` (if
/// any) at `levels[out_idx]`.
fn remove_inputs(st: &mut LsmState, job: Job, out_idx: usize, output: Option<RunDesc>) {
    match job {
        Job::CompactL0 => st.manifest.l0.clear(),
        Job::CompactLevel(i) => st.manifest.levels[i] = None,
        Job::Flush => unreachable!("dispatched in run_job"),
    }
    st.manifest.levels[out_idx] = output;
}

#[allow(clippy::too_many_arguments)]
fn compact_attempt(
    st: &mut LsmState,
    job: Job,
    out_idx: usize,
    extent: Extent,
    inputs: &[RunDesc],
    merged: &[LsmEntry],
    chunks: &[Vec<u8>],
    seq_lo: u64,
    seq_hi: u64,
) -> Attempt {
    // Phase 1: intent.
    st.manifest.pending = vec![extent];
    st.manifest.retired.clear();
    publish(st).map_err(|e| (0, e))?;
    // Phase 2: output.
    let mut written = 0u64;
    for (i, chunk) in chunks.iter().enumerate() {
        if i == chunks.len() / 2 {
            trip(st, CrashSite::MidLevelWrite).map_err(|e| (written, e))?;
        }
        run::write_chunk(&mut st.disk, extent.start + i as u64, chunk)
            .map_err(|e| (written, LsmError::Storage(e)))?;
        written += 1;
    }
    st.disk
        .force()
        .map_err(|e| (written, LsmError::Storage(e)))?;
    trip(st, CrashSite::PreManifestPublish).map_err(|e| (written, e))?;
    // Phase 3: install.
    let desc = RunDesc {
        run_id: st.manifest.next_run_id,
        level: (out_idx + 1) as u32,
        start: extent.start,
        frames: chunks.len() as u64,
        entries: merged.len() as u64,
        seq_lo,
        seq_hi,
    };
    st.manifest.next_run_id += 1;
    remove_inputs(st, job, out_idx, Some(desc));
    st.manifest.pending.clear();
    st.manifest.retired = inputs.iter().map(RunDesc::extent).collect();
    publish(st).map_err(|e| (written, e))?;
    st.fences.install(&st.manifest, Some((desc.run_id, chunks)));
    Ok(())
}
