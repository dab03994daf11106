//! The failover supervisor: one thread health-checking the log-processor
//! fleet.
//!
//! The paper's recovery architectures assume a component that *notices*
//! a failed log processor; this is it. Every
//! [`ExecConfig::health_interval_us`](crate::ExecConfig) the supervisor
//! probes each live appender ([`crate::LogAppender::probe`]) and renders
//! a verdict:
//!
//! * a **sticky storage error** — the stream's device failed after the
//!   appender's own bounded retries → quarantine as *persistent*;
//! * a **dead thread** (`!alive`) — panic or channel collapse →
//!   quarantine as *thread death* (the panic payload, if any, surfaces
//!   through [`crate::LogAppender::shutdown`]);
//! * a **wedged thread** — the heartbeat has not advanced for
//!   [`ExecConfig::force_deadline_ms`](crate::ExecConfig) → quarantine
//!   as *stalled*. A healthy appender bumps its heartbeat every loop
//!   iteration *including idle ticks* (it wakes from its channel wait
//!   every few milliseconds), per batched request, after every force,
//!   and through each slice of the modeled device delay — so a frozen
//!   heartbeat isolates a **single** device I/O that is stuck, never a
//!   long batch or a slow-but-working device.
//!
//! Quarantining goes through [`Inner::quarantine_stream`] — the same
//! idempotent path worker append errors and daemon force errors use, so
//! whichever detector fires first wins and the rest are no-ops. The
//! supervisor is strictly an accelerator: correctness never depends on
//! it (producers discover failures synchronously too), it just shortens
//! the window in which new transactions are routed at a dead stream.
//!
//! ## Membership management
//!
//! The supervisor is also the fleet's **membership manager** — the
//! readmission half of failover. When
//! [`ExecConfig::rejoin_probe_ms`](crate::ExecConfig) is non-zero, every
//! period it attempts [`Inner::rejoin_stream`] on each quarantined
//! stream. A device whose fault has cleared passes the vault probe and
//! rejoins — durable prefix revalidated, successor appender spawned,
//! routing restored, degraded mode recomputed. A still-broken device
//! fails the probe and simply stays quarantined until the next period;
//! failed probes are counted in `failover.rejoin_probes_failed`.
//!
//! Per-stream `appender.health.s{i}` gauges (1 = healthy, 0 =
//! quarantined) and the `failover.detect_us` histogram (probe-loop
//! detection latency from the first suspicious probe to the verdict)
//! make the supervisor's view observable.

use crate::db::Inner;
use crate::error::AppenderError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Supervisor main loop; runs until `stop` is raised.
pub(crate) fn run_supervisor(inner: Arc<Inner>, stop: Arc<AtomicBool>) {
    let obs = inner.obs.clone();
    let n = inner.appenders.len();
    let health: Vec<_> = (0..n)
        .map(|i| obs.gauge(&format!("appender.health.s{i}")))
        .collect();
    for g in &health {
        g.set(1);
    }
    let live_gauge = obs.gauge("failover.live_streams");
    let detect_us = obs.histogram("failover.detect_us");
    let probes_failed = obs.counter("failover.rejoin_probes_failed");
    let interval = Duration::from_micros(inner.cfg.health_interval_us.max(100));
    let deadline = Duration::from_millis(inner.cfg.force_deadline_ms.max(1));
    let rejoin_probe =
        (inner.cfg.rejoin_probe_ms > 0).then(|| Duration::from_millis(inner.cfg.rejoin_probe_ms));
    let mut next_rejoin_probe = Instant::now();
    // last observed heartbeat per stream, with when it last *changed*
    let mut last_beat: Vec<(u64, Instant)> = (0..n).map(|_| (0, Instant::now())).collect();
    // dead last tick, to reset the heartbeat clock across a rejoin (a
    // fresh incarnation's heartbeat could otherwise look frozen against
    // the retired incarnation's last value)
    let mut was_dead: Vec<bool> = vec![false; n];
    while !stop.load(Ordering::Acquire) {
        for i in 0..n {
            let appender = inner.appenders.get(i);
            if inner.is_stream_dead(i) {
                health[i].set(0);
                was_dead[i] = true;
                continue;
            }
            let probe = appender.probe();
            if std::mem::take(&mut was_dead[i]) {
                last_beat[i] = (probe.heartbeat, Instant::now());
            }
            let t_suspect = {
                let (beat, since) = &mut last_beat[i];
                if probe.heartbeat != *beat {
                    *beat = probe.heartbeat;
                    *since = Instant::now();
                }
                *since
            };
            let verdict = if let Some(e) = probe.error {
                Some(AppenderError::Persistent(e))
            } else if !probe.alive {
                Some(AppenderError::ThreadDeath(
                    "appender thread found dead by supervisor".to_string(),
                ))
            } else if t_suspect.elapsed() >= deadline {
                // no beat for a whole deadline — a single device I/O is
                // wedged (a healthy thread beats every few ms when idle,
                // per batched request, and through modeled device delays)
                Some(AppenderError::Stalled {
                    what: "heartbeat",
                    waited_ms: t_suspect.elapsed().as_millis() as u64,
                })
            } else {
                None
            };
            match verdict {
                Some(error) => {
                    inner.quarantine_stream(i, &error);
                    health[i].set(0);
                    was_dead[i] = true;
                    detect_us.record(t_suspect.elapsed().as_micros() as u64);
                }
                None => health[i].set(1),
            }
        }
        // membership: probe quarantined devices for readmission
        if let Some(period) = rejoin_probe {
            if Instant::now() >= next_rejoin_probe {
                next_rejoin_probe = Instant::now() + period;
                for i in 0..n {
                    if inner.is_stream_dead(i) && inner.rejoin_stream(i).is_err() {
                        probes_failed.inc();
                    }
                }
            }
        }
        live_gauge.set(inner.live_streams() as u64);
        // MVCC housekeeping: sweep dead page versions below the snapshot
        // watermark. Cheap when idle (read-latch probe per chain), and
        // riding the supervisor tick keeps chains bounded without a
        // dedicated GC thread.
        inner.mvcc.gc();
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use crate::db::{ExecConfig, ExecDb};
    use crate::error::ExecError;
    use rmdb_storage::FaultPlan;
    use rmdb_wal::db::WalConfig;
    use std::time::{Duration, Instant};

    fn cfg(streams: usize) -> ExecConfig {
        ExecConfig {
            wal: WalConfig {
                data_pages: 64,
                pool_frames: 16,
                log_streams: streams,
                log_frames: 4096,
                seed: 7,
                ..WalConfig::default()
            },
            pool_shards: 4,
            health_interval_us: 200,
            force_deadline_ms: 100,
            ..ExecConfig::default()
        }
    }

    fn wait_for<F: Fn() -> bool>(what: &str, deadline: Duration, f: F) {
        let t0 = Instant::now();
        while !f() {
            assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn slow_forces_do_not_convict_a_healthy_appender() {
        // A modeled device service time well past the stall deadline:
        // the appender heartbeats through the delay in slices, so the
        // supervisor must keep telling "slow" apart from "stuck".
        let mut c = cfg(2);
        c.force_delay_us = 250_000; // 250 ms per force
        c.force_deadline_ms = 100; // stall verdict after 100 ms
        let db = ExecDb::new(c);
        for i in 0..3u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, b"slow"))
                .unwrap();
        }
        assert_eq!(db.live_streams(), 2, "slow stream falsely quarantined");
        assert!(!db.is_degraded());
        let snap = db.obs().snapshot();
        assert_eq!(snap.counter("failover.quarantined").unwrap_or(0), 0);
    }

    #[test]
    fn supervisor_quarantines_dead_appender_thread() {
        let db = ExecDb::new(cfg(3));
        db.run_txn(0, |ctx| ctx.write(1, 0, b"warm")).unwrap();
        assert_eq!(db.live_streams(), 3);
        // kill one appender thread outright; no producer ever touches it
        // again — only the supervisor can notice
        db.appender(2).inject_panic();
        wait_for(
            "supervisor to quarantine stream 2",
            Duration::from_secs(5),
            || db.live_streams() == 2 && db.obs().snapshot().gauge("appender.health.s2") == Some(0),
        );
        let snap = db.obs().snapshot();
        assert!(snap.counter("failover.quarantined.thread_death") >= Some(1));
        // the fleet keeps committing
        for i in 0..8u64 {
            db.run_txn(i as usize, |ctx| ctx.write(2 + i, 0, b"after"))
                .unwrap();
        }
    }

    #[test]
    fn supervisor_quarantines_stuck_appender_by_heartbeat() {
        let db = ExecDb::new(cfg(3));
        db.run_txn(0, |ctx| ctx.write(1, 0, b"warm")).unwrap();
        // wedge stream 1's device: its next write stalls 2 s inside the
        // appender thread, freezing the heartbeat mid-batch
        db.inject_stream_fault(1, FaultPlan::new().stick_write(0, 2_000).fail_from_write(1))
            .unwrap();
        // hand the wedged stream work without parking on it ourselves
        let seq = db
            .appender(1)
            .append(rmdb_wal::record::LogRecord::Abort { txn: u64::MAX })
            .unwrap();
        db.appender(1).request_force(seq).unwrap();
        wait_for(
            "supervisor to declare stream 1 stalled or failed",
            Duration::from_secs(10),
            || db.is_stream_dead(1),
        );
        let snap = db.obs().snapshot();
        assert!(
            snap.counter("failover.quarantined") >= Some(1),
            "quarantine counter missing"
        );
        // survivors still commit; min_live is 1, so no degraded mode
        match db.run_txn(0, |ctx| ctx.write(3, 0, b"alive")) {
            Ok(()) => {}
            Err(ExecError::Degraded { .. }) => panic!("must not degrade at min_live=1"),
            Err(e) => panic!("unexpected: {e}"),
        }
        assert!(!db.is_degraded());
    }
}
