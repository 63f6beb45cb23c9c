//! The timer wheel: real deadlines for the engine's one-shot timers.
//!
//! The engine asks its driver to arm timers via
//! [`Action::SetTimer`](infobus_core::engine::Action) and expects the
//! firing reported back as an [`Event`](infobus_core::engine::Event).
//! Under the simulator that is a discrete event; here the socket read
//! loop sleeps until the earliest armed deadline (capped so shutdown
//! stays responsive) and fires whatever has come due.
//!
//! There are only four [`TimerKind`]s and each is one-shot (the engine
//! re-arms it from the firing's actions if still needed), so the
//! "wheel" is a fixed four-slot array keeping the earliest pending
//! deadline per kind. Arming an already-armed slot keeps the earlier
//! deadline — a timer may fire early but never late, and every engine
//! timer handler is idempotent under early firing (a premature batch
//! flush flushes less, a premature scan finds no aged gap).

use infobus_core::engine::{Micros, TimerKind};

const KINDS: [TimerKind; 4] = [
    TimerKind::Batch,
    TimerKind::NakScan,
    TimerKind::GdRetry,
    TimerKind::Sync,
];

fn slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Batch => 0,
        TimerKind::NakScan => 1,
        TimerKind::GdRetry => 2,
        TimerKind::Sync => 3,
    }
}

/// Earliest pending deadline per timer kind.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// `deadlines[slot(kind)]`.
    deadlines: [Option<Micros>; 4],
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Arms `kind` to fire at `at` (keeps an earlier existing deadline).
    pub fn arm(&mut self, at: Micros, kind: TimerKind) {
        let d = &mut self.deadlines[slot(kind)];
        *d = Some(d.map_or(at, |cur| cur.min(at)));
    }

    /// The earliest armed deadline, if any.
    pub fn next_deadline(&self) -> Option<Micros> {
        self.deadlines.iter().flatten().copied().min()
    }

    /// Takes every timer due at `now`, in fixed kind order.
    pub fn expired(&mut self, now: Micros) -> Vec<TimerKind> {
        let mut due = Vec::new();
        for kind in KINDS {
            let d = &mut self.deadlines[slot(kind)];
            if d.is_some_and(|at| at <= now) {
                *d = None;
                due.push(kind);
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_fire_rearm() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.arm(100, TimerKind::Batch);
        w.arm(50, TimerKind::Sync);
        assert_eq!(w.next_deadline(), Some(50));
        assert_eq!(w.expired(49), vec![]);
        assert_eq!(w.expired(50), vec![TimerKind::Sync]);
        assert_eq!(w.next_deadline(), Some(100));
        assert_eq!(w.expired(1000), vec![TimerKind::Batch]);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn rearming_keeps_earliest() {
        let mut w = TimerWheel::new();
        w.arm(100, TimerKind::NakScan);
        w.arm(200, TimerKind::NakScan);
        assert_eq!(w.next_deadline(), Some(100));
        w.arm(30, TimerKind::NakScan);
        assert_eq!(w.next_deadline(), Some(30));
    }
}
