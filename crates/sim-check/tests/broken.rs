//! Regression corpus for the checker itself: two deliberately seeded
//! synchronization bugs — each a real-world bug class — that the
//! explorer **must** detect, each paired with its correct variant that
//! the explorer must pass clean. If a refactor of the scheduler, the
//! sleep sets, or the modeled primitives ever stops finding the bugs
//! (or starts flagging the correct code), this suite fails and the
//! checker can no longer be trusted.
//!
//! * [`Barrier`] with `late_reset` — a sense-reversing centralized
//!   barrier whose arrival-count reset is moved after the waiter
//!   release. A participant that starts the next episode before the
//!   late reset lands has its arrival wiped; the barrier then waits
//!   forever. Surfaces as a deadlock.
//! * [`Doorbell`] with `unlocked_ring` — a sequence-number doorbell
//!   whose bump-and-notify skips the mutex the waiter re-checks under.
//!   The notify can land between the waiter's check and its wait: a
//!   textbook lost wakeup. Also surfaces as a deadlock.
//!
//! Both fixtures live here, written against the modeled primitives in
//! [`sim_check::sync`]; they model no simulator code.

use sim_check::sync::{spawn, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex};
use sim_check::{Explorer, Report, ViolationKind};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A sense-reversing centralized barrier that parks every waiter on a
/// condvar (the minimal shape: every arrival is a scheduling point, and
/// the park path is the only exit).
struct Barrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    /// Seeded bug: reset the arrival count *after* releasing the
    /// waiters instead of before.
    late_reset: bool,
}

impl Barrier {
    fn new(n: usize, late_reset: bool) -> Barrier {
        Barrier {
            n,
            count: AtomicUsize::new(0, "barrier.count"),
            sense: AtomicBool::new(false, "barrier.sense"),
            lock: Mutex::new((), "barrier.lock"),
            cv: Condvar::new("barrier.cv"),
            late_reset,
        }
    }

    fn wait(&self, local_sense: &mut bool) {
        let sense = !*local_sense;
        *local_sense = sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            if !self.late_reset {
                self.count.store(0, Ordering::Relaxed);
            }
            // Flip under the mutex so a waiter that checked the sense
            // and decided to park cannot miss the wakeup.
            {
                let _g = self.lock.lock();
                self.sense.store(sense, Ordering::Release);
                self.cv.notify_all();
            }
            if self.late_reset {
                // BUG (seeded): a released waiter may already have
                // arrived for the next episode; this erases it.
                self.count.store(0, Ordering::Relaxed);
            }
        } else {
            let mut g = self.lock.lock();
            while self.sense.load(Ordering::Acquire) != sense {
                g = self.cv.wait(g);
            }
            drop(g);
        }
    }
}

/// A one-waiter doorbell: the ringer bumps a sequence number and
/// notifies; the waiter parks until the sequence moves past what it
/// last saw.
struct Doorbell {
    seq: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    /// Seeded bug: bump and notify without taking the mutex.
    unlocked_ring: bool,
}

impl Doorbell {
    fn new(unlocked_ring: bool) -> Doorbell {
        Doorbell {
            seq: AtomicU64::new(0, "doorbell.seq"),
            lock: Mutex::new((), "doorbell.lock"),
            cv: Condvar::new("doorbell.cv"),
            unlocked_ring,
        }
    }

    fn ring(&self) {
        if self.unlocked_ring {
            // BUG (seeded): can slot between a parking waiter's check
            // and its wait, so the notify finds nobody to wake.
            self.seq.fetch_add(1, Ordering::Release);
            self.cv.notify_one();
        } else {
            let _g = self.lock.lock();
            self.seq.fetch_add(1, Ordering::Release);
            self.cv.notify_one();
        }
    }

    fn wait(&self, last_seen: &mut u64) {
        let mut g = self.lock.lock();
        while self.seq.load(Ordering::Acquire) == *last_seen {
            g = self.cv.wait(g);
        }
        drop(g);
        *last_seen = self.seq.load(Ordering::Acquire);
    }
}

/// Two participants, two episodes: the deadlock needs a second episode
/// — the wiped arrival only matters once somebody arrives again.
fn barrier_scenario(late_reset: bool) -> Report {
    Explorer::default().check(move || {
        let barrier = Arc::new(Barrier::new(2, late_reset));
        let b = barrier.clone();
        let h = spawn("p1", move || {
            let mut sense = false;
            for _ in 0..2 {
                b.wait(&mut sense);
            }
        });
        let mut sense = false;
        for _ in 0..2 {
            barrier.wait(&mut sense);
        }
        h.join();
    })
}

/// One ringer, one waiter, two rings: every ring must be observed.
fn doorbell_scenario(unlocked_ring: bool) -> Report {
    Explorer::default().check(move || {
        let bell = Arc::new(Doorbell::new(unlocked_ring));
        let b = bell.clone();
        let h = spawn("waiter", move || {
            let mut seen = 0;
            while seen < 2 {
                b.wait(&mut seen);
            }
        });
        bell.ring();
        bell.ring();
        h.join();
    })
}

/// The violation must exist, be a deadlock, and carry a non-empty
/// schedule trace (the repro the checker hands to a human).
fn expect_deadlock(r: &Report, what: &str) {
    let v = r.violation.as_ref().unwrap_or_else(|| {
        panic!(
            "{what}: seeded bug not detected ({} executions)",
            r.executions
        )
    });
    assert_eq!(
        v.kind,
        ViolationKind::Deadlock,
        "{what}: expected a deadlock, got {v:?}"
    );
    assert!(
        !v.trace.is_empty(),
        "{what}: violation carries no repro trace"
    );
}

#[test]
fn broken_barrier_late_reset_deadlocks() {
    expect_deadlock(&barrier_scenario(true), "late-reset barrier");
}

#[test]
fn correct_barrier_passes_clean() {
    let r = barrier_scenario(false);
    r.assert_ok();
    assert!(r.executions > 1, "only {} executions", r.executions);
}

#[test]
fn broken_doorbell_unlocked_ring_loses_wakeup() {
    expect_deadlock(&doorbell_scenario(true), "unlocked-ring doorbell");
}

#[test]
fn correct_doorbell_passes_clean() {
    let r = doorbell_scenario(false);
    r.assert_ok();
    assert!(r.executions > 1, "only {} executions", r.executions);
}
