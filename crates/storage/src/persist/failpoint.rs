//! Crash-point fault injection for the persist I/O paths.
//!
//! Every interesting point of the WAL / checkpoint machinery calls
//! [`check`] with a stable name (e.g. `"wal.append.before_write"`). In
//! production nothing is armed and the check is one relaxed atomic load.
//! Tests arm a point with a [`FailAction`] to simulate:
//!
//! * **a crash before the I/O** (`FailAction::Crash`) — the operation
//!   returns an error and the write never happens, exactly as if the
//!   process had been killed the instant before;
//! * **a torn write** (`FailAction::Torn(n)`) — the caller is told to
//!   write only the first `n` bytes and then fail, the way a power cut
//!   mid-`write(2)` leaves a prefix on disk;
//! * **a plain I/O error** (`FailAction::IoError`) — the syscall fails but
//!   the process lives on (ENOSPC, a failed fsync), so the caller must
//!   restore its on-disk invariants before returning.
//!
//! The first two simulate process death: callers recognise them via
//! [`is_simulated_crash`] and skip any invariant-restoring cleanup a dead
//! process could never have run. The third is indistinguishable from a
//! production I/O failure and exercises exactly that cleanup.
//!
//! Armed points fire once and disarm themselves (each simulated crash is
//! one crash), so a test can arm a point, drive the workload until it
//! trips, then recover. The registry is process-global, so a test that
//! merely *passes* an armed point consumes another test's crash: every test
//! that reaches a failpoint site — arming one or not — holds a
//! [`test_guard`] for its whole body.

use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What an armed failpoint does when reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Fail before the I/O happens (simulates `kill -9` just before the
    /// syscall).
    Crash,
    /// Write only the first `n` bytes of the payload, then fail (simulates
    /// a torn write / power cut mid-write). Only meaningful at points that
    /// write a buffer; elsewhere it behaves like [`FailAction::Crash`].
    Torn(usize),
    /// Fail the I/O with a plain error while the process keeps running
    /// (simulates ENOSPC, a failed fsync, …). Unlike [`FailAction::Crash`],
    /// the caller is expected to clean up after this one — it is *not*
    /// recognised by [`is_simulated_crash`].
    IoError,
}

/// Number of armed points — the fast path is a single relaxed load of this
/// counter, so unarmed production traffic pays one atomic read per persist
/// I/O call, nothing more.
static ARMED: AtomicUsize = AtomicUsize::new(0);

static REGISTRY: Mutex<Option<HashMap<&'static str, FailAction>>> = Mutex::new(None);

/// Exclusive use of the failpoint registry for one test, from
/// [`test_guard`]: nothing is armed when it is taken, and whatever the test
/// left armed is cleared when it drops — on success and on panic alike.
pub struct TestGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for TestGuard {
    fn drop(&mut self) {
        clear_all();
    }
}

/// Serialize the calling test against every other test that reaches a
/// failpoint site (the registry is process-global), starting from a clean
/// registry. Hold the guard for the whole test.
pub fn test_guard() -> TestGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let lock = LOCK.lock();
    clear_all();
    TestGuard { _lock: lock }
}

/// Arm `point` with `action`. The point fires once, then disarms itself.
pub fn arm(point: &'static str, action: FailAction) {
    let mut registry = REGISTRY.lock();
    let map = registry.get_or_insert_with(HashMap::new);
    if map.insert(point, action).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarm `point` if armed.
pub fn disarm(point: &str) {
    let mut registry = REGISTRY.lock();
    if let Some(map) = registry.as_mut() {
        if map.remove(point).is_some() {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Disarm everything (test teardown).
pub fn clear_all() {
    let mut registry = REGISTRY.lock();
    if let Some(map) = registry.as_mut() {
        let n = map.len();
        map.clear();
        ARMED.fetch_sub(n, Ordering::SeqCst);
    }
}

/// The marker payload of a simulated-crash error, so callers can tell
/// "the process notionally died here" apart from a real I/O failure.
#[derive(Debug)]
struct SimulatedCrash(String);

impl std::fmt::Display for SimulatedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SimulatedCrash {}

/// The error a tripped crash/torn failpoint surfaces: callers treat it like
/// any other I/O failure (`ErrorKind::Other`, message names the point), but
/// [`is_simulated_crash`] recognises it.
fn crash_error(point: &str) -> io::Error {
    io::Error::other(SimulatedCrash(format!(
        "failpoint {point} tripped (simulated crash)"
    )))
}

/// Whether `e` came from a [`FailAction::Crash`] / [`FailAction::Torn`]
/// failpoint — i.e. the process is notionally dead and invariant-restoring
/// cleanup (which a killed process could never run) must be skipped so the
/// test observes the true post-crash disk state.
pub fn is_simulated_crash(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<SimulatedCrash>())
}

/// Check `point`. Returns:
/// * `Ok(None)` — not armed, proceed normally (the overwhelmingly common
///   path: one atomic load);
/// * `Ok(Some(n))` — armed with [`FailAction::Torn`]: the caller must
///   write exactly the first `n` bytes, then return a crash error (via
///   [`torn_error`]);
/// * `Err(_)` — armed with [`FailAction::Crash`]: abort before the I/O.
pub fn check(point: &'static str) -> io::Result<Option<usize>> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(None);
    }
    let mut registry = REGISTRY.lock();
    let action = registry.as_mut().and_then(|map| map.remove(point));
    if action.is_some() {
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
    drop(registry);
    match action {
        None => Ok(None),
        Some(FailAction::Crash) => Err(crash_error(point)),
        Some(FailAction::Torn(n)) => Ok(Some(n)),
        Some(FailAction::IoError) => Err(io::Error::other(format!(
            "failpoint {point} tripped (injected io error)"
        ))),
    }
}

/// The error to return after honoring a torn write at `point`.
pub fn torn_error(point: &'static str) -> io::Error {
    crash_error(point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_pass_through() {
        let _guard = test_guard();
        assert!(matches!(check("persist.test.nothing"), Ok(None)));
    }

    #[test]
    fn armed_points_fire_once_and_disarm() {
        let _guard = test_guard();
        arm("persist.test.crash", FailAction::Crash);
        assert!(check("persist.test.crash").is_err());
        assert!(matches!(check("persist.test.crash"), Ok(None)));
        arm("persist.test.torn", FailAction::Torn(5));
        assert_eq!(check("persist.test.torn").unwrap(), Some(5));
        assert!(matches!(check("persist.test.torn"), Ok(None)));
    }

    #[test]
    fn io_errors_are_not_simulated_crashes() {
        let _guard = test_guard();
        arm("persist.test.io", FailAction::IoError);
        let err = check("persist.test.io").unwrap_err();
        assert!(!is_simulated_crash(&err), "{err}");
        arm("persist.test.crash2", FailAction::Crash);
        let err = check("persist.test.crash2").unwrap_err();
        assert!(is_simulated_crash(&err), "{err}");
        assert!(is_simulated_crash(&torn_error("persist.test.torn2")));
    }

    #[test]
    fn disarm_and_clear_work() {
        let _guard = test_guard();
        arm("persist.test.a", FailAction::Crash);
        arm("persist.test.b", FailAction::Crash);
        disarm("persist.test.a");
        assert!(matches!(check("persist.test.a"), Ok(None)));
        clear_all();
        assert!(matches!(check("persist.test.b"), Ok(None)));
    }
}
