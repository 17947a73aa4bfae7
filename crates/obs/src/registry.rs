//! The recording machinery behind the `enabled` feature: the
//! thread-local span stack and the one sharded [`ObsSession`], which
//! records once [`install`] has run.
//!
//! Hot-path discipline: a span open/close touches only thread-local
//! state plus the calling thread's own shard (relaxed atomics nobody
//! else writes); counters go straight to the shard.
//! Shared state is touched only on first use per thread (shard
//! registration) and on [`ObsSession::snapshot`]/[`ObsSession::reset`],
//! which the caller runs after worker threads have been joined.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::snapshot::{Snapshot, SpanEvent};
use crate::{Counter, ObsValue, Stage};

static EPOCH: OnceLock<Instant> = OnceLock::new();
/// The session spans and counters record into; unset until [`install`].
static SESSION: OnceLock<ObsSession> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static SHARD: RefCell<Option<Arc<Shard>>> = const { RefCell::new(None) };
}

/// Nanoseconds since the session epoch (first call wins the epoch).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small dense id of the calling thread.
fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// Start recording into the global [`ObsSession`] and return it.
/// Idempotent; also pins the timestamp epoch.
pub fn install() -> &'static ObsSession {
    let _ = now_ns();
    SESSION.get_or_init(ObsSession::new)
}

fn installed() -> Option<&'static ObsSession> {
    SESSION.get()
}

/// One open span on the thread-local stack.
struct Frame {
    stage: Stage,
    start_ns: u64,
    /// Accumulated duration of already-closed direct children.
    child_ns: u64,
    args: Vec<(&'static str, u64)>,
}

/// RAII guard for an open span: the span covers the guard's lifetime.
/// Spans on one thread must nest (guards drop in LIFO order), which
/// scope-based `let _span = span(..)` usage gives for free.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
pub struct SpanGuard {
    active: bool,
}

/// Open a span. Inert (records nothing on drop) until the session is
/// installed.
pub(crate) fn begin(stage: Stage) -> SpanGuard {
    if installed().is_none() {
        return SpanGuard { active: false };
    }
    let start_ns = now_ns();
    STACK.with(|cell| {
        cell.borrow_mut().push(Frame {
            stage,
            start_ns,
            child_ns: 0,
            args: Vec::new(),
        })
    });
    SpanGuard { active: true }
}

impl SpanGuard {
    /// Attach a key/value argument to the span.
    pub fn arg(self, key: &'static str, value: impl ObsValue) -> Self {
        if self.active {
            STACK.with(|cell| {
                if let Some(frame) = cell.borrow_mut().last_mut() {
                    frame.args.push((key, value.into_u64()));
                }
            });
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let closed_at = now_ns();
        let Some(session) = installed() else { return };
        let ev = STACK.with(|cell| {
            let mut stack = cell.borrow_mut();
            let frame = stack.pop()?;
            let dur_ns = closed_at.saturating_sub(frame.start_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
            Some(SpanEvent {
                tid: current_tid(),
                stage: frame.stage,
                start_ns: frame.start_ns,
                dur_ns,
                self_ns: dur_ns.saturating_sub(frame.child_ns),
                depth: u16::try_from(stack.len()).unwrap_or(u16::MAX),
                args: frame.args,
            })
        });
        if let Some(ev) = ev {
            session.record_span(ev);
        }
    }
}

/// Counter increment (free-function flavour used by `tac_obs::add`).
pub(crate) fn add(counter: Counter, delta: u64) {
    if let Some(session) = installed() {
        session.add(counter, delta);
    }
}

/// Per-thread storage. Only the owning thread writes; collect reads the
/// relaxed atomics after workers are joined.
struct Shard {
    counters: Vec<AtomicU64>,
    spans: Mutex<Vec<SpanEvent>>,
}

impl Shard {
    fn new() -> Self {
        let counters = (0..Counter::COUNT).map(|_| AtomicU64::new(0)).collect();
        Shard {
            counters,
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// The sharded recording session: one shard per recording thread,
/// registered on first use and kept alive (via `Arc`) after the thread
/// exits so its data survives until the next [`ObsSession::reset`],
/// which drops it.
pub struct ObsSession {
    shards: Mutex<Vec<Arc<Shard>>>,
}

impl ObsSession {
    fn new() -> Self {
        ObsSession {
            shards: Mutex::new(Vec::new()),
        }
    }

    /// The calling thread's shard, created and registered on first use.
    fn shard(&self) -> Option<Arc<Shard>> {
        SHARD.with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.is_none() {
                let shard = Arc::new(Shard::new());
                if let Ok(mut all) = self.shards.lock() {
                    all.push(Arc::clone(&shard));
                }
                *slot = Some(shard);
            }
            slot.clone()
        })
    }

    fn all_shards(&self) -> Vec<Arc<Shard>> {
        match self.shards.lock() {
            Ok(guard) => guard.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Merge every shard into one [`Snapshot`]. Call after worker
    /// threads are joined; concurrent recorders would be missed only in
    /// the torn sense of "increment not yet visible", never corrupt.
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::new();
        for shard in self.all_shards() {
            for (total, slot) in out.counters.iter_mut().zip(shard.counters.iter()) {
                *total = total.saturating_add(slot.load(Ordering::Relaxed));
            }
            if let Ok(spans) = shard.spans.lock() {
                out.spans.extend(spans.iter().cloned());
            }
        }
        out.spans.sort_by_key(|s| (s.tid, s.start_ns));
        out
    }

    /// Zero every counter and drop recorded spans,
    /// in every shard, and drop the shards of threads that have exited:
    /// a shard only the session holds is one nothing records into again,
    /// so the list stays as long as the live recording threads, however
    /// many scoped threads have come and gone.
    pub fn reset(&self) {
        let Ok(mut all) = self.shards.lock() else {
            return;
        };
        all.retain(|shard| {
            for slot in shard.counters.iter() {
                slot.store(0, Ordering::Relaxed);
            }
            if let Ok(mut spans) = shard.spans.lock() {
                spans.clear();
            }
            Arc::strong_count(shard) > 1
        });
    }

    /// [`Self::snapshot`] followed by [`Self::reset`].
    pub fn take(&self) -> Snapshot {
        let snap = self.snapshot();
        self.reset();
        snap
    }

    /// A span closed.
    fn record_span(&self, ev: SpanEvent) {
        if let Some(shard) = self.shard() {
            if let Ok(mut spans) = shard.spans.lock() {
                spans.push(ev);
            }
        }
    }

    /// Add `delta` to a counter in the calling thread's shard.
    fn add(&self, counter: Counter, delta: u64) {
        if let Some(shard) = self.shard() {
            if let Some(slot) = shard.counters.get(counter.index()) {
                slot.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{MutexGuard, PoisonError};

    /// The tests run concurrently but share the one global session, and
    /// every `setup()` and `take()` resets all of it: a sibling's reset
    /// in the middle of a test's body drops its counts, and a sibling's
    /// records land in its snapshot. Each test holds this for its whole
    /// body.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    fn setup() -> (MutexGuard<'static, ()>, &'static ObsSession) {
        let held = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let s = install();
        s.reset();
        (held, s)
    }

    #[test]
    fn nested_spans_account_self_time_exactly() {
        let (_held, s) = setup();
        {
            let _outer = crate::span(Stage::Compress).arg("level", 2usize);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span(Stage::Encode);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = s.take();
        let outer = snap
            .spans
            .iter()
            .find(|e| e.stage == Stage::Compress)
            .expect("outer span recorded");
        let inner = snap
            .spans
            .iter()
            .find(|e| e.stage == Stage::Encode)
            .expect("inner span recorded");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.args, vec![("level", 2u64)]);
        // Self-time identity: outer.self + inner.dur == outer.dur.
        assert_eq!(outer.self_ns + inner.dur_ns, outer.dur_ns);
        assert!(inner.dur_ns > 0);
        // Sum of self over all spans == sum of dur over depth-0 spans.
        let self_sum: u64 = snap.spans.iter().map(|e| e.self_ns).sum();
        let top_sum: u64 = snap
            .spans
            .iter()
            .filter(|e| e.depth == 0)
            .map(|e| e.dur_ns)
            .sum();
        assert_eq!(self_sum, top_sum);
    }

    #[test]
    fn counters_merge_across_threads() {
        let (_held, s) = setup();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        crate::add(Counter::ChunksEncoded, 1u64);
                        crate::add(Counter::PayloadBytesOut, 10usize);
                    }
                });
            }
        });
        crate::add(Counter::ChunksEncoded, 1u64);
        let snap = s.take();
        assert_eq!(snap.counter(Counter::ChunksEncoded), 401);
        assert_eq!(snap.counter(Counter::PayloadBytesOut), 4000);
    }

    /// Threads that recorded and exited leave no shard behind once their
    /// records are taken: `join` waits for the thread-local destructors,
    /// so every count arrives and every shard is the session's alone.
    #[test]
    fn take_drops_the_shards_of_exited_threads() {
        let (_held, s) = setup();
        // This thread's shard is live and stays.
        crate::add(Counter::ExecTasks, 1u64);
        let before = s.all_shards().len();
        let threads: Vec<_> = (0..64)
            .map(|_| std::thread::spawn(|| crate::add(Counter::ExecTasks, 1u64)))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.all_shards().len(), before + 64);
        assert_eq!(s.take().counter(Counter::ExecTasks), 65);
        // Shards of threads that exited before this test began go too.
        let after = s.all_shards().len();
        assert!(0 < after && after <= before, "{before} -> {after}");
    }

    #[test]
    fn reset_clears_all_shards() {
        let (_held, s) = setup();
        crate::add(Counter::ExecTasks, 7u64);
        {
            let _g = crate::span(Stage::Plan);
        }
        s.reset();
        assert!(s.snapshot().is_empty());
    }
}
