//! Push-delivery change tracking: the versioned table-watch hub behind
//! `GET /api/v1/datasets/:name/watch`.
//!
//! Every committed warehouse mutation bumps a per-workspace monotonic
//! version and records it against the tables it touched. A watcher
//! subscribes with the set of tables its dataset reads plus the version
//! cursor from its previous poll: if any of those tables already moved
//! past the cursor the subscription completes immediately (a missed
//! update is replayed, never skipped), otherwise it parks until a bump
//! intersects its table set or its timeout lapses. Completion is a
//! callback, so a parked watcher costs a file descriptor and a heap
//! entry here — no worker thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// How a watch subscription ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchOutcome {
    /// `true` when a watched table changed past the subscriber's cursor;
    /// `false` when the timeout lapsed first.
    pub changed: bool,
    /// The cursor to poll from next: the version of the newest change on
    /// a changed subscription, or the subscriber's own cursor echoed back
    /// on a timeout.
    pub cursor: u64,
}

/// A parked subscription completion.
type Completer = Box<dyn FnOnce(WatchOutcome) + Send>;

struct Waiter {
    tables: Vec<String>,
    cursor: u64,
    deadline: Instant,
    complete: Completer,
}

#[derive(Default)]
struct HubState {
    /// Last version that touched each (lower-cased) table.
    tables: HashMap<String, u64>,
    waiters: Vec<Waiter>,
    /// Whether the timeout sweeper thread is alive; it exits when the
    /// waiter list drains so an idle hub costs nothing.
    sweeper_running: bool,
}

/// The per-workspace watch hub. See the module docs for the protocol.
pub struct WatchHub {
    version: AtomicU64,
    state: Mutex<HubState>,
}

impl Default for WatchHub {
    fn default() -> Self {
        WatchHub {
            version: AtomicU64::new(0),
            state: Mutex::new(HubState::default()),
        }
    }
}

impl WatchHub {
    /// A fresh hub at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current global version — what a client should use as its first
    /// cursor to watch for changes strictly after "now".
    pub fn cursor(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The newest version that touched any of `tables` (0 if none has).
    pub fn version_for(&self, tables: &[String]) -> u64 {
        let state = self.state.lock();
        tables
            .iter()
            .filter_map(|t| state.tables.get(&t.to_ascii_lowercase()).copied())
            .max()
            .unwrap_or(0)
    }

    /// Record a committed change to `tables`, waking every parked watcher
    /// whose table set intersects. Returns the new version.
    pub fn bump<S: AsRef<str>>(&self, tables: &[S]) -> u64 {
        let mut fired: Vec<(Completer, WatchOutcome)> = Vec::new();
        let version = {
            let mut state = self.state.lock();
            let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
            let touched: Vec<String> = tables
                .iter()
                .map(|t| t.as_ref().to_ascii_lowercase())
                .collect();
            for t in &touched {
                state.tables.insert(t.clone(), version);
            }
            let mut kept = Vec::with_capacity(state.waiters.len());
            for w in state.waiters.drain(..) {
                if w.tables.iter().any(|t| touched.contains(t)) {
                    fired.push((
                        w.complete,
                        WatchOutcome {
                            changed: true,
                            cursor: version,
                        },
                    ));
                } else {
                    kept.push(w);
                }
            }
            state.waiters = kept;
            version
        };
        // completions run outside the hub lock: a completer may serialize
        // a response or write to the reactor wake pipe
        for (complete, outcome) in fired {
            complete(outcome);
        }
        version
    }

    /// Subscribe to changes on `tables` after `cursor`. If one already
    /// happened the completion fires immediately on this thread;
    /// otherwise it parks until a matching [`WatchHub::bump`] or until
    /// `timeout`, whichever comes first (on timeout the subscriber's own
    /// cursor is echoed back with `changed: false`).
    ///
    /// A cursor from *ahead* of the hub's current version — a client that
    /// outlived a node restart, or kept polling across a migration onto a
    /// node whose hub counter restarted — can never be satisfied by a
    /// future bump and used to park until timeout as if it were
    /// up-to-date. It now completes immediately with `changed: true` and
    /// the hub's authoritative cursor, so the client re-reads its dataset
    /// and resynchronizes instead of silently missing every update.
    pub fn subscribe(
        self: &Arc<Self>,
        tables: Vec<String>,
        cursor: u64,
        timeout: Duration,
        complete: Completer,
    ) {
        let current = self.version.load(Ordering::Acquire);
        if cursor > current {
            complete(WatchOutcome {
                changed: true,
                cursor: current,
            });
            return;
        }
        let tables: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        let newest = {
            let mut state = self.state.lock();
            let newest = tables
                .iter()
                .filter_map(|t| state.tables.get(t).copied())
                .max()
                .unwrap_or(0);
            if newest <= cursor {
                state.waiters.push(Waiter {
                    tables,
                    cursor,
                    deadline: Instant::now() + timeout,
                    complete,
                });
                if !state.sweeper_running {
                    state.sweeper_running = true;
                    let hub = Arc::clone(self);
                    std::thread::spawn(move || hub.sweep());
                }
                return;
            }
            newest
        };
        complete(WatchOutcome {
            changed: true,
            cursor: newest,
        });
    }

    /// Timeout sweeper: wakes every 25 ms, completes expired waiters with
    /// their cursor echoed, and exits once the hub is idle.
    fn sweep(self: Arc<Self>) {
        loop {
            std::thread::sleep(Duration::from_millis(25));
            let mut expired: Vec<(Completer, WatchOutcome)> = Vec::new();
            {
                let mut state = self.state.lock();
                let now = Instant::now();
                let mut kept = Vec::with_capacity(state.waiters.len());
                for w in state.waiters.drain(..) {
                    if now >= w.deadline {
                        expired.push((
                            w.complete,
                            WatchOutcome {
                                changed: false,
                                cursor: w.cursor,
                            },
                        ));
                    } else {
                        kept.push(w);
                    }
                }
                state.waiters = kept;
                if state.waiters.is_empty() {
                    state.sweeper_running = false;
                    for (complete, outcome) in expired {
                        complete(outcome);
                    }
                    return;
                }
            }
            for (complete, outcome) in expired {
                complete(outcome);
            }
        }
    }

    /// Number of currently parked watchers (for tests and metrics).
    pub fn parked(&self) -> usize {
        self.state.lock().waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn completer(tx: mpsc::Sender<WatchOutcome>) -> Completer {
        Box::new(move |o| {
            let _ = tx.send(o);
        })
    }

    #[test]
    fn bump_wakes_only_intersecting_watchers() {
        let hub = Arc::new(WatchHub::new());
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        hub.subscribe(
            vec!["orders".into()],
            0,
            Duration::from_secs(5),
            completer(tx_a),
        );
        hub.subscribe(
            vec!["customers".into()],
            0,
            Duration::from_secs(5),
            completer(tx_b),
        );
        assert_eq!(hub.parked(), 2);
        let v = hub.bump(&["ORDERS"]);
        let woke = rx_a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(
            woke,
            WatchOutcome {
                changed: true,
                cursor: v
            }
        );
        // the customers watcher is still parked
        assert!(rx_b.try_recv().is_err());
        assert_eq!(hub.parked(), 1);
    }

    #[test]
    fn missed_update_replays_immediately_from_the_cursor() {
        let hub = Arc::new(WatchHub::new());
        let v = hub.bump(&["orders"]);
        // a subscriber whose cursor predates the bump completes at once
        let (tx, rx) = mpsc::channel();
        hub.subscribe(
            vec!["orders".into()],
            v - 1,
            Duration::from_secs(5),
            completer(tx),
        );
        let o = rx.try_recv().expect("must complete synchronously");
        assert_eq!(
            o,
            WatchOutcome {
                changed: true,
                cursor: v
            }
        );
        // at the current cursor there is nothing to replay: it parks
        let (tx, _rx) = mpsc::channel();
        hub.subscribe(
            vec!["orders".into()],
            v,
            Duration::from_millis(40),
            completer(tx),
        );
        assert_eq!(hub.parked(), 1);
    }

    /// A cursor ahead of the hub (restart / migration reset the counter)
    /// must answer immediately with the authoritative cursor instead of
    /// parking until timeout.
    #[test]
    fn future_cursor_resyncs_immediately() {
        let hub = Arc::new(WatchHub::new());
        let v = hub.bump(&["orders"]); // hub is now at version 1
        let (tx, rx) = mpsc::channel();
        hub.subscribe(
            vec!["orders".into()],
            v + 1_000, // a cursor from a previous life of the counter
            Duration::from_secs(60),
            completer(tx),
        );
        let o = rx.try_recv().expect("must complete synchronously");
        assert_eq!(
            o,
            WatchOutcome {
                changed: true,
                cursor: v
            }
        );
        assert_eq!(hub.parked(), 0);
        // a fresh hub at version 0 answers a stale-high cursor with 0
        let hub = Arc::new(WatchHub::new());
        let (tx, rx) = mpsc::channel();
        hub.subscribe(vec!["t".into()], 7, Duration::from_secs(60), completer(tx));
        let o = rx.try_recv().expect("must complete synchronously");
        assert_eq!(
            o,
            WatchOutcome {
                changed: true,
                cursor: 0
            }
        );
    }

    #[test]
    fn timeout_echoes_the_cursor_back() {
        let hub = Arc::new(WatchHub::new());
        let mut v = 0;
        for _ in 0..7 {
            v = hub.bump(&["other"]);
        }
        assert_eq!(v, 7);
        let (tx, rx) = mpsc::channel();
        hub.subscribe(
            vec!["orders".into()],
            7,
            Duration::from_millis(30),
            completer(tx),
        );
        let o = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            o,
            WatchOutcome {
                changed: false,
                cursor: 7
            }
        );
        assert_eq!(hub.parked(), 0);
    }
}
