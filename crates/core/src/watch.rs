//! Push-delivery change tracking: the versioned watch hub behind
//! `GET /api/v1/datasets/:name/watch` and `GET /api/v1/deliveries`.
//!
//! Every committed warehouse mutation, and every delivery appended to a
//! user's outbox, bumps a per-workspace monotonic version and records it
//! against the [`WatchKey`]s it touched. A watcher subscribes with the
//! keys it waits on plus the version cursor from its previous poll: if any
//! of those keys already moved past the cursor the subscription completes
//! immediately (a missed update is replayed, never skipped), otherwise it
//! parks until a bump intersects its key set or its timeout lapses.
//! Completion is a callback, so a parked watcher costs a file descriptor
//! and a heap entry here — no worker thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odbis_delivery::{DeliveryService, OutboxRead};
use parking_lot::Mutex;

/// What a watcher waits on. Tables and outboxes are separate variants, so
/// no table name, quoted SQL identifiers included, can wake a deliveries
/// watcher, nor a delivery a dataset watcher.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WatchKey {
    /// A warehouse table, by lower-cased name ([`WatchKey::table`]).
    Table(String),
    /// One user's delivery outbox.
    Deliveries(String),
}

impl WatchKey {
    /// The key of table `name`; table names are case-insensitive.
    pub fn table(name: &str) -> Self {
        WatchKey::Table(name.to_ascii_lowercase())
    }
}

/// How a watch subscription ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchOutcome {
    /// `true` when a watched key changed past the subscriber's cursor;
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
    keys: Vec<WatchKey>,
    cursor: u64,
    deadline: Instant,
    complete: Completer,
}

#[derive(Default)]
struct HubState {
    /// Last version that touched each key.
    versions: HashMap<WatchKey, u64>,
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

    /// Record a committed change to `keys`, waking every parked watcher
    /// whose key set intersects. Returns the new version.
    pub fn bump(&self, keys: &[WatchKey]) -> u64 {
        let mut fired: Vec<(Completer, WatchOutcome)> = Vec::new();
        let version = {
            let mut state = self.state.lock();
            let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
            for k in keys {
                state.versions.insert(k.clone(), version);
            }
            let mut kept = Vec::with_capacity(state.waiters.len());
            for w in state.waiters.drain(..) {
                if w.keys.iter().any(|k| keys.contains(k)) {
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

    /// Subscribe to changes on `keys` after `cursor`. If one already
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
        keys: Vec<WatchKey>,
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
        let newest = {
            let mut state = self.state.lock();
            let newest = keys
                .iter()
                .filter_map(|k| state.versions.get(k).copied())
                .max()
                .unwrap_or(0);
            if newest <= cursor {
                state.waiters.push(Waiter {
                    keys,
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

/// A read of the caller's deliveries, and what a `GET /api/v1/deliveries`
/// long-poll parks on when the read holds nothing past the caller's cursor.
pub struct DeliveryPoll {
    /// The caller's deliveries after the cursor.
    pub read: OutboxRead,
    cursor: u64,
    /// The hub version taken before `read`: any delivery `read` missed
    /// bumps the user's key past it.
    version: u64,
    hub: Arc<WatchHub>,
    outbox: Arc<DeliveryService>,
    user: String,
}

impl DeliveryPoll {
    pub(crate) fn new(
        hub: &Arc<WatchHub>,
        outbox: &Arc<DeliveryService>,
        user: String,
        cursor: u64,
    ) -> Self {
        let version = hub.cursor();
        DeliveryPoll {
            read: outbox.read(&user, cursor),
            cursor,
            version,
            hub: Arc::clone(hub),
            outbox: Arc::clone(outbox),
            user,
        }
    }

    /// Whether the read answers the poll at once: it holds entries, a
    /// missed count, or a resynchronised cursor.
    pub fn is_news(&self) -> bool {
        self.read.cursor != self.cursor
    }

    /// Park until the user's next delivery or `timeout`. `complete` gets
    /// the user's fresh read after the cursor, or `None` on a timeout.
    pub fn park(
        self,
        timeout: Duration,
        complete: impl FnOnce(Option<OutboxRead>) + Send + 'static,
    ) {
        let DeliveryPoll {
            cursor,
            version,
            hub,
            outbox,
            user,
            ..
        } = self;
        hub.subscribe(
            vec![WatchKey::Deliveries(user.clone())],
            version,
            timeout,
            Box::new(move |outcome| complete(outcome.changed.then(|| outbox.read(&user, cursor)))),
        );
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
            vec![WatchKey::table("orders")],
            0,
            Duration::from_secs(5),
            completer(tx_a),
        );
        hub.subscribe(
            vec![WatchKey::table("customers")],
            0,
            Duration::from_secs(5),
            completer(tx_b),
        );
        assert_eq!(hub.parked(), 2);
        let v = hub.bump(&[WatchKey::table("ORDERS")]);
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
        let v = hub.bump(&[WatchKey::table("orders")]);
        // a subscriber whose cursor predates the bump completes at once
        let (tx, rx) = mpsc::channel();
        hub.subscribe(
            vec![WatchKey::table("orders")],
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
            vec![WatchKey::table("orders")],
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
        let v = hub.bump(&[WatchKey::table("orders")]); // hub is now at version 1
        let (tx, rx) = mpsc::channel();
        hub.subscribe(
            vec![WatchKey::table("orders")],
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
        hub.subscribe(
            vec![WatchKey::table("t")],
            7,
            Duration::from_secs(60),
            completer(tx),
        );
        let o = rx.try_recv().expect("must complete synchronously");
        assert_eq!(
            o,
            WatchOutcome {
                changed: true,
                cursor: 0
            }
        );
    }

    /// A table named like a user, or like anything else, is a different
    /// key from that user's outbox: neither bump wakes the other watcher.
    #[test]
    fn tables_and_outboxes_never_share_a_key() {
        let hub = Arc::new(WatchHub::new());
        let (tx_d, rx_d) = mpsc::channel();
        let (tx_t, rx_t) = mpsc::channel();
        let outbox = WatchKey::Deliveries("alice".into());
        hub.subscribe(
            vec![outbox.clone()],
            0,
            Duration::from_secs(5),
            completer(tx_d),
        );
        hub.subscribe(
            vec![WatchKey::table("alice")],
            0,
            Duration::from_secs(5),
            completer(tx_t),
        );
        hub.bump(&[WatchKey::table("alice")]);
        assert!(rx_t.try_recv().unwrap().changed);
        assert!(rx_d.try_recv().is_err());
        let v = hub.bump(&[outbox]);
        assert_eq!(rx_d.try_recv().unwrap().cursor, v);
        assert_eq!(hub.parked(), 0);
    }

    #[test]
    fn timeout_echoes_the_cursor_back() {
        let hub = Arc::new(WatchHub::new());
        let mut v = 0;
        for _ in 0..7 {
            v = hub.bump(&[WatchKey::table("other")]);
        }
        assert_eq!(v, 7);
        let (tx, rx) = mpsc::channel();
        hub.subscribe(
            vec![WatchKey::table("orders")],
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
