//! The delivery service: subscriptions, bursting and the bounded outbox.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;

use crate::format::{format_for, Channel, Delivered, ReportPayload};

/// Entries one recipient's outbox holds. Appending to a full outbox evicts
/// its oldest entry; a reader whose cursor predates it is told how many it
/// missed. Each recipient has an outbox of its own, so a delivery never
/// evicts another recipient's entry.
pub const OUTBOX_CAPACITY: usize = 256;

/// A subscription: a user wants a report on a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Subscribing user.
    pub user: String,
    /// Report the user subscribed to.
    pub report: String,
    /// Preferred channel.
    pub channel: Channel,
}

/// A delivery that reached a subscriber, held in the outbox until its
/// recipient reads it by cursor (and for audit).
#[derive(Debug, Clone, PartialEq)]
pub struct OutboxEntry {
    /// Position in the recipient's own delivery stream: 1 for the first
    /// delivery to `user`, then 2, 3, ... — a recipient's cursor is the
    /// `seq` of the last entry it read.
    pub seq: u64,
    /// Recipient.
    pub user: String,
    /// Report name.
    pub report: String,
    /// Formatted content.
    pub delivered: Delivered,
}

/// One user's read of the outbox after a cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboxRead {
    /// The user's entries after the cursor that the outbox still holds,
    /// oldest first.
    pub entries: Vec<OutboxEntry>,
    /// The user's entries after the cursor that the outbox evicted before
    /// this read: a reader is told what it lost, never skipped silently.
    pub missed: u64,
    /// The cursor to read from next: the `seq` of the user's newest
    /// delivery (0 if there is none).
    pub cursor: u64,
}

/// One recipient's deliveries.
#[derive(Default)]
struct Outbox {
    /// The newest [`OUTBOX_CAPACITY`] entries, oldest first; their `seq`s
    /// are consecutive.
    ring: VecDeque<OutboxEntry>,
    /// Deliveries appended, i.e. the newest `seq`.
    appended: u64,
}

/// Runs after each append, with the recipient's name.
type Notify = Box<dyn Fn(&str) + Send + Sync>;

/// The Information Delivery Service (IDS).
///
/// Formatting is channel-specific ([`format_for`]); a delivery is then an
/// [`OutboxEntry`] appended to its recipient's ring of [`OUTBOX_CAPACITY`]
/// entries, which the recipient reads by cursor ([`DeliveryService::read`]).
/// The service takes any recipient name: the platform admits only the
/// users of the tenant's realm.
pub struct DeliveryService {
    subscriptions: Mutex<Vec<Subscription>>,
    /// Per recipient.
    outboxes: Mutex<BTreeMap<String, Outbox>>,
    notify: Notify,
}

impl Default for DeliveryService {
    fn default() -> Self {
        Self::notifying(|_| {})
    }
}

impl DeliveryService {
    /// A service with no subscriptions and an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`DeliveryService::new`], calling `notify` with the recipient after
    /// every append. It runs outside the outbox lock, so it may read the
    /// outbox (a woken reader does).
    pub fn notifying(notify: impl Fn(&str) + Send + Sync + 'static) -> Self {
        DeliveryService {
            subscriptions: Mutex::new(Vec::new()),
            outboxes: Mutex::new(BTreeMap::new()),
            notify: Box::new(notify),
        }
    }

    /// Subscribe a user to a report on a channel. A user holds at most one
    /// subscription per report: subscribing again replaces its channel.
    pub fn subscribe(&self, user: &str, report: &str, channel: Channel) {
        let mut subs = self.subscriptions.lock();
        match subs
            .iter_mut()
            .find(|s| s.user == user && s.report == report)
        {
            Some(s) => s.channel = channel,
            None => subs.push(Subscription {
                user: user.to_string(),
                report: report.to_string(),
                channel,
            }),
        }
    }

    /// Remove a user's subscription to a report. Returns whether one
    /// existed.
    pub fn unsubscribe(&self, user: &str, report: &str) -> bool {
        let mut subs = self.subscriptions.lock();
        let before = subs.len();
        subs.retain(|s| !(s.user == user && s.report == report));
        subs.len() != before
    }

    /// Current subscriptions to a report.
    pub fn subscribers(&self, report: &str) -> Vec<Subscription> {
        self.subscriptions
            .lock()
            .iter()
            .filter(|s| s.report == report)
            .cloned()
            .collect()
    }

    /// Deliver a payload to one user on one channel, immediately.
    pub fn deliver(
        &self,
        user: &str,
        report: &str,
        channel: Channel,
        payload: &ReportPayload,
    ) -> Delivered {
        let mut span = odbis_telemetry::child_span("delivery", "deliver");
        span.set_detail(report);
        let formatted = format_for(channel, payload);
        span.set_bytes(formatted.body.len() as u64);
        {
            let mut outboxes = self.outboxes.lock();
            let outbox = outboxes.entry(user.to_string()).or_default();
            outbox.appended += 1;
            let entry = OutboxEntry {
                seq: outbox.appended,
                user: user.to_string(),
                report: report.to_string(),
                delivered: formatted.clone(),
            };
            if outbox.ring.len() == OUTBOX_CAPACITY {
                outbox.ring.pop_front();
            }
            outbox.ring.push_back(entry);
        }
        (self.notify)(user);
        formatted
    }

    /// Burst: deliver a report payload to every subscriber, each on their
    /// own channel. Returns the number of deliveries.
    pub fn burst(&self, report: &str, payload: &ReportPayload) -> usize {
        let subs = self.subscribers(report);
        for s in &subs {
            self.deliver(&s.user, report, s.channel, payload);
        }
        subs.len()
    }

    /// Snapshot of every recipient's entries, by recipient name, each
    /// recipient's oldest first.
    pub fn outbox(&self) -> Vec<OutboxEntry> {
        let outboxes = self.outboxes.lock();
        outboxes
            .values()
            .flat_map(|o| o.ring.iter().cloned())
            .collect()
    }

    /// `user`'s deliveries after `cursor`. Reading does not consume: a
    /// client that lost a response reads from the same cursor again and
    /// gets the same entries. A cursor ahead of the user's newest `seq`
    /// (issued before the outbox restarted) reads from 0, so the client
    /// resynchronises instead of waiting for a `seq` that will not come.
    pub fn read(&self, user: &str, cursor: u64) -> OutboxRead {
        let outboxes = self.outboxes.lock();
        let outbox = outboxes.get(user);
        let newest = outbox.map_or(0, |o| o.appended);
        let from = if cursor > newest { 0 } else { cursor };
        let entries: Vec<OutboxEntry> = (outbox.into_iter())
            .flat_map(|o| &o.ring)
            .filter(|e| e.seq > from)
            .cloned()
            .collect();
        OutboxRead {
            // a user's seqs are dense and eviction is oldest-first, so
            // what is not held of (from, newest] was evicted
            missed: newest - from - entries.len() as u64,
            entries,
            cursor: newest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbis_sql::QueryResult;
    use odbis_storage::Value;
    use std::sync::Arc;

    fn payload() -> ReportPayload {
        ReportPayload {
            title: "Daily".into(),
            data: QueryResult {
                columns: vec!["k".into(), "v".into()],
                rows: vec![vec!["a".into(), Value::Int(1)]],
                rows_affected: 0,
            },
        }
    }

    fn seqs(read: &OutboxRead) -> Vec<u64> {
        read.entries.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn deliver_lands_in_outbox() {
        let ids = DeliveryService::new();
        let d = ids.deliver("alice", "daily-report", Channel::Email, &payload());
        assert!(d.body.contains("Daily"));
        let outbox = ids.outbox();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].seq, 1);
        assert_eq!(outbox[0].user, "alice");
        assert_eq!(outbox[0].report, "daily-report");
        assert_eq!(outbox[0].delivered, d);
    }

    #[test]
    fn burst_reaches_each_subscriber_once_on_their_channel() {
        let ids = DeliveryService::new();
        ids.subscribe("alice", "daily", Channel::Email);
        ids.subscribe("bob", "daily", Channel::Mobile);
        ids.subscribe("carol", "other", Channel::WebService);
        assert_eq!(ids.burst("daily", &payload()), 2);
        let outbox = ids.outbox();
        assert_eq!(outbox.len(), 2);
        let users: Vec<&str> = outbox.iter().map(|e| e.user.as_str()).collect();
        assert!(users.contains(&"alice") && users.contains(&"bob"));
        let bob = outbox.iter().find(|e| e.user == "bob").unwrap();
        assert_eq!(bob.delivered.channel, Channel::Mobile);
        assert!(serde_json::from_str::<serde_json::Value>(&bob.delivered.body).is_ok());
    }

    #[test]
    fn resubscribing_replaces_the_channel_and_delivers_once() {
        let ids = DeliveryService::new();
        ids.subscribe("alice", "daily", Channel::Email);
        ids.subscribe("alice", "daily", Channel::OfficeTool);
        assert_eq!(ids.subscribers("daily").len(), 1);
        assert_eq!(ids.burst("daily", &payload()), 1);
        let outbox = ids.outbox();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].delivered.channel, Channel::OfficeTool);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let ids = DeliveryService::new();
        ids.subscribe("alice", "daily", Channel::Email);
        assert!(ids.unsubscribe("alice", "daily"));
        assert!(!ids.unsubscribe("alice", "daily"));
        assert_eq!(ids.burst("daily", &payload()), 0);
        assert!(ids.outbox().is_empty());
    }

    #[test]
    fn reads_return_only_the_users_entries_after_the_cursor() {
        let ids = DeliveryService::new();
        ids.deliver("alice", "r1", Channel::Email, &payload());
        ids.deliver("bob", "r1", Channel::Email, &payload());
        ids.deliver("alice", "r2", Channel::OfficeTool, &payload());
        let read = ids.read("alice", 0);
        assert_eq!(seqs(&read), [1, 2]);
        assert!(read.entries.iter().all(|e| e.user == "alice"));
        assert_eq!((read.missed, read.cursor), (0, 2));
        let read = ids.read("alice", 1);
        assert_eq!(read.entries[0].report, "r2");
        let read = ids.read("alice", 2);
        assert!(read.entries.is_empty());
        assert_eq!((read.missed, read.cursor), (0, 2));
        assert_eq!(seqs(&ids.read("bob", 0)), [1]);
        assert_eq!(ids.read("carol", 0).cursor, 0);
    }

    /// Reading does not consume: a client that dropped a response re-reads
    /// from its old cursor and gets the same entries (at-least-once).
    #[test]
    fn rereading_an_old_cursor_returns_the_same_entries() {
        let ids = DeliveryService::new();
        for _ in 0..3 {
            ids.deliver("alice", "r", Channel::Email, &payload());
        }
        let first = ids.read("alice", 1);
        assert_eq!(seqs(&first), [2, 3]);
        assert_eq!(ids.read("alice", 1), first);
    }

    /// Each recipient's outbox holds its newest [`OUTBOX_CAPACITY`]
    /// entries: a recipient that gets more learns what it missed, and a
    /// burst of deliveries to other names evicts nothing of its own.
    #[test]
    fn the_outbox_is_bounded_and_evicts_oldest_first() {
        let ids = DeliveryService::new();
        let extra = 10;
        ids.deliver("carol", "r", Channel::Email, &payload());
        for i in 0..OUTBOX_CAPACITY + extra {
            ids.deliver("alice", "r", Channel::Email, &payload());
            ids.deliver(&format!("ghost{i}"), "r", Channel::Email, &payload());
        }
        assert_eq!(ids.outbox().len(), 1 + 2 * OUTBOX_CAPACITY + extra);
        // alice's first `extra` deliveries are gone
        let alice = ids.read("alice", 0);
        assert_eq!(alice.cursor, (OUTBOX_CAPACITY + extra) as u64);
        assert_eq!(alice.missed, extra as u64);
        assert_eq!(alice.entries.len(), OUTBOX_CAPACITY);
        assert_eq!(alice.entries[0].seq, extra as u64 + 1);
        // a cursor inside the evicted range misses only what follows it
        let alice = ids.read("alice", 3);
        assert_eq!((alice.missed, alice.entries[0].seq), (7, 11));
        // a cursor at or past the oldest held entry misses nothing
        let alice = ids.read("alice", 10);
        assert_eq!((alice.missed, alice.entries[0].seq), (0, 11));
        let alice = ids.read("alice", 200);
        assert_eq!((alice.missed, alice.entries.len()), (0, 66));
        assert_eq!(alice.entries[0].seq, 201);
        // hundreds of deliveries to other names left carol's entry alone
        let carol = ids.read("carol", 0);
        assert_eq!(seqs(&carol), [1]);
        assert_eq!((carol.missed, carol.cursor), (0, 1));
    }

    /// A cursor ahead of the user's newest seq (the outbox restarted since
    /// the client read) resynchronises from 0 instead of waiting forever.
    #[test]
    fn an_ahead_cursor_resyncs_from_the_start() {
        let ids = DeliveryService::new();
        let read = ids.read("alice", 40);
        assert!(read.entries.is_empty());
        assert_eq!((read.missed, read.cursor), (0, 0));
        ids.deliver("alice", "r", Channel::Email, &payload());
        ids.deliver("alice", "r", Channel::Email, &payload());
        let read = ids.read("alice", 40);
        assert_eq!(seqs(&read), [1, 2]);
        assert_eq!((read.missed, read.cursor), (0, 2));
    }

    #[test]
    fn every_append_notifies_with_its_recipient_outside_the_lock() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let ids = Arc::new_cyclic(|weak: &std::sync::Weak<DeliveryService>| {
            let (seen, weak) = (Arc::clone(&seen), weak.clone());
            DeliveryService::notifying(move |user| {
                // a notified reader reads the outbox: no deadlock
                let newest = weak.upgrade().unwrap().read(user, 0).cursor;
                seen.lock().push((user.to_string(), newest));
            })
        });
        ids.subscribe("alice", "daily", Channel::Email);
        ids.subscribe("bob", "daily", Channel::Email);
        ids.burst("daily", &payload());
        ids.deliver("alice", "r", Channel::Email, &payload());
        assert_eq!(
            *seen.lock(),
            [("alice".into(), 1), ("bob".into(), 1), ("alice".into(), 2)]
        );
    }
}
