//! Messages flowing through the service bus.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic message-id source (process-wide).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Message payload kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Plain text.
    Text(String),
    /// A JSON document (already serialized).
    Json(String),
    /// Raw bytes.
    Binary(Vec<u8>),
}

impl Payload {
    /// Text view of the payload (Text and Json variants).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Payload::Text(s) | Payload::Json(s) => Some(s),
            Payload::Binary(_) => None,
        }
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Text(s) | Payload::Json(s) => s.len(),
            Payload::Binary(b) => b.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A message: id + headers + payload (the Spring Integration `Message<T>`
/// analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Bus-unique id.
    pub id: u64,
    /// String headers (routing keys, tenant ids, correlation ids...).
    pub headers: BTreeMap<String, String>,
    /// Payload.
    pub payload: Payload,
}

impl Message {
    /// New text message.
    pub fn text(payload: impl Into<String>) -> Self {
        Message {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            headers: BTreeMap::new(),
            payload: Payload::Text(payload.into()),
        }
    }

    /// New JSON message.
    pub fn json(payload: impl Into<String>) -> Self {
        Message {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            headers: BTreeMap::new(),
            payload: Payload::Json(payload.into()),
        }
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.insert(key.into(), value.into());
        self
    }

    /// Header accessor.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.get(key).map(String::as_str)
    }

    /// Derive a new message (fresh id, headers copied) with a new payload —
    /// used by transformers.
    pub fn derive(&self, payload: Payload) -> Message {
        Message {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            headers: self.headers.clone(),
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_headers_work() {
        let a = Message::text("x").with_header("tenant", "t1");
        let b = Message::text("y");
        assert_ne!(a.id, b.id);
        assert_eq!(a.header("tenant"), Some("t1"));
        assert_eq!(a.header("missing"), None);
    }

    #[test]
    fn derive_keeps_headers_fresh_id() {
        let a = Message::json("{}").with_header("k", "v");
        let b = a.derive(Payload::Text("done".into()));
        assert_ne!(a.id, b.id);
        assert_eq!(b.header("k"), Some("v"));
        assert_eq!(b.payload.as_text(), Some("done"));
    }

    #[test]
    fn payload_views() {
        assert_eq!(Payload::Text("ab".into()).len(), 2);
        assert!(Payload::Binary(vec![]).is_empty());
        assert_eq!(Payload::Binary(vec![1]).as_text(), None);
    }
}
