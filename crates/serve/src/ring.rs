//! Bounded ring of recent independent events, served at `GET /events`.
//!
//! The analysis worker appends an entry for every `NewEvent` decision; the HTTP
//! front-end snapshots the ring and renders it as JSON. The ring is a
//! fixed-capacity deque behind a [`Locked`] — appends are O(1), a snapshot is a
//! short lock plus a copy, and memory is bounded no matter how long the
//! daemon runs.

use crate::locked::Locked;
use bgp_model::{json, Timestamp};
use std::collections::VecDeque;

/// One surfaced independent fatal event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry {
    /// RECID of the record that opened the event.
    pub recid: u64,
    /// Event time (the record's EVENT_TIME).
    pub time: Timestamp,
    /// Location string as reported.
    pub location: String,
    /// ERRCODE name from the catalog.
    pub code: String,
    /// Did the impact map say this deserves a warning?
    pub warn: bool,
}

/// The bounded ring itself.
#[derive(Debug)]
pub struct EventRing {
    inner: Locked<VecDeque<EventEntry>>,
    capacity: usize,
    /// Total events ever pushed (survives eviction from the ring).
    total: std::sync::atomic::AtomicU64,
}

impl EventRing {
    /// A ring holding at most `capacity` recent events.
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            inner: Locked::new(VecDeque::with_capacity(capacity.min(4_096))),
            capacity: capacity.max(1),
            total: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Append one event, evicting the oldest beyond capacity.
    pub fn push(&self, entry: EventEntry) {
        let capacity = self.capacity;
        self.inner.with(move |q| {
            if q.len() == capacity {
                q.pop_front();
            }
            q.push_back(entry);
        });
        self.total
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Copy of the current contents, oldest first.
    pub fn snapshot(&self) -> Vec<EventEntry> {
        self.inner.with(|q| q.iter().cloned().collect())
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.with(|q| q.len())
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.inner.with(|q| q.is_empty())
    }

    /// Total events ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.total.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Render the ring as a JSON array, oldest first.
    pub fn to_json(&self) -> String {
        let entries = self.snapshot();
        let mut out = String::from("[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"recid\":{},\"time\":\"{}\",\"location\":\"{}\",\"code\":\"{}\",\
                 \"warn\":{}}}",
                e.recid,
                e.time,
                json::Escaped(&e.location),
                json::Escaped(&e.code),
                e.warn
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(recid: u64) -> EventEntry {
        EventEntry {
            recid,
            time: Timestamp::from_unix(recid as i64),
            location: "R00-M0".to_owned(),
            code: "_bgp_err_kernel_panic".to_owned(),
            warn: recid.is_multiple_of(2),
        }
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(entry(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|e| e.recid).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.total_pushed(), 5);
        assert!(!ring.is_empty());
    }

    #[test]
    fn json_is_wellformed_and_escaped() {
        let ring = EventRing::new(8);
        ring.push(EventEntry {
            code: "weird\"code\\".to_owned(),
            ..entry(1)
        });
        let json = ring.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\\\"code\\\\"));
        assert!(json.contains("\"recid\":1"));
        assert_eq!(EventRing::new(2).to_json(), "[]");
    }
}
