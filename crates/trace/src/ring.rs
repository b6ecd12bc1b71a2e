//! Bounded per-track event buffer: overwrite-oldest, behind a mutex.
//!
//! Instrumented layers emit once per interval, seal or I/O operation, never
//! per load, so one uncontended lock per event costs little. In return a
//! snapshot always copies a whole window: no event is read mid-write.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use crate::TraceEvent;

/// Bounded event buffer. The `Ring` itself is shared between the owning
/// [`crate::ThreadTracer`] (its writer) and the [`crate::TraceSession`] that
/// snapshots it at export time.
pub(crate) struct Ring {
    capacity: usize,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// The retained window, oldest first. It grows as events arrive, up to
    /// the ring's capacity, so a track allocates only for what it received.
    events: VecDeque<TraceEvent>,
    /// Events ever pushed (retained or not).
    pushed: u64,
    /// Events lost to overwrite-oldest.
    dropped: u64,
}

impl Ring {
    pub(crate) fn new(capacity: usize) -> Ring {
        Ring {
            capacity: capacity.max(1),
            state: Mutex::default(),
        }
    }

    /// No code panics while holding the lock, so a poisoned one still
    /// guards a consistent window.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one event, overwriting the oldest when full.
    pub(crate) fn push(&self, event: TraceEvent) {
        let mut state = self.state();
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(event);
        state.pushed += 1;
    }

    /// Oldest-first copy of the retained window.
    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.state().events.iter().copied().collect()
    }

    /// Events lost to overwrite-oldest so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Events ever pushed (retained or not).
    pub(crate) fn pushed(&self) -> u64 {
        self.state().pushed
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}
