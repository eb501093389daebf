//! Server-resident growing cascades — the state behind `POST /observe`.
//!
//! A live cascade is one still unfolding at request time: clients stream
//! adoption events as they happen and ask for predictions between appends.
//! Rebuilding the spectral pipeline from scratch on every append wastes the
//! structure of the update (one node, one edge), so each registered cascade
//! holds a [`WindowedPreprocessor`] whose directed operator advances
//! incrementally and whose window crossings are push-style refreshes.
//!
//! The registry is bounded like the spectral cache: at capacity the
//! least-recently-observed cascade is evicted (its next append must restart
//! from the root), and a zero capacity disables streaming entirely.
//! Appends are atomic per request — every event in an `/observe` body is
//! validated against the resident prefix *before* any of them is applied,
//! so a rejected payload leaves the cascade exactly as it was.
//!
//! Entries live behind one `Mutex`: appends mutate spectral state, so they
//! serialize with each other (but never with `/predict`, which runs off the
//! immutable `SpectralBasis` snapshots this registry publishes).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cascn::{CascnConfig, WindowedPreprocessor};
use cascn_cascades::{Cascade, CascadeFault, ObserveBody};
use cascn_graph::SpectralBasis;

use crate::sync::lock_recover;

/// Identity of a live cascade: its id plus exact start-time bits. Two
/// streams with the same id but different start times are different
/// cascades, never silently merged.
type Key = (u64, u64);

struct LiveEntry {
    key: Key,
    state: WindowedPreprocessor,
    last_used: u64,
}

/// Why an `/observe` was refused. Every variant is a client-visible 4xx —
/// none of them disturbs resident state.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveError {
    /// The registry was built with zero capacity (`--live-capacity 0`).
    Disabled,
    /// The key is not resident and the payload does not begin at the root,
    /// so there is no prefix to append to. (First contact must carry the
    /// full observed prefix from the root; after an eviction the client
    /// re-syncs the same way.)
    UnknownCascade { id: u64 },
    /// The key is resident under a different start time.
    StartTimeMismatch { id: u64, held: f64, got: f64 },
    /// An event failed the cascade invariants against the resident prefix.
    /// `index` is its position within the request body (0-based).
    Append { index: usize, fault: CascadeFault },
}

impl fmt::Display for ObserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveError::Disabled => write!(f, "live ingestion disabled (live capacity is 0)"),
            ObserveError::UnknownCascade { id } => write!(
                f,
                "unknown live cascade {id}: first observe must start at the root event"
            ),
            ObserveError::StartTimeMismatch { id, held, got } => write!(
                f,
                "live cascade {id} is registered with start time {held:?}, request says {got:?}"
            ),
            ObserveError::Append { index, fault } => {
                write!(f, "event {index} rejected: {fault}")
            }
        }
    }
}

/// What one accepted `/observe` did.
#[derive(Debug)]
pub struct ObserveOutcome {
    /// The cascade as resident after the append (input prefix + label-side
    /// events) — the exact content a follow-up `/predict` body carries.
    pub cascade: Cascade,
    /// The spectral handle after the append, ready to seed the shared
    /// basis cache.
    pub basis: SpectralBasis,
    /// Observation window the state is maintained at.
    pub window: f64,
    /// Events appended by this request.
    pub appended: usize,
    /// How many of them landed inside the window and advanced the
    /// incremental operator (the rest only grew the label side).
    pub refreshed: usize,
    /// Observed-and-truncated node count after the append.
    pub num_nodes: usize,
    /// True when this request registered the cascade (first contact or
    /// post-eviction re-sync).
    pub created: bool,
}

/// Point-in-time registry counters for the metrics endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Cascades currently resident.
    pub entries: usize,
    /// Cascades evicted to make room since startup.
    pub evictions: u64,
    /// Total adoption events held across resident cascades.
    pub events: usize,
    /// φ computations across resident cascades that ended without the
    /// stopping rule firing (see `IncrementalSpectral::warm_fallbacks`).
    pub warm_fallbacks: u64,
    /// Approximate resident bytes (operators + adjacency + events).
    pub approx_bytes: usize,
}

/// A bounded, deterministic LRU of live cascades keyed by
/// `(id, start-time bits)`.
pub struct LiveRegistry {
    capacity: usize,
    tick: AtomicU64,
    evictions: AtomicU64,
    entries: Mutex<Vec<LiveEntry>>,
}

impl LiveRegistry {
    /// A registry holding at most `capacity` live cascades. Zero disables
    /// streaming: every `/observe` answers [`ObserveError::Disabled`].
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Applies one parsed `/observe` body at observation window `window`.
    ///
    /// Resident key: the window is advanced (push-style) if it moved, then
    /// every event is pre-validated against the resident prefix and — only
    /// if all pass — appended, advancing the incremental operator for
    /// in-window events. Unknown key: a payload that starts at the root
    /// registers the cascade (evicting the least-recently-observed entry
    /// at capacity); a suffix payload is refused with
    /// [`ObserveError::UnknownCascade`].
    pub fn observe(
        &self,
        body: &ObserveBody,
        window: f64,
        cfg: &CascnConfig,
    ) -> Result<ObserveOutcome, ObserveError> {
        if self.capacity == 0 {
            return Err(ObserveError::Disabled);
        }
        let key: Key = (body.id, body.start_time.to_bits());
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock_recover(&self.entries);

        match entries.binary_search_by_key(&key, |e| e.key) {
            Ok(idx) => {
                let entry = &mut entries[idx];
                entry.last_used = now;
                // lint: allow(float-eq) — identical windows share state as-is; any
                // other value is a crossing handled by advance_window
                let refreshed_by_window = if window == entry.state.window() {
                    0
                } else {
                    entry.state.advance_window(window)
                };
                // Pre-validate the whole body against the resident prefix so
                // a mid-body rejection cannot leave a half-applied append.
                let mut probe = entry.state.cascade().clone();
                for (i, e) in body.events.iter().enumerate() {
                    probe
                        .try_append(e.clone())
                        .map_err(|fault| ObserveError::Append { index: i, fault })?;
                }
                let mut refreshed = refreshed_by_window;
                for e in &body.events {
                    // Validation above makes this infallible; the flag says
                    // whether the event landed inside the window.
                    if entry.state.observe_event(e.clone()).unwrap_or(false) {
                        refreshed += 1;
                    }
                }
                Ok(ObserveOutcome {
                    cascade: entry.state.cascade().clone(),
                    basis: entry.state.basis(),
                    window,
                    appended: body.events.len(),
                    refreshed,
                    num_nodes: entry.state.num_nodes(),
                    created: false,
                })
            }
            Err(at) => {
                let starts_at_root = body.events.first().is_some_and(|e| e.parent.is_none());
                if !starts_at_root {
                    return Err(ObserveError::UnknownCascade { id: body.id });
                }
                if let Some(other) = entries
                    .iter()
                    .find(|e| e.key.0 == body.id && e.key.1 != key.1)
                {
                    return Err(ObserveError::StartTimeMismatch {
                        id: body.id,
                        held: f64::from_bits(other.key.1),
                        got: body.start_time,
                    });
                }
                let cascade = Cascade::try_new(body.id, body.start_time, body.events.clone())
                    .map_err(|fault| ObserveError::Append { index: 0, fault })?;
                let state = WindowedPreprocessor::new(cascade, window, cfg);
                let mut at = at;
                if entries.len() >= self.capacity {
                    // Evict the least-recently-observed cascade; ties break
                    // toward the smallest key so eviction is deterministic.
                    if let Some(victim) = (0..entries.len())
                        .min_by_key(|&i| (entries[i].last_used, entries[i].key))
                    {
                        entries.remove(victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        if victim < at {
                            at -= 1;
                        }
                    }
                }
                let outcome = ObserveOutcome {
                    cascade: state.cascade().clone(),
                    basis: state.basis(),
                    window,
                    appended: body.events.len(),
                    refreshed: state.num_nodes(),
                    num_nodes: state.num_nodes(),
                    created: true,
                };
                entries.insert(at, LiveEntry { key, state, last_used: now });
                Ok(outcome)
            }
        }
    }

    /// Current counters for the metrics endpoint.
    pub fn stats(&self) -> LiveStats {
        let entries = lock_recover(&self.entries);
        LiveStats {
            entries: entries.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            events: entries.iter().map(|e| e.state.cascade().final_size()).sum(),
            warm_fallbacks: entries.iter().map(|e| e.state.warm_fallbacks()).sum(),
            approx_bytes: entries.iter().map(|e| e.state.approx_bytes()).sum(),
        }
    }

    /// Every resident cascade with its window, least-recently-observed
    /// first — the live section of a snapshot. Restoring through
    /// [`seed`](Self::seed) in the same order reproduces eviction priority.
    pub fn export(&self) -> Vec<(Cascade, f64)> {
        let entries = lock_recover(&self.entries);
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].last_used, entries[i].key));
        order
            .into_iter()
            .map(|i| (entries[i].state.cascade().clone(), entries[i].state.window()))
            .collect()
    }

    /// Re-registers snapshot-restored live cascades, oldest first, paying
    /// one cold preprocessing pass each (the incremental operator state is
    /// derived, not persisted). Intended for startup; entries beyond
    /// capacity and duplicate keys are dropped. Returns how many were
    /// installed.
    pub fn seed(&self, restored: Vec<(Cascade, f64)>, cfg: &CascnConfig) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut entries = lock_recover(&self.entries);
        let mut installed = 0usize;
        for (cascade, window) in restored {
            if entries.len() >= self.capacity {
                break;
            }
            let key: Key = (cascade.id, cascade.start_time.to_bits());
            let Err(at) = entries.binary_search_by_key(&key, |e| e.key) else {
                continue;
            };
            let state = WindowedPreprocessor::new(cascade, window, cfg);
            let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            entries.insert(at, LiveEntry { key, state, last_used });
            installed += 1;
        }
        installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::Event;

    fn cfg() -> CascnConfig {
        CascnConfig { max_nodes: 16, max_steps: 8, ..CascnConfig::default() }
    }

    fn root_body(id: u64) -> ObserveBody {
        ObserveBody {
            id,
            start_time: 0.0,
            events: vec![Event { user: id, parent: None, time: 0.0 }],
        }
    }

    fn suffix(id: u64, events: Vec<Event>) -> ObserveBody {
        ObserveBody { id, start_time: 0.0, events }
    }

    #[test]
    fn register_then_append_matches_one_shot_preprocessing() {
        let reg = LiveRegistry::new(4);
        let window = 100.0;
        let first = reg.observe(&root_body(7), window, &cfg()).expect("registers");
        assert!(first.created);
        assert_eq!((first.appended, first.num_nodes), (1, 1));

        let out = reg
            .observe(
                &suffix(7, vec![
                    Event { user: 8, parent: Some(0), time: 5.0 },
                    Event { user: 9, parent: Some(0), time: 150.0 },
                ]),
                window,
                &cfg(),
            )
            .expect("appends");
        assert!(!out.created);
        assert_eq!(out.appended, 2);
        assert_eq!(out.refreshed, 1, "only the in-window event refreshes");
        assert_eq!(out.num_nodes, 2);
        assert_eq!(out.cascade.final_size(), 3);

        // The published basis is exactly one-shot preprocessing of the same
        // content: streaming and cold share the spectral builder.
        let cold = cascn::spectral_basis(&out.cascade, window, &cfg());
        assert_eq!(out.basis, cold, "incremental basis drifted");
    }

    #[test]
    fn appends_are_atomic_per_request() {
        let reg = LiveRegistry::new(4);
        reg.observe(&root_body(1), 50.0, &cfg()).unwrap();
        // Second event is invalid (forward parent): nothing may apply.
        let err = reg
            .observe(
                &suffix(1, vec![
                    Event { user: 2, parent: Some(0), time: 1.0 },
                    Event { user: 3, parent: Some(9), time: 2.0 },
                ]),
                50.0,
                &cfg(),
            )
            .unwrap_err();
        assert!(matches!(err, ObserveError::Append { index: 1, .. }), "{err}");
        let out = reg
            .observe(&suffix(1, vec![Event { user: 2, parent: Some(0), time: 1.0 }]), 50.0, &cfg())
            .expect("the cascade is untouched by the rejected body");
        assert_eq!(out.cascade.final_size(), 2, "rejected events were never applied");
    }

    #[test]
    fn unknown_suffix_and_start_mismatch_are_refused() {
        let reg = LiveRegistry::new(4);
        let err = reg
            .observe(&suffix(5, vec![Event { user: 1, parent: Some(0), time: 1.0 }]), 50.0, &cfg())
            .unwrap_err();
        assert!(matches!(err, ObserveError::UnknownCascade { id: 5 }), "{err}");

        reg.observe(&root_body(5), 50.0, &cfg()).unwrap();
        let err = reg
            .observe(
                &ObserveBody {
                    id: 5,
                    start_time: 3.0,
                    events: vec![Event { user: 5, parent: None, time: 0.0 }],
                },
                50.0,
                &cfg(),
            )
            .unwrap_err();
        assert!(matches!(err, ObserveError::StartTimeMismatch { id: 5, .. }), "{err}");
    }

    #[test]
    fn capacity_bounds_the_registry_with_lru_eviction() {
        let reg = LiveRegistry::new(2);
        reg.observe(&root_body(1), 50.0, &cfg()).unwrap();
        reg.observe(&root_body(2), 50.0, &cfg()).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        reg.observe(&suffix(1, vec![Event { user: 9, parent: Some(0), time: 1.0 }]), 50.0, &cfg())
            .unwrap();
        reg.observe(&root_body(3), 50.0, &cfg()).unwrap();
        let s = reg.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // 2 was evicted: a suffix append must now demand a root re-sync.
        let err = reg
            .observe(&suffix(2, vec![Event { user: 9, parent: Some(0), time: 1.0 }]), 50.0, &cfg())
            .unwrap_err();
        assert!(matches!(err, ObserveError::UnknownCascade { id: 2 }), "{err}");
        // 1 survived.
        let out = reg
            .observe(&suffix(1, vec![Event { user: 10, parent: Some(0), time: 2.0 }]), 50.0, &cfg())
            .unwrap();
        assert!(!out.created);
    }

    #[test]
    fn zero_capacity_disables_streaming() {
        let reg = LiveRegistry::new(0);
        let err = reg.observe(&root_body(1), 50.0, &cfg()).unwrap_err();
        assert_eq!(err, ObserveError::Disabled);
        assert_eq!(reg.stats(), LiveStats::default());
    }

    #[test]
    fn window_crossing_is_handled_on_observe() {
        let reg = LiveRegistry::new(4);
        reg.observe(
            &ObserveBody {
                id: 4,
                start_time: 0.0,
                events: vec![
                    Event { user: 1, parent: None, time: 0.0 },
                    Event { user: 2, parent: Some(0), time: 10.0 },
                    Event { user: 3, parent: Some(1), time: 30.0 },
                ],
            },
            20.0,
            &cfg(),
        )
        .unwrap();
        // Same cascade, wider window: the t=30 event crosses in.
        let out = reg
            .observe(
                &suffix(4, vec![Event { user: 5, parent: Some(2), time: 40.0 }]),
                45.0,
                &cfg(),
            )
            .unwrap();
        assert_eq!(out.num_nodes, 4);
        assert_eq!(out.refreshed, 2, "one window crossing + one in-window append");
        let cold = cascn::spectral_basis(&out.cascade, 45.0, &cfg());
        assert_eq!(cold.num_nodes(), out.basis.num_nodes());
    }

    #[test]
    fn export_seed_round_trip_restores_live_state() {
        let reg = LiveRegistry::new(4);
        reg.observe(&root_body(1), 50.0, &cfg()).unwrap();
        reg.observe(&root_body(2), 60.0, &cfg()).unwrap();
        reg.observe(&suffix(1, vec![Event { user: 9, parent: Some(0), time: 3.0 }]), 50.0, &cfg())
            .unwrap();
        let exported = reg.export();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].0.id, 2, "LRU order, oldest first");

        let restored = LiveRegistry::new(4);
        assert_eq!(restored.seed(exported, &cfg()), 2);
        // A suffix append on the restored registry works without a re-sync.
        let out = restored
            .observe(&suffix(1, vec![Event { user: 10, parent: Some(0), time: 4.0 }]), 50.0, &cfg())
            .expect("restored cascade accepts appends");
        assert!(!out.created);
        assert_eq!(out.cascade.final_size(), 3);
    }
}
