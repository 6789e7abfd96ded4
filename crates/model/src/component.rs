//! The application computation layer: spouts, bolts and emitters.
//!
//! These traits are deliberately transport-agnostic — the same word-count
//! bolts run unchanged on the Storm baseline and on Typhoon, which is what
//! makes the paper's comparisons like-for-like. The worker runtime (in
//! `typhoon-storm` / `typhoon-core`) owns routing, serialization and acking;
//! the component only sees [`Emitter`].

use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;
use typhoon_tuple::{StreamId, Tuple, Value};

/// Sink for tuples produced by a component.
///
/// The runtime implementation applies the routing policy, serialization and
/// anchoring; [`VecEmitter`] is a plain buffer for unit tests.
pub trait Emitter {
    /// Emits values on the default stream.
    fn emit(&mut self, values: Vec<Value>) {
        self.emit_on(StreamId::DEFAULT, values);
    }

    /// Emits values on a specific stream.
    fn emit_on(&mut self, stream: StreamId, values: Vec<Value>);

    /// A reliable spout's replay: emits values on the default stream as the
    /// retry of the tuple whose tree rooted at `failed_root` failed. The
    /// worker runtime roots the replay at the failed root's base with the
    /// round byte bumped, so downstream dedup keys stay stable across
    /// replays; it does so as the emission is made, which is why the root
    /// travels with it. Anywhere else (the default) it is a plain
    /// [`Emitter::emit`].
    fn emit_replay(&mut self, values: Vec<Value>, _failed_root: u64) {
        self.emit(values);
    }

    /// Acknowledges an input tuple (guaranteed-processing mode).
    fn ack(&mut self, _input: &Tuple) {}

    /// Marks an input tuple as failed, triggering replay from the spout.
    fn fail(&mut self, _input: &Tuple) {}
}

/// A trivial emitter that buffers emissions; used by unit tests and by the
/// stable-update drain logic to capture a component's final flush.
#[derive(Debug, Default)]
pub struct VecEmitter {
    /// Captured (stream, values) emissions in order.
    pub emitted: Vec<(StreamId, Vec<Value>)>,
    /// Tuples acked.
    pub acked: Vec<Tuple>,
    /// Tuples failed.
    pub failed: Vec<Tuple>,
}

impl Emitter for VecEmitter {
    fn emit_on(&mut self, stream: StreamId, values: Vec<Value>) {
        self.emitted.push((stream, values));
    }

    fn ack(&mut self, input: &Tuple) {
        self.acked.push(input.clone());
    }

    fn fail(&mut self, input: &Tuple) {
        self.failed.push(input.clone());
    }
}

/// A data source. The runtime calls [`Spout::next_batch`] in a loop; the
/// spout emits zero or more tuples per call.
pub trait Spout: Send {
    /// Called once before the first `next_batch`.
    fn open(&mut self) {}

    /// Emits the next tuple(s). Returns `false` when the spout has nothing
    /// to emit *right now* (the runtime may back off briefly) and `true`
    /// otherwise. A finite spout keeps returning `false` once exhausted.
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool;

    /// In guaranteed-processing mode the runtime assigns each top-level
    /// emission of the last `next_batch` call a root ID and reports it
    /// here, in emission order, once `next_batch` has returned (`index` is
    /// the emission's position within that batch). This is the link that
    /// lets a reliable spout replay the right tuple on [`Spout::fail`] —
    /// the counterpart of Storm's spout `messageId`; the replay goes out
    /// through [`Emitter::emit_replay`].
    fn emitted(&mut self, _index: usize, _root: u64) {}

    /// Notification that the tuple tree rooted at `root` completed.
    fn ack(&mut self, _root: u64) {}

    /// Notification that the tuple tree rooted at `root` failed; a reliable
    /// spout replays the corresponding tuple.
    fn fail(&mut self, _root: u64) {}
}

/// A processing node. Receives tuples, emits tuples.
pub trait Bolt: Send {
    /// Called once before the first `execute`.
    fn prepare(&mut self) {}

    /// Processes one input tuple.
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter);

    /// Handles a `SIGNAL` control tuple (Table 2): stateful bolts flush
    /// their in-memory cache downstream, exactly as the paper's Listing 2.
    fn on_signal(&mut self, _out: &mut dyn Emitter) {}

    /// Whether this bolt keeps in-memory state that must be flushed before
    /// topology updates (§3.5, Table 4). Stateful bolts get the Fig. 6(b)
    /// update procedure.
    fn is_stateful(&self) -> bool {
        false
    }

    /// Crash-recovery hook: snapshot this bolt's in-memory state as
    /// (key, value) pairs for an epoch checkpoint. `None` (the default)
    /// opts the bolt out of checkpointing; a stateful bolt that wants
    /// exactly-once recovery returns its full state here.
    fn checkpoint(&self) -> Option<Vec<(String, Value)>> {
        None
    }

    /// Crash-recovery hook: reinstall a snapshot previously produced by
    /// [`Bolt::checkpoint`] into a *fresh* instance of this bolt, replacing
    /// whatever state it holds. The bolt may re-emit restored entries on
    /// `out` (unanchored) so latest-value downstream consumers converge
    /// after pre-crash in-flight emissions were lost.
    fn restore(&mut self, _state: Vec<(String, Value)>, _out: &mut dyn Emitter) {}
}

/// Factory producing fresh spout instances, one per task.
pub type SpoutFactory = Arc<dyn Fn() -> Box<dyn Spout> + Send + Sync>;
/// Factory producing fresh bolt instances, one per task.
pub type BoltFactory = Arc<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// Maps component names to factories.
///
/// Logical topologies reference components *by name*; worker agents resolve
/// the name when launching a worker. This indirection is what lets the
/// dynamic topology manager hot-swap computation logic at runtime (§6.2):
/// a reconfiguration simply points a node at a different registered name.
#[derive(Default, Clone)]
pub struct ComponentRegistry {
    spouts: HashMap<String, SpoutFactory>,
    bolts: HashMap<String, BoltFactory>,
}

impl ComponentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a spout factory under `name` (latest registration wins).
    pub fn register_spout<F, S>(&mut self, name: &str, f: F)
    where
        F: Fn() -> S + Send + Sync + 'static,
        S: Spout + 'static,
    {
        self.spouts
            .insert(name.to_owned(), Arc::new(move || Box::new(f())));
    }

    /// Registers a bolt factory under `name` (latest registration wins).
    pub fn register_bolt<F, B>(&mut self, name: &str, f: F)
    where
        F: Fn() -> B + Send + Sync + 'static,
        B: Bolt + 'static,
    {
        self.bolts
            .insert(name.to_owned(), Arc::new(move || Box::new(f())));
    }

    /// Instantiates the spout registered under `name`.
    pub fn make_spout(&self, name: &str) -> Result<Box<dyn Spout>> {
        self.spouts
            .get(name)
            .map(|f| f())
            .ok_or_else(|| crate::ModelError::UnknownComponent(name.to_owned()))
    }

    /// Instantiates the bolt registered under `name`.
    pub fn make_bolt(&self, name: &str) -> Result<Box<dyn Bolt>> {
        self.bolts
            .get(name)
            .map(|f| f())
            .ok_or_else(|| crate::ModelError::UnknownComponent(name.to_owned()))
    }

    /// True when a spout is registered under `name`.
    pub fn has_spout(&self, name: &str) -> bool {
        self.spouts.contains_key(name)
    }

    /// True when a bolt is registered under `name`.
    pub fn has_bolt(&self, name: &str) -> bool {
        self.bolts.contains_key(name)
    }
}

impl std::fmt::Debug for ComponentRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentRegistry")
            .field("spouts", &self.spouts.keys().collect::<Vec<_>>())
            .field("bolts", &self.bolts.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_tuple::tuple::TaskId;

    struct OneShotSpout {
        fired: bool,
    }

    impl Spout for OneShotSpout {
        fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
            if self.fired {
                return false;
            }
            self.fired = true;
            out.emit(vec![Value::Int(1)]);
            true
        }
    }

    struct EchoBolt;

    impl Bolt for EchoBolt {
        fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
            out.emit(input.values.clone());
            out.ack(&input);
        }
    }

    #[test]
    fn registry_instantiates_fresh_components() {
        let mut reg = ComponentRegistry::new();
        reg.register_spout("numbers", || OneShotSpout { fired: false });
        reg.register_bolt("echo", || EchoBolt);

        let mut s1 = reg.make_spout("numbers").unwrap();
        let mut s2 = reg.make_spout("numbers").unwrap();
        let mut out = VecEmitter::default();
        assert!(s1.next_batch(&mut out));
        assert!(!s1.next_batch(&mut out), "exhausted after one batch");
        assert!(s2.next_batch(&mut out), "instances have independent state");
    }

    #[test]
    fn unknown_component_is_an_error() {
        let reg = ComponentRegistry::new();
        assert!(reg.make_spout("ghost").is_err());
        assert!(reg.make_bolt("ghost").is_err());
        assert!(!reg.has_bolt("ghost"));
    }

    #[test]
    fn re_registration_swaps_logic() {
        // The mechanism behind runtime computation-logic swap: the same name
        // can be re-pointed at different logic.
        let mut reg = ComponentRegistry::new();
        reg.register_bolt("filter", || EchoBolt);
        assert!(reg.has_bolt("filter"));
        struct DropAll;
        impl Bolt for DropAll {
            fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {}
        }
        reg.register_bolt("filter", || DropAll);
        let mut b = reg.make_bolt("filter").unwrap();
        let mut out = VecEmitter::default();
        b.execute(Tuple::new(TaskId(0), vec![Value::Int(1)]), &mut out);
        assert!(out.emitted.is_empty(), "new logic drops everything");
    }

    #[test]
    fn vec_emitter_records_streams_and_acks() {
        let mut out = VecEmitter::default();
        let t = Tuple::new(TaskId(1), vec![Value::Int(9)]);
        let mut bolt = EchoBolt;
        bolt.execute(t.clone(), &mut out);
        assert_eq!(out.emitted.len(), 1);
        assert_eq!(out.emitted[0].0, StreamId::DEFAULT);
        assert_eq!(out.acked.len(), 1);
    }

    #[test]
    fn default_bolt_is_stateless_and_ignores_signals() {
        let mut b = EchoBolt;
        assert!(!b.is_stateful());
        let mut out = VecEmitter::default();
        b.on_signal(&mut out);
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn default_recovery_hooks_opt_out() {
        let mut b = EchoBolt;
        assert!(b.checkpoint().is_none());
        let mut out = VecEmitter::default();
        b.restore(vec![("k".into(), Value::Int(1))], &mut out);
        assert!(out.emitted.is_empty());
        out.emit_replay(vec![Value::Int(2)], 0x7700);
        assert_eq!(
            out.emitted,
            [(StreamId::DEFAULT, vec![Value::Int(2)])],
            "a replay is a plain emission by default"
        );
    }

    #[test]
    fn checkpoint_restore_roundtrips_through_a_stateful_bolt() {
        struct Counter {
            counts: HashMap<String, i64>,
        }
        impl Bolt for Counter {
            fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
                if let Some(word) = input.values.first().and_then(|v| v.as_str()) {
                    *self.counts.entry(word.to_owned()).or_insert(0) += 1;
                }
            }
            fn is_stateful(&self) -> bool {
                true
            }
            fn checkpoint(&self) -> Option<Vec<(String, Value)>> {
                Some(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Int(*v)))
                        .collect(),
                )
            }
            fn restore(&mut self, state: Vec<(String, Value)>, out: &mut dyn Emitter) {
                self.counts = state
                    .iter()
                    .filter_map(|(k, v)| v.as_int().map(|n| (k.clone(), n)))
                    .collect();
                for (k, v) in state {
                    out.emit(vec![Value::Str(k), v]);
                }
            }
        }
        let mut original = Counter {
            counts: HashMap::new(),
        };
        let mut sink = VecEmitter::default();
        for w in ["a", "b", "a"] {
            original.execute(Tuple::new(TaskId(0), vec![Value::Str(w.into())]), &mut sink);
        }
        let snap = original.checkpoint().expect("stateful bolt snapshots");
        let mut replacement = Counter {
            counts: HashMap::new(),
        };
        let mut flush = VecEmitter::default();
        replacement.restore(snap, &mut flush);
        assert_eq!(replacement.counts.get("a"), Some(&2));
        assert_eq!(replacement.counts.get("b"), Some(&1));
        assert_eq!(flush.emitted.len(), 2, "restore re-emits restored state");
    }
}
