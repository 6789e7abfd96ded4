//! Multiple concurrent topologies on one Storm cluster: independent app
//! IDs, independent task directories, independent results.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon_model::{Bolt, ComponentRegistry, Emitter, Fields, Grouping, LogicalTopology, Spout};
use typhoon_storm::{StormCluster, StormConfig};
use typhoon_tuple::{Tuple, Value};

struct ConstSpout {
    value: i64,
    remaining: i64,
}

impl Spout for ConstSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        out.emit(vec![Value::Int(self.value)]);
        true
    }
}

#[derive(Clone, Default)]
struct Sums {
    by_value: Arc<Mutex<std::collections::HashMap<i64, i64>>>,
}

struct SumSink {
    sums: Sums,
}

impl Bolt for SumSink {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(v) = input.get(0).and_then(Value::as_int) {
            *self.sums.by_value.lock().unwrap().entry(v).or_insert(0) += 1;
        }
    }
}

fn topo(name: &str) -> LogicalTopology {
    LogicalTopology::builder(name)
        .spout("src", &format!("{name}-spout"), 1, Fields::new(["v"]))
        .bolt("out", "sum-sink", 1, Fields::new(["v"]))
        .edge("src", "out", Grouping::Global)
        .build()
        .unwrap()
}

#[test]
fn two_topologies_do_not_interfere() {
    const N: i64 = 2_000;
    let sums = Sums::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("a-spout", || ConstSpout {
        value: 1,
        remaining: N,
    });
    reg.register_spout("b-spout", || ConstSpout {
        value: 2,
        remaining: N,
    });
    let s = sums.clone();
    reg.register_bolt("sum-sink", move || SumSink { sums: s.clone() });

    let cluster = StormCluster::new(StormConfig::local(2), reg);
    let ha = cluster.submit(topo("a")).unwrap();
    let hb = cluster.submit(topo("b")).unwrap();
    assert_ne!(ha.app(), hb.app(), "distinct app IDs");

    // Task IDs overlap numerically across apps in Storm (per-topology
    // numbering), but directories are shared — the cluster must still keep
    // streams separate because each topology only routes to its own tasks.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        {
            let sums = sums.by_value.lock().unwrap();
            let a = sums.get(&1).copied().unwrap_or(0);
            let b = sums.get(&2).copied().unwrap_or(0);
            if a == N && b == N {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "incomplete: a={a} b={b} (want {N} each)"
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    ha.kill();
    hb.kill();
    cluster.shutdown();
}
