//! Multiple concurrent applications on one Typhoon cluster: worker MACs
//! carry the application-ID prefix (Fig. 5), switch rules are disjoint per
//! app, and agent bookkeeping is keyed by (app, task) — so two topologies
//! with numerically identical task IDs never interfere.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon::prelude::*;

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
    by_value: Arc<Mutex<HashMap<i64, i64>>>,
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

fn topo(name: &str, spout: &str) -> LogicalTopology {
    LogicalTopology::builder(name)
        .spout("src", spout, 1, Fields::new(["v"]))
        .bolt("out", "sum-sink", 1, Fields::new(["v"]))
        .edge("src", "out", Grouping::Global)
        .build()
        .unwrap()
}

#[test]
fn two_applications_share_a_cluster_without_interference() {
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

    let cluster = TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(10), reg).unwrap();
    let ha = cluster.submit(topo("app-a", "a-spout")).unwrap();
    let hb = cluster.submit(topo("app-b", "b-spout")).unwrap();
    assert_ne!(ha.app(), hb.app());

    // Both topologies number their tasks from 0; worker lookups and flow
    // rules must still resolve per application.
    assert_eq!(ha.tasks_of("src"), hb.tasks_of("src"));
    assert!(ha.worker(ha.tasks_of("src")[0]).is_some());
    assert!(hb.worker(hb.tasks_of("src")[0]).is_some());

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
                "incomplete or cross-talk: a={a} b={b} (want {N} each)"
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Killing one app must not disturb the other.
    ha.kill().unwrap();
    assert!(hb.worker(hb.tasks_of("out")[0]).is_some(), "app-b survives");
    cluster.shutdown();
}
