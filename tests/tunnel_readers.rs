//! A TCP tunnel's reader thread hands what it decodes to its switch, yet
//! must not keep that switch alive: the switch owns the endpoint whose
//! drop ends the reader. So shutting a cluster down and dropping it ends
//! every `tcp-tunnel-reader` it started, counted from `/proc/self/task/*/comm`
//! (cut at 15 bytes: `tcp-tunnel-read`). Its own binary, so no other
//! test's tunnels share the process.

use std::time::{Duration, Instant};
use typhoon::prelude::*;

const CLUSTERS: usize = 20;

fn readers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim() == "tcp-tunnel-read")
        .count()
}

#[test]
fn dropping_a_cluster_ends_its_tunnel_readers() {
    assert_eq!(readers(), 0);
    for i in 0..CLUSTERS {
        let config = TyphoonConfig::new(3).with_tcp_tunnels();
        let cluster = TyphoonCluster::new(config, ComponentRegistry::new()).unwrap();
        // Three hosts, a full mesh: three links, a reader at each end.
        assert_eq!(readers(), 6, "cluster {i} started one reader per endpoint");
        cluster.shutdown();
        drop(cluster);
        let deadline = Instant::now() + Duration::from_secs(10);
        while readers() > 0 {
            assert!(
                Instant::now() < deadline,
                "cluster {i} left {} reader(s) running",
                readers()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
