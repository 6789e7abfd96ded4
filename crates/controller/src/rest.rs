//! The user-facing command API.
//!
//! "Some of these applications interact with framework users via REST APIs,
//! so that the users can leverage a Typhoon-provided framework service
//! (e.g., topology reconfiguration and debugging services)" (§5). The
//! reproduction exposes the same operations over a line-oriented TCP
//! protocol (one request per line, one response per line), which keeps the
//! offline dependency set intact while remaining scriptable with `nc`.
//!
//! ```text
//! LIST
//! SHOW <topology>
//! RECONFIG <topology> PARALLELISM <node> <n>
//! RECONFIG <topology> LOGIC <node> <component>
//! RECONFIG <topology> GROUPING <from> <to> shuffle|global|all|sdn|fields:<f1,f2,…>
//! RECONFIG <topology> RELOCATE <task-id> <host-id>
//! TRACE RATE <n>
//! TRACE DUMP <n>
//! TRACE HOPS
//! ```
//!
//! The `TRACE` family drives the end-to-end tuple tracer (the debugging
//! service of §5, extended with span collection): `RATE` retunes the
//! sampling rate live, `DUMP` returns the N slowest complete traces as a
//! single JSON line, and `HOPS` prints the per-hop latency breakdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use typhoon_coordinator::global::GlobalState;
use typhoon_model::{Grouping, HostId, ReconfigOp, ReconfigRequest, TaskId};
use typhoon_trace::Tracer;

/// Parses one grouping operand of the `GROUPING` command.
fn parse_grouping(s: &str) -> Result<Grouping, String> {
    match s {
        "shuffle" => Ok(Grouping::Shuffle),
        "global" => Ok(Grouping::Global),
        "all" => Ok(Grouping::All),
        "sdn" => Ok(Grouping::SdnOffloaded),
        other => match other.strip_prefix("fields:") {
            Some(fields) if !fields.is_empty() => Ok(Grouping::Fields(
                fields.split(',').map(str::to_owned).collect(),
            )),
            _ => Err(format!("unknown grouping {other:?}")),
        },
    }
}

/// Executes one command line against the global state, returning the
/// single-line response (`OK …` or `ERR …`).
pub fn handle_command(global: &GlobalState, line: &str) -> String {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        ["LIST"] => match global.list_topologies() {
            Ok(names) => format!("OK {}", names.join(",")),
            Err(e) => format!("ERR {e}"),
        },
        ["SHOW", topology] => match global.get_logical(topology) {
            Ok(t) => {
                let nodes: Vec<String> = t
                    .nodes
                    .iter()
                    .map(|n| format!("{}x{}", n.name, n.parallelism))
                    .collect();
                format!("OK {}", nodes.join(","))
            }
            Err(e) => format!("ERR {e}"),
        },
        ["RECONFIG", topology, "PARALLELISM", node, n] => match n.parse::<usize>() {
            Ok(parallelism) => submit(
                global,
                topology,
                ReconfigOp::SetParallelism {
                    node: (*node).to_owned(),
                    parallelism,
                },
            ),
            Err(_) => format!("ERR invalid parallelism {n:?}"),
        },
        ["RECONFIG", topology, "LOGIC", node, component] => submit(
            global,
            topology,
            ReconfigOp::SwapLogic {
                node: (*node).to_owned(),
                component: (*component).to_owned(),
            },
        ),
        ["RECONFIG", topology, "RELOCATE", task, host] => {
            match (task.parse::<u32>(), host.parse::<u32>()) {
                (Ok(t), Ok(h)) => submit(
                    global,
                    topology,
                    ReconfigOp::Relocate {
                        task: TaskId(t),
                        target: HostId(h),
                    },
                ),
                _ => format!("ERR invalid RELOCATE operands {task:?} {host:?}"),
            }
        }
        ["RECONFIG", topology, "GROUPING", from, to, grouping] => match parse_grouping(grouping) {
            Ok(g) => submit(
                global,
                topology,
                ReconfigOp::SetGrouping {
                    from: (*from).to_owned(),
                    to: (*to).to_owned(),
                    grouping: g,
                },
            ),
            Err(e) => format!("ERR {e}"),
        },
        [] => "ERR empty command".to_owned(),
        _ => format!("ERR unrecognized command {line:?}"),
    }
}

fn submit(global: &GlobalState, topology: &str, op: ReconfigOp) -> String {
    match global.submit_reconfig(&ReconfigRequest::single(topology, op)) {
        Ok(()) => "OK submitted".to_owned(),
        Err(e) => format!("ERR {e}"),
    }
}

/// Executes one command line, additionally serving the `TRACE` family when
/// a tracer is attached. Non-`TRACE` commands delegate to
/// [`handle_command`].
pub fn handle_command_with(
    global: &GlobalState,
    tracer: Option<&Arc<Tracer>>,
    line: &str,
) -> String {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        ["TRACE", ..] => {
            let tracer = match tracer {
                Some(t) => t,
                None => return "ERR tracing disabled".to_owned(),
            };
            match parts.as_slice() {
                ["TRACE", "RATE", n] => match n.parse::<u32>() {
                    Ok(rate) => {
                        tracer.set_rate(rate);
                        format!("OK rate {rate}")
                    }
                    Err(_) => format!("ERR invalid rate {n:?}"),
                },
                ["TRACE", "DUMP", n] => match n.parse::<usize>() {
                    Ok(count) => format!("OK {}", tracer.dump(count).to_json()),
                    Err(_) => format!("ERR invalid count {n:?}"),
                },
                ["TRACE", "HOPS"] => {
                    tracer.collect();
                    let hops: Vec<String> = tracer
                        .hop_stats()
                        .iter()
                        .map(|s| format!("{}={}ns", s.hop.label(), s.mean_ns as u64))
                        .collect();
                    format!("OK {}", hops.join(","))
                }
                _ => format!("ERR unrecognized TRACE command {line:?}"),
            }
        }
        _ => handle_command(global, line),
    }
}

/// The TCP command server.
pub struct CommandServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CommandServer {
    /// Binds to `127.0.0.1:0` (or a specific port) and serves commands.
    pub fn start(global: GlobalState, port: u16) -> std::io::Result<CommandServer> {
        Self::start_with_tracer(global, port, None)
    }

    /// Like [`CommandServer::start`], additionally serving the `TRACE`
    /// command family against `tracer`.
    pub fn start_with_tracer(
        global: GlobalState,
        port: u16,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<CommandServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = shutdown.clone();
        let thread = typhoon_diag::spawn_supervised(
            "typhoon-rest",
            |_event| { /* diag's panic log + counters suffice; no extra callback */ },
            move || {
                // A blocking accept: `Drop` sets the flag, then connects to
                // wake it.
                for stream in listener.incoming() {
                    if shutdown2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let global = global.clone();
                    let tracer = tracer.clone();
                    // One thread per connection: command traffic is
                    // sparse and human/driver initiated.
                    let session = move || {
                        let mut writer = match stream.try_clone() {
                            Ok(w) => w,
                            Err(_) => return,
                        };
                        let reader = BufReader::new(stream);
                        for line in reader.lines() {
                            let line = match line {
                                Ok(l) => l,
                                Err(_) => break,
                            };
                            let resp = handle_command_with(&global, tracer.as_ref(), &line);
                            if writer.write_all(format!("{resp}\n").as_bytes()).is_err() {
                                break;
                            }
                        }
                    };
                    typhoon_diag::spawn_supervised("typhoon-rest-conn", |_event| {}, session);
                }
            },
        );
        Ok(CommandServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (connect here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for CommandServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // A connection wakes the accept; nothing to do if it fails, as
        // then the listener thread has already ended.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_coordinator::Coordinator;
    use typhoon_model::logical::word_count_example;

    fn global() -> GlobalState {
        let g = GlobalState::new(Coordinator::new());
        g.set_logical(&word_count_example()).unwrap();
        g
    }

    #[test]
    fn list_and_show() {
        let g = global();
        assert_eq!(handle_command(&g, "LIST"), "OK word-count");
        let shown = handle_command(&g, "SHOW word-count");
        assert!(shown.starts_with("OK "));
        assert!(shown.contains("splitx2"), "{shown}");
    }

    #[test]
    fn reconfig_parallelism_submits_request() {
        let g = global();
        assert_eq!(
            handle_command(&g, "RECONFIG word-count PARALLELISM split 3"),
            "OK submitted"
        );
        let reqs = g.take_reconfigs("word-count").unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(
            reqs[0].ops[0],
            ReconfigOp::SetParallelism {
                node: "split".into(),
                parallelism: 3
            }
        );
    }

    #[test]
    fn reconfig_grouping_parses_all_forms() {
        let g = global();
        for form in ["shuffle", "global", "all", "sdn", "fields:word,count"] {
            let cmd = format!("RECONFIG word-count GROUPING split count {form}");
            assert_eq!(handle_command(&g, &cmd), "OK submitted", "{form}");
        }
        let reqs = g.take_reconfigs("word-count").unwrap();
        assert_eq!(reqs.len(), 5);
        assert_eq!(
            reqs[4].ops[0],
            ReconfigOp::SetGrouping {
                from: "split".into(),
                to: "count".into(),
                grouping: Grouping::Fields(vec!["word".into(), "count".into()]),
            }
        );
    }

    #[test]
    fn relocate_command_parses_and_submits() {
        let g = global();
        assert_eq!(
            handle_command(&g, "RECONFIG word-count RELOCATE 3 1"),
            "OK submitted"
        );
        let reqs = g.take_reconfigs("word-count").unwrap();
        assert_eq!(
            reqs[0].ops[0],
            ReconfigOp::Relocate {
                task: TaskId(3),
                target: HostId(1),
            }
        );
        assert!(handle_command(&g, "RECONFIG t RELOCATE x 1").starts_with("ERR"));
        assert!(handle_command(&g, "RECONFIG t RELOCATE 1 y").starts_with("ERR"));
    }

    #[test]
    fn malformed_commands_are_errors() {
        let g = global();
        assert!(handle_command(&g, "").starts_with("ERR"));
        assert!(handle_command(&g, "NOPE").starts_with("ERR"));
        assert!(handle_command(&g, "RECONFIG t PARALLELISM n x").starts_with("ERR"));
        assert!(handle_command(&g, "RECONFIG t GROUPING a b fields:").starts_with("ERR"));
        assert!(handle_command(&g, "SHOW ghost").starts_with("ERR"));
    }

    #[test]
    fn trace_commands_require_a_tracer() {
        let g = global();
        assert_eq!(
            handle_command_with(&g, None, "TRACE RATE 64"),
            "ERR tracing disabled"
        );
        // Non-TRACE commands pass through untouched.
        assert_eq!(handle_command_with(&g, None, "LIST"), "OK word-count");
    }

    #[test]
    fn trace_commands_drive_the_tracer() {
        let g = global();
        let tracer = Tracer::new(8);
        let t = Some(&tracer);
        assert_eq!(handle_command_with(&g, t, "TRACE RATE 16"), "OK rate 16");
        assert_eq!(tracer.rate(), 16);
        let dump = handle_command_with(&g, t, "TRACE DUMP 5");
        assert!(dump.starts_with("OK {"), "{dump}");
        assert!(dump.contains("\"completed\""), "{dump}");
        assert_eq!(handle_command_with(&g, t, "TRACE HOPS"), "OK ");
        assert!(handle_command_with(&g, t, "TRACE RATE x").starts_with("ERR"));
        assert!(handle_command_with(&g, t, "TRACE NOPE").starts_with("ERR"));
    }

    #[test]
    fn tcp_server_round_trips_commands() {
        use std::io::{BufRead, BufReader, Write};
        let g = global();
        let server = CommandServer::start(g, 0).unwrap();
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"LIST\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK word-count");
        writer
            .write_all(b"RECONFIG word-count PARALLELISM split 4\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK submitted");
    }
}
