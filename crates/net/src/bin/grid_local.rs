//! Local process-mode launcher: stands up a grid on loopback — hubs, a
//! coordinator daemon and worker processes — and reproduces the paper's
//! adaptation scenarios over real sockets. Every mode runs on one grid
//! lifecycle ([`Grid`]): spawn hubs and the coordinator, attach the
//! launcher control connection (which applies grow grants by spawning
//! workers), inject, probe, tear down, reap with an orphan check, and read
//! the coordinator's JSONL decision stream back through
//! `simgrid::provenance`.
//!
//! With `--scenario-file <path>` the launcher drives a declarative scenario
//! (crates/scenario format — the same file the DES twin runs): it builds
//! the grid's clusters on the hub, spawns `--workers-per-cluster` real
//! workers per layout entry, compiles the file's timed events to primitive
//! injections and applies each at its (time-scaled) wall-clock due time —
//! CPU loads and uplink brownouts as `Perturb` messages fanned out by the
//! hub, crashes as SIGKILL, grows as capacity grants, shrinks as leave
//! signals. The injection kind selects the probe that certifies it:
//!
//! * `crash_cluster`/`crash_nodes` — the hub declares each victim dead by
//!   heartbeat timeout, a rejoin under a victim's id is refused (the worker
//!   exits 3), and the coordinator's final decision blacklists every victim.
//! * `cpu_load` with a `count` (`scenarios/slow_node.json`) — the first
//!   `remove-nodes` decision after it removes a node the hub slowed, and a
//!   slowed node heads its badness ranking.
//! * `crash_hub` (`scenarios/hub_crash.json`) — the file gets one standby
//!   hub per hub crash and steal-plane workers. The event SIGKILLs the live
//!   primary; a standby wins the election under the next epoch, the
//!   survivors fail over, the victims stay refused, and the standby's JSONL
//!   shows one takeover that inherited bandwidth, peers and blacklist.
//!
//! The launcher then composes its injection records with the standbys' and
//! the coordinator's JSONL and runs the crates/scenario invariant checker
//! over the merged stream, so a process-mode run is certified by the
//! *same* invariants as a DES run.
//!
//! `--scenario <mode>` runs one of the two workloads that a scenario file
//! cannot express:
//!
//! * `steal` — a slow root worker exports a frontier of serialized fib
//!   subjobs through the wire-level steal plane; thief workers in two
//!   clusters drain it by CRS and return the values. The launcher verifies
//!   jobs migrated between processes (`net.steals.remote_ok` summed over
//!   the thieves' metrics JSONL), the distributed sum matches the
//!   sequential reference, and the thieves' `inter_comm` overhead is real
//!   measured wire time.
//! * `churn-soak` — the reactor's scale proof: one hub process serves
//!   `--workers` (default 5000) protocol-complete loopback workers driven
//!   by a single in-process reactor swarm (real worker *processes* at that
//!   count would exhaust the box, and the hub cannot tell the difference —
//!   same sockets, same frames, same heartbeat cadence). Waves of churn
//!   (disconnect + claim-rejoin inside the heartbeat window), silent
//!   crashes (must be declared dead and blacklisted) and a launcher-driven
//!   grow roll through while the launcher asserts the hub's OS thread count
//!   stays flat, the hub's `net.reactor.accepts` covers the fleet, and the
//!   teardown leaves no orphans.
//!
//! `--join-timeout-ms` (default 10 s) bounds every wait for a child to come
//! up: a hub's port, a worker's join, the coordinator, a standby's attach.
//!
//! Exit codes distinguish verdicts from infrastructure trouble: 0 all
//! checks passed, 1 an adaptation invariant or launcher check failed,
//! 2 infrastructure/usage error, 4 infrastructure *timeout* (a child never
//! came up — the grid never reached the state the checks judge).

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::json::{parse_json, JsonValue};
use sagrid_core::metrics::{MetricEvent, Metrics, Value};
use sagrid_net::conn::{Connection, NetEvent};
use sagrid_net::wire::Message;
use sagrid_net::{Args, Reactor, ReactorEvent, Token};
use sagrid_scenario::{check_jsonl, EventKind, InvariantConfig, ScenarioSpec};
use sagrid_simgrid::provenance::{reconstruct_decision, DecisionProvenance};
use sagrid_simnet::Injection;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tails a child's stdout, tagging every line, and feeds each line to a
/// hook (for machine-parsed markers like `HUB_PORT=` or `JOINED node=`).
fn pump(tag: String, out: ChildStdout, mut hook: impl FnMut(&str) + Send + 'static) {
    std::thread::Builder::new()
        .name(format!("pump-{tag}"))
        .spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                println!("[{tag}] {line}");
                hook(&line);
            }
        })
        .expect("spawn pump thread");
}

/// Every child PID ever spawned, for the exit-path reaper. The happy path
/// reaps children in [`Grid::teardown`]; *failure* paths (`Err` returns,
/// infra timeouts) unwind straight past it, and `std::process::exit` runs
/// no destructors — so `main` holds a [`ReapGuard`] across `run()` and
/// drops it before choosing an exit code. Without it, an exit-4 run (say,
/// a worker that never joins) leaked the hub process.
static SPAWNED_PIDS: Mutex<Vec<(&'static str, u32)>> = Mutex::new(Vec::new());

/// Records a freshly spawned child in the reaper's PID registry and
/// prints the pid so tests can verify post-exit that it is gone.
fn track_child(name: &'static str, child: &Child) {
    println!("grid-local: spawned {name} pid={}", child.id());
    SPAWNED_PIDS
        .lock()
        .expect("pid registry")
        .push((name, child.id()));
}

/// True when `/proc/<pid>` names a live (non-zombie) process. A child the
/// teardown already `wait()`ed has no `/proc` entry at all; one that
/// exited but was never reaped shows state `Z` and dies with the launcher.
fn is_running(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // State is the first field after the parenthesised comm (which may
    // itself contain spaces or parens — hence rfind).
    let Some(idx) = stat.rfind(')') else {
        return false;
    };
    !matches!(
        stat[idx + 1..].trim_start().chars().next(),
        Some('Z') | None
    )
}

/// Kills every tracked child still running when dropped.
struct ReapGuard;

impl Drop for ReapGuard {
    fn drop(&mut self) {
        for (name, pid) in SPAWNED_PIDS.lock().expect("pid registry").drain(..) {
            if !is_running(pid) {
                continue;
            }
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            println!("grid-local: reaper killed leaked {name} pid={pid}");
        }
    }
}

/// Why a run could not even produce a verdict. `Infra` is a broken
/// precondition (usage error, spawn failure, I/O); `Timeout` means a child
/// never reached the state the checks judge (hub port, worker join,
/// coordinator up) — CI treats the two differently, so they get distinct
/// exit codes (2 vs 4; 3 is taken by the worker's join-refused exit).
enum Failure {
    Infra(String),
    Timeout(String),
}

/// Lets every `map_err(|e| format!(...))?` keep compiling: a bare string
/// error is infrastructure trouble unless said otherwise.
impl From<String> for Failure {
    fn from(s: String) -> Self {
        Failure::Infra(s)
    }
}

#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn assert(&mut self, ok: bool, what: &str) {
        if ok {
            println!("CHECK ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.failures.push(what.to_string());
        }
    }
}

/// Reads a JSONL file: its text and its parsed records.
fn read_jsonl(path: &str) -> Result<(String, Vec<JsonValue>), Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let records = text
        .lines()
        .enumerate()
        .map(|(i, line)| parse_json(line).map_err(|e| format!("{path}:{}: bad JSON: {e}", i + 1)))
        .collect::<Result<_, _>>()?;
    Ok((text, records))
}

/// Sum of every `counter` record named `name`.
fn counter_total(records: &[JsonValue], name: &str) -> u64 {
    records
        .iter()
        .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("counter"))
        .filter(|v| v.get("name").and_then(|n| n.as_str()) == Some(name))
        .filter_map(|v| v.get("value").and_then(|v| v.as_u64()))
        .sum()
}

/// One launcher-written `injection` record (plus newline), stamped on the
/// coordinator's time axis so the invariant checker can line it up with
/// the decisions.
fn injection_record(at_us: u64, kind: &str, cluster: Option<u16>) -> String {
    let mut ev = MetricEvent::new(at_us, "injection").with("injection", Value::Str(kind.into()));
    if let Some(c) = cluster {
        ev = ev.with("cluster", Value::U64(u64::from(c)));
    }
    ev.to_json() + "\n"
}

// ---------------------------------------------------------------------------
// The grid lifecycle
// ---------------------------------------------------------------------------

/// How long teardown waits for children to exit after `Shutdown` before
/// killing them and reporting them as orphans.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a SIGKILLed worker may take to be declared dead by the hub's
/// heartbeat detector.
const DETECT_TIMEOUT: Duration = Duration::from_secs(6);

/// Waits until `deadline` for `child` to exit; past it, kills the child
/// and returns `None`.
fn reap(child: &mut Child, deadline: Instant) -> std::io::Result<Option<ExitStatus>> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls `done` every 50 ms until it holds or `timeout` passes; returns
/// whether it held.
fn wait_for(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    true
}

/// Everything needed to start one more worker process; cloned into the
/// grow handler thread.
#[derive(Clone)]
struct WorkerCmd {
    bin_dir: PathBuf,
    /// Comma-separated hub failover list, primary first.
    hub_list: String,
}

impl WorkerCmd {
    /// Spawns a worker in `cluster` and returns it together with a channel
    /// that yields the node id once the worker prints `JOINED node=K`.
    /// Every stdout line is also fed to `hook` so modes can watch for
    /// their own markers (`ROOT_DONE`, `STEALS …`).
    fn spawn(
        &self,
        cluster: u16,
        extra: &[String],
        tag: &str,
        mut hook: impl FnMut(&str) + Send + 'static,
    ) -> Result<(Child, Receiver<u32>), Failure> {
        let mut child = Command::new(self.bin_dir.join("sagrid-worker"))
            .args(["--hub", &self.hub_list, "--cluster", &cluster.to_string()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn sagrid-worker: {e}"))?;
        track_child("worker", &child);
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = channel();
        pump(tag.to_string(), stdout, move |line| {
            if let Some(n) = line
                .strip_prefix("JOINED node=")
                .and_then(|rest| rest.trim().parse::<u32>().ok())
            {
                let _ = tx.send(n);
            }
            hook(line);
        });
        Ok((child, rx))
    }
}

/// A hub's geometry and failure-detector timing.
struct HubSpec {
    clusters: usize,
    nodes_per_cluster: usize,
    heartbeat_timeout_ms: u64,
    detect_interval_ms: u64,
}

/// What one hub printed that the failover checks read.
#[derive(Default)]
struct HubLog {
    /// A standby attached to its primary (`EVENT standby attached`).
    attached: bool,
    /// The epoch a standby promoted itself under (`EVENT takeover`).
    takeover: Option<u64>,
    /// Nodes that joined this hub (`EVENT joined n<id>`).
    joined: BTreeSet<u32>,
}

/// A hub the grid spawned, `hub<k>`: replica `k` (0 is the first
/// primary, `k > 0` standby `k`).
struct HubHandle {
    addr: String,
    log: Arc<Mutex<HubLog>>,
}

/// A spawned child that teardown reaps. Workers carry `(cluster, node)`.
struct Proc {
    name: String,
    worker: Option<(u16, u32)>,
    child: Child,
    /// SIGKILLed or asked to leave: no longer an injection target, and not
    /// expected to exit cleanly.
    gone: bool,
}

/// One grid on loopback: every process it spawned, and the launcher's
/// handles on the hubs, the coordinator and the control connection.
struct Grid {
    out: String,
    join_timeout: Duration,
    worker: WorkerCmd,
    /// Node ids any hub declared dead (`EVENT died n<id>`).
    died: Arc<Mutex<BTreeSet<u32>>>,
    /// The nodes each `Perturb` reached, in send order (`EVENT perturbed`).
    perturbed: Arc<Mutex<Vec<Vec<u32>>>>,
    hubs: Vec<HubHandle>,
    /// Index in `hubs` of the live primary.
    primary: usize,
    /// Highest hub epoch the coordinator reported (`HUB_EPOCH`).
    coord_hub_epoch: Arc<AtomicU64>,
    procs: Vec<Proc>,
    /// Workers the grow handler spawned.
    grown: Arc<Mutex<Vec<Proc>>>,
    /// Set when the coordinator daemon printed `PROVENANCE_OK`; `None`
    /// when no coordinator runs.
    provenance_ok: Option<Arc<AtomicBool>>,
    control: Option<Connection>,
    /// The control connection's inbound stream, where grow grants arrive
    /// as `SpawnWorker`. Held for the grid's lifetime: the connection
    /// closes once nobody listens.
    control_events: Option<Receiver<NetEvent>>,
    checks: Checks,
}

impl Grid {
    fn new(out: String, join_timeout: Duration) -> Result<Grid, Failure> {
        std::fs::create_dir_all(&out).map_err(|e| format!("create {out}: {e}"))?;
        let bin_dir = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .parent()
            .ok_or_else(|| "current_exe has no parent".to_string())?
            .to_path_buf();
        Ok(Grid {
            out,
            join_timeout,
            worker: WorkerCmd {
                bin_dir,
                hub_list: String::new(),
            },
            died: Arc::new(Mutex::new(BTreeSet::new())),
            perturbed: Arc::new(Mutex::new(Vec::new())),
            hubs: Vec::new(),
            primary: 0,
            coord_hub_epoch: Arc::new(AtomicU64::new(0)),
            procs: Vec::new(),
            grown: Arc::new(Mutex::new(Vec::new())),
            provenance_ok: None,
            control: None,
            control_events: None,
            checks: Checks::default(),
        })
    }

    fn coordinator_out(&self) -> String {
        format!("{}/run_coordinatord.jsonl", self.out)
    }

    /// Spawns the next hub with `extra` flags, records its `EVENT` lines,
    /// and waits for `HUB_PORT=`. The hub's address is appended to the
    /// failover list workers and the coordinator dial. Returns the address
    /// and the hub's pid.
    fn spawn_hub(&mut self, spec: &HubSpec, extra: &[&str]) -> Result<(String, u32), Failure> {
        let name = format!("hub{}", self.hubs.len());
        let mut child = Command::new(self.worker.bin_dir.join("sagrid-hub"))
            .args(["--port", "0", "--out", &self.out])
            .args(["--clusters", &spec.clusters.to_string()])
            .args(["--nodes-per-cluster", &spec.nodes_per_cluster.to_string()])
            .args([
                "--heartbeat-timeout-ms",
                &spec.heartbeat_timeout_ms.to_string(),
            ])
            .args(["--detect-interval-ms", &spec.detect_interval_ms.to_string()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn sagrid-hub: {e}"))?;
        track_child("hub", &child);
        let pid = child.id();
        let (port_tx, port_rx) = channel::<u16>();
        let died = Arc::clone(&self.died);
        let perturbed = Arc::clone(&self.perturbed);
        let log = Arc::new(Mutex::new(HubLog::default()));
        let hub_log = Arc::clone(&log);
        let id = |rest: &str| rest.trim().parse::<u32>().ok();
        pump(
            name.clone(),
            child.stdout.take().expect("piped stdout"),
            move |line| {
                let mut log = hub_log.lock().expect("hub log");
                if let Some(p) = line
                    .strip_prefix("HUB_PORT=")
                    .and_then(|r| r.trim().parse().ok())
                {
                    let _ = port_tx.send(p);
                } else if let Some(n) = line.strip_prefix("EVENT died n").and_then(id) {
                    died.lock().expect("died set").insert(n);
                } else if let Some(n) = line.strip_prefix("EVENT joined n").and_then(id) {
                    log.joined.insert(n);
                } else if let Some(rest) = line.strip_prefix("EVENT perturbed ") {
                    let nodes = rest.split_once(" nodes").map_or("", |(_, ids)| ids);
                    let nodes = nodes.split_whitespace();
                    perturbed.lock().expect("perturbed list").push(
                        nodes
                            .filter_map(|n| n.strip_prefix('n').and_then(id))
                            .collect(),
                    );
                } else if line.starts_with("EVENT standby attached") {
                    log.attached = true;
                } else if let Some(rest) = line.strip_prefix("EVENT takeover epoch=") {
                    log.takeover = rest.split_whitespace().next().and_then(|e| e.parse().ok());
                }
            },
        );
        self.procs.push(Proc {
            name: name.clone(),
            worker: None,
            child,
            gone: false,
        });
        let port = port_rx
            .recv_timeout(self.join_timeout)
            .map_err(|_| Failure::Timeout(format!("{name} never printed HUB_PORT=")))?;
        let addr = format!("127.0.0.1:{port}");
        if !self.worker.hub_list.is_empty() {
            self.worker.hub_list.push(',');
        }
        self.worker.hub_list.push_str(&addr);
        println!("grid-local: {name} on {addr}");
        self.hubs.push(HubHandle {
            addr: addr.clone(),
            log,
        });
        Ok((addr, pid))
    }

    /// Spawns the coordinator daemon against the hub list (period 600 ms),
    /// writing `run_coordinatord.jsonl`, and waits for `COORDINATOR_UP`.
    /// Returns the instant it came up: the daemon stamps its decisions
    /// relative to its own dial instant, moments before, so launcher
    /// records rebased on this share the decisions' time axis (the skew is
    /// well under the invariant checker's multi-second settle window).
    fn spawn_coordinator(&mut self, warmup_ms: u64) -> Result<Instant, Failure> {
        let mut child = Command::new(self.worker.bin_dir.join("sagrid-coordinatord"))
            .args(["--hub", &self.worker.hub_list, "--period-ms", "600"])
            .args(["--warmup-ms", &warmup_ms.to_string()])
            .args(["--out", &self.coordinator_out()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn sagrid-coordinatord: {e}"))?;
        track_child("coordinatord", &child);
        let provenance_ok = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&provenance_ok);
        let hub_epoch = Arc::clone(&self.coord_hub_epoch);
        let (up_tx, up_rx) = channel::<()>();
        pump(
            "coord".to_string(),
            child.stdout.take().expect("piped stdout"),
            move |line| {
                if line.starts_with("COORDINATOR_UP") {
                    let _ = up_tx.send(());
                } else if line.starts_with("PROVENANCE_OK") {
                    flag.store(true, Ordering::Release);
                } else if let Some(e) = line
                    .strip_prefix("HUB_EPOCH epoch=")
                    .and_then(|r| r.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
                {
                    hub_epoch.fetch_max(e, Ordering::AcqRel);
                }
            },
        );
        self.procs.push(Proc {
            name: "coordinatord".to_string(),
            worker: None,
            child,
            gone: false,
        });
        self.provenance_ok = Some(provenance_ok);
        up_rx
            .recv_timeout(self.join_timeout)
            .map_err(|_| Failure::Timeout("coordinator daemon never came up".to_string()))?;
        Ok(Instant::now())
    }

    /// Opens the launcher control connection to the hub at `addr`; the
    /// final `Shutdown` goes over it.
    fn connect_control(&mut self, addr: &str) -> Result<(), Failure> {
        let (events_tx, events_rx) = channel::<NetEvent>();
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect to hub: {e}"))?;
        let control = Connection::spawn(1, stream, events_tx, None)
            .map_err(|e| format!("control conn: {e}"))?;
        control.send(Message::LauncherHello);
        self.control = Some(control);
        self.control_events = Some(events_rx);
        Ok(())
    }

    /// Sends `msg` over the control connection.
    fn send(&self, msg: Message) {
        if let Some(c) = &self.control {
            c.send(msg);
        }
    }

    /// Applies grow decisions (the coordinator's or a scenario's): every
    /// `SpawnWorker` on the control stream becomes a worker process
    /// claiming the granted node id in the granted cluster.
    fn apply_grows(&mut self) {
        let events = self.control_events.take().expect("control connected");
        let cmd = self.worker.clone();
        let grown = Arc::clone(&self.grown);
        std::thread::Builder::new()
            .name("grow-handler".to_string())
            .spawn(move || {
                while let Ok(evt) = events.recv() {
                    let NetEvent::Message(_, Message::SpawnWorker { node, cluster }) = evt else {
                        continue;
                    };
                    println!("grid-local: grow -> spawning worker for {node} in {cluster}");
                    let claim = ["--claim-node".to_string(), node.0.to_string()];
                    if let Ok((child, _)) =
                        cmd.spawn(cluster.0, &claim, &format!("w{}+", node.0), |_| {})
                    {
                        grown.lock().expect("grown list").push(Proc {
                            name: format!("grown-worker-{}", node.0),
                            worker: Some((cluster.0, node.0)),
                            child,
                            gone: false,
                        });
                    }
                }
            })
            .expect("spawn grow handler");
    }

    /// Spawns a worker in `cluster` and waits for it to join; returns its
    /// node id.
    fn add_worker(
        &mut self,
        cluster: u16,
        extra: &[String],
        tag: &str,
        hook: impl FnMut(&str) + Send + 'static,
    ) -> Result<u32, Failure> {
        let (child, joined) = self.worker.spawn(cluster, extra, tag, hook)?;
        let node = joined
            .recv_timeout(self.join_timeout)
            .map_err(|_| Failure::Timeout(format!("worker {tag} never joined")))?;
        self.procs.push(Proc {
            name: format!("worker-{node}"),
            worker: Some((cluster, node)),
            child,
            gone: false,
        });
        Ok(node)
    }

    /// Up to `count` live workers of `cluster`, marked gone (the caller
    /// kills them or asks them to leave).
    fn take_workers(&mut self, cluster: u16, count: usize) -> Vec<u32> {
        self.procs
            .iter_mut()
            .filter(|p| !p.gone && p.worker.is_some_and(|(c, _)| c == cluster))
            .take(count)
            .map(|p| {
                p.gone = true;
                p.worker.expect("filtered to workers").1
            })
            .collect()
    }

    /// SIGKILLs and reaps the child called `name`.
    fn sigkill(&mut self, name: &str) -> Result<(), Failure> {
        let p = self
            .procs
            .iter_mut()
            .find(|p| p.name == name)
            .ok_or(format!("no child called {name} to kill"))?;
        p.child.kill().map_err(|e| format!("kill {name}: {e}"))?;
        p.child.wait().map_err(|e| format!("reap {name}: {e}"))?;
        p.gone = true;
        println!("grid-local: SIGKILLed {name}");
        Ok(())
    }

    /// Waits up to [`DETECT_TIMEOUT`] for the hubs to declare every victim
    /// dead. Only heartbeat silence does that: a closed socket alone is
    /// not a death.
    fn await_deaths(&self, victims: &[u32]) -> bool {
        wait_for(DETECT_TIMEOUT, || {
            let died = self.died.lock().expect("died set");
            victims.iter().all(|v| died.contains(v))
        })
    }

    /// Starts a worker claiming `node` against the hub at `addr` and
    /// reports whether the hub refused it (the worker exits 3).
    fn rejoin_refused(&self, addr: &str, cluster: u16, node: u32) -> Result<bool, Failure> {
        let cmd = WorkerCmd {
            hub_list: addr.to_string(),
            ..self.worker.clone()
        };
        let claim = ["--claim-node".to_string(), node.to_string()];
        let (mut child, _) = cmd.spawn(cluster, &claim, &format!("w{node}-rejoin"), |_| {})?;
        let status = reap(&mut child, Instant::now() + self.join_timeout);
        Ok(status.ok().flatten().and_then(|s| s.code()) == Some(3))
    }

    /// The crash probe after SIGKILLing `victims` of `cluster`: the hub
    /// declares each dead by heartbeat timeout, and the live primary
    /// refuses a rejoin under the first victim's id.
    fn probe_crash(&mut self, cluster: u16, victims: &[u32], what: &str) -> Result<(), Failure> {
        let detected = self.await_deaths(victims);
        self.checks.assert(
            detected,
            &format!("{what}: hub declared {victims:?} dead by heartbeat timeout"),
        );
        let refused = self.rejoin_refused(&self.hubs[self.primary].addr, cluster, victims[0])?;
        // After a hub crash the refusal must come from the standby that
        // took over: blacklist permanence across the epoch boundary.
        let by = match self.primary {
            0 => String::new(),
            p => format!(" by the NEW primary (epoch {})", p + 1),
        };
        self.checks.assert(
            refused,
            &format!(
                "{what}: rejoin under blacklisted id n{} was refused{by}",
                victims[0]
            ),
        );
        Ok(())
    }

    /// SIGKILLs the live primary hub. The next standby (the lowest live
    /// replica id) must win the election under the next epoch and every
    /// live worker must fail over to it; the launcher's control connection
    /// then moves to the new primary.
    fn crash_hub(&mut self) -> Result<(), Failure> {
        let survivors: BTreeSet<u32> = self
            .procs
            .iter()
            .filter(|p| !p.gone)
            .filter_map(|p| p.worker.map(|(_, n)| n))
            .collect();
        self.sigkill(&format!("hub{}", self.primary))?;
        self.primary += 1;
        let epoch = self.primary as u64 + 1;
        let log = Arc::clone(&self.hubs[self.primary].log);
        let mut won = None;
        wait_for(self.join_timeout, || {
            won = log.lock().expect("hub log").takeover;
            won.is_some()
        });
        self.checks.assert(
            won == Some(epoch),
            &format!("standby won the election and promoted under epoch {epoch} (got {won:?})"),
        );
        if won.is_some() {
            let rejoined = wait_for(self.join_timeout, || {
                survivors.is_subset(&log.lock().expect("hub log").joined)
            });
            self.checks.assert(
                rejoined,
                &format!(
                    "all {} surviving workers failed over to the standby",
                    survivors.len()
                ),
            );
        }
        let addr = self.hubs[self.primary].addr.clone();
        self.connect_control(&addr)?;
        self.apply_grows();
        Ok(())
    }

    /// Sends `Shutdown`, reaps every child — one still running after
    /// [`REAP_TIMEOUT`] is killed and reported as an orphan — and checks
    /// that every surviving hub exited cleanly and the coordinator (if
    /// any) self-verified its provenance stream.
    fn teardown(&mut self) -> Result<(), Failure> {
        self.send(Message::Shutdown);
        let mut all = std::mem::take(&mut self.procs);
        all.append(&mut self.grown.lock().expect("grown list"));
        let deadline = Instant::now() + REAP_TIMEOUT;
        let mut orphans = Vec::new();
        let mut unclean = Vec::new();
        for p in &mut all {
            let status =
                reap(&mut p.child, deadline).map_err(|e| format!("wait for {}: {e}", p.name))?;
            if status.is_none() {
                orphans.push(p.name.clone());
            }
            let hub = p.name.starts_with("hub");
            if hub && !p.gone && !status.is_some_and(|s| s.success()) {
                unclean.push(format!("{} ({status:?})", p.name));
            }
        }
        self.checks.assert(
            orphans.is_empty(),
            &format!("all children exited after shutdown (orphans: {orphans:?})"),
        );
        self.checks.assert(
            unclean.is_empty(),
            &format!("every live hub exited cleanly (unclean: {unclean:?})"),
        );
        if let Some(flag) = &self.provenance_ok {
            self.checks.assert(
                flag.load(Ordering::Acquire),
                "coordinator self-verified its provenance stream (PROVENANCE_OK)",
            );
        }
        Ok(())
    }

    /// The coordinator's JSONL text and every decision in it, reconstructed
    /// offline through `simgrid::provenance` like an in-process run's.
    fn decisions(&self) -> Result<(String, Vec<DecisionProvenance>), Failure> {
        let path = self.coordinator_out();
        let (text, records) = read_jsonl(&path)?;
        let mut decisions = Vec::new();
        for (i, value) in records.iter().enumerate() {
            if value.get("kind").and_then(|k| k.as_str()) == Some("decision") {
                decisions.push(
                    reconstruct_decision(value).map_err(|e| format!("{path}:{}: {e}", i + 1))?,
                );
            }
        }
        Ok((text, decisions))
    }

    /// Checks that the final decision lists every victim as blacklisted.
    fn assert_blacklisted(
        &mut self,
        decisions: &[DecisionProvenance],
        victims: &[u32],
        what: &str,
    ) {
        let last = decisions.last();
        self.checks.assert(
            last.is_some_and(|d| {
                victims
                    .iter()
                    .all(|v| d.blacklisted_nodes.contains(&NodeId(*v)))
            }),
            &format!("{what}: {victims:?} blacklisted in the final decision entry"),
        );
    }

    /// The failover checks for standby `k`, which took over at the `k`-th
    /// hub crash: the coordinator saw epoch `k + 1`, and the standby's JSONL
    /// counts exactly one takeover, recorded by a `hub_failover` event under
    /// that epoch that carries the learned bandwidth, the peer directory
    /// and the blacklist entry of every earlier victim.
    fn assert_takeover(&mut self, records: &[JsonValue], k: usize, victims: &[u32]) {
        let takeovers = counter_total(records, "net.replica.takeovers");
        let event = records
            .iter()
            .find(|v| v.get("kind").and_then(|k| k.as_str()) == Some("hub_failover"));
        let field = |key: &str| event.and_then(|v| v.get(key));
        let count = |key: &str| field(key).and_then(|v| v.as_u64());
        let blacklisted: Vec<u64> = field("blacklisted_nodes")
            .and_then(|v| v.as_arr())
            .map_or(Vec::new(), |ids| {
                ids.iter().filter_map(|id| id.as_u64()).collect()
            });
        let coord_epoch = self.coord_hub_epoch.load(Ordering::Acquire);
        for (ok, what) in [
            (
                coord_epoch > k as u64,
                "coordinator observed the bumped hub epoch after failover".into(),
            ),
            (
                takeovers == 1,
                format!("standby counted exactly one takeover (net.replica.takeovers={takeovers})"),
            ),
            (
                count("epoch") == Some(k as u64 + 1),
                "hub_failover event records the bumped epoch".into(),
            ),
            (
                count("bandwidth_nodes").is_some_and(|n| n >= 1),
                "learned bandwidth survived the failover without re-measurement".into(),
            ),
            (
                count("peers").is_some_and(|n| n >= 1),
                "the steal-plane peer directory survived the failover".into(),
            ),
            (
                victims.iter().all(|&n| blacklisted.contains(&u64::from(n))),
                format!("the victim's blacklist entry crossed the epoch boundary ({victims:?})"),
            ),
        ] {
            self.checks.assert(ok, &what);
        }
    }

    /// Composes the given JSONL streams (launcher injection records first),
    /// writes them to `file` in the output directory, and checks the
    /// crates/scenario invariants hold on the result — the exact artifact
    /// shape the DES twin emits, so the same checker runs on both.
    fn judge(&mut self, streams: &[String], file: &str, what: &str) -> Result<(), Failure> {
        let composed = streams.concat();
        let path = format!("{}/{file}", self.out);
        std::fs::write(&path, &composed).map_err(|e| format!("write {path}: {e}"))?;
        let cfg = InvariantConfig {
            recovery_eff: 0.25,
            // Wall-clock settle: must fit inside SCENARIO_SETTLE.
            settle_us: 2_000_000,
            join_delay_us: 0,
            // Decision-only streams carry no membership or teardown-counter
            // records; those invariants are the DES twin's to certify.
            check_membership: false,
            check_conservation: false,
            expected_iterations: None,
        };
        let violations = check_jsonl(&composed, &cfg);
        self.checks.assert(violations.is_empty(), what);
        for v in &violations {
            println!("grid-local: violation {v}");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// Parses a worker's exit summary `STEALS ok=N failed=M served=K
/// inter_us=T` into `(served, inter_us)`.
fn parse_steals(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("STEALS ")?;
    let (mut served, mut inter) = (None, None);
    for part in rest.split_whitespace() {
        match part.split_once('=')? {
            ("served", v) => served = v.parse().ok(),
            ("inter_us", v) => inter = v.parse().ok(),
            _ => {}
        }
    }
    Some((served?, inter?))
}

/// Fibonacci argument for the steal scenario's distributed root job.
const STEAL_FIB_N: u64 = 34;
/// Frontier depth: 2^7 = 128 independent subjobs to spread around.
const STEAL_DEPTH: u32 = 7;

/// Worker flags from a space-separated list (no value may hold a space).
fn flags(list: &str) -> Vec<String> {
    list.split_whitespace().map(String::from).collect()
}

/// The `steal` scenario: a deliberately slow root worker in cluster 0
/// expands `fib(STEAL_FIB_N)` into a frontier of subjobs and exports them
/// through its steal server; full-speed thief workers in both clusters
/// drain the pool over the wire by CRS and send the values back. Verifies
/// that work spawned in one process really executes in others
/// (`net.steals.remote_ok`/`served` counters), that the distributed sum
/// matches the sequential reference, and that the thieves' `inter_comm`
/// overhead is reconstructed from measured steal wire time.
fn run_steal(mut grid: Grid, workers: usize, duration: Duration) -> Result<Vec<String>, Failure> {
    // Two clusters: CRS needs a remote tier.
    let spec = HubSpec {
        clusters: 2,
        nodes_per_cluster: workers + 4,
        heartbeat_timeout_ms: 1500,
        detect_interval_ms: 200,
    };
    let (hub, _) = grid.spawn_hub(&spec, &[])?;
    grid.connect_control(&hub)?;
    // Shared marker state fed by the stdout pumps.
    let root_result: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let root_done = Arc::new(AtomicBool::new(false));
    // (is_root, served, inter_us) per worker, from exit summaries.
    type StealLines = Arc<Mutex<Vec<(bool, u64, u64)>>>;
    let steals: StealLines = Arc::new(Mutex::new(Vec::new()));
    let steal_hook = |is_root: bool| {
        let steals = Arc::clone(&steals);
        move |line: &str| {
            if let Some((served, inter)) = parse_steals(line) {
                steals
                    .lock()
                    .expect("steals list")
                    .push((is_root, served, inter));
            }
        }
    };

    // --- Root: slow, cluster 0, owns the distributed computation ---------
    let root_metrics = format!("{}/steal_root_metrics.jsonl", grid.out);
    // Every steal-plane worker runs a quicker cadence than the default.
    let steal = flags("--steal on --duty 0.3 --period-ms 300 --heartbeat-ms 200");
    let root = flags(&format!(
        "--speed 0.1 --workload fib --root-arg {STEAL_FIB_N} --root-depth {STEAL_DEPTH} --out"
    ));
    let root_extra = [steal.clone(), root, vec![root_metrics.clone()]].concat();
    let rr = Arc::clone(&root_result);
    let rd = Arc::clone(&root_done);
    let sh = steal_hook(true);
    let root_node = grid.add_worker(0, &root_extra, "root", move |line| {
        if let Some(v) = line
            .strip_prefix("ROOT_RESULT=")
            .and_then(|r| r.trim().parse().ok())
        {
            *rr.lock().expect("root result") = Some(v);
        } else if line.starts_with("ROOT_DONE") {
            rd.store(true, Ordering::Release);
        }
        sh(line);
    })?;

    // --- Thieves: full speed, spread over both clusters -------------------
    let thief_metrics: Vec<String> = (0..workers - 1)
        .map(|i| format!("{}/steal_thief{i}_metrics.jsonl", grid.out))
        .collect();
    for (i, metrics) in thief_metrics.iter().enumerate() {
        let cluster = (i % 2) as u16; // at least one same- and one cross-cluster thief
        let extra = [steal.clone(), vec!["--out".into(), metrics.clone()]].concat();
        grid.add_worker(
            cluster,
            &extra,
            &format!("t{i}c{cluster}"),
            steal_hook(false),
        )?;
    }
    println!("grid-local: root n{root_node} + {} thieves up", workers - 1);

    // --- Wait for the distributed computation, then shut down -------------
    wait_for(duration, || root_done.load(Ordering::Acquire));
    // Let final stats reports drain before tearing the grid down.
    std::thread::sleep(Duration::from_millis(500));
    grid.teardown()?;

    let checks = &mut grid.checks;
    checks.assert(
        root_done.load(Ordering::Acquire),
        "root finished the distributed computation before the deadline",
    );
    let expected = sagrid_apps::fib_seq(STEAL_FIB_N);
    let got = *root_result.lock().expect("root result");
    checks.assert(
        got == Some(expected),
        &format!("distributed fib({STEAL_FIB_N}) = {got:?} matches sequential {expected}"),
    );
    let lines = steals.lock().expect("steals list").clone();
    let root_served: u64 = lines.iter().filter(|l| l.0).map(|l| l.1).sum();
    let thief_inter: u64 = lines.iter().filter(|l| !l.0).map(|l| l.2).sum();
    checks.assert(
        root_served > 0,
        &format!("root exported jobs to thieves over the wire (served={root_served})"),
    );
    let mut remote_ok = 0;
    for path in &thief_metrics {
        remote_ok += counter_total(&read_jsonl(path)?.1, "net.steals.remote_ok");
    }
    checks.assert(
        remote_ok >= 1,
        &format!(
            "thieves executed jobs stolen from the root process \
             (net.steals.remote_ok={remote_ok} across steal_thief*_metrics.jsonl)"
        ),
    );
    checks.assert(
        thief_inter > 0,
        &format!("thief inter_comm was reconstructed from measured wire time ({thief_inter}us)"),
    );
    checks.assert(
        std::fs::metadata(&root_metrics).is_ok_and(|m| m.len() > 0),
        "root dumped a non-empty metrics JSONL",
    );
    Ok(grid.checks.failures)
}

/// A swarm of protocol-complete synthetic workers multiplexed on ONE
/// client-side [`Reactor`] — the only way to put thousands of concurrent
/// workers in front of the hub on a single box. Each client joins, holds
/// an ~800ms heartbeat cadence (sharded so every turn sends 1/8th of the
/// beats), and is individually disconnectable/reclaimable, which is what
/// the churn and crash waves need.
struct Swarm {
    reactor: Reactor,
    /// Each synthetic worker's node id: the one the hub granted, `None`
    /// until the `JoinAck` lands.
    clients: BTreeMap<Token, Option<u32>>,
    /// Joins sent whose `JoinAck` has not come back yet.
    pending_join: usize,
    accepted: u64,
    /// Refusal reasons, in arrival order (the blacklist proof reads them).
    refusals: Vec<String>,
    /// Tokens we closed on purpose; their `Closed` events are expected.
    expect_close: BTreeSet<Token>,
    /// Connections the *hub* dropped without us asking — must stay zero:
    /// a healthy hub never hangs up on a live, heartbeating worker.
    unexpected_closes: u64,
    ev: Vec<ReactorEvent>,
    hb_pass: u64,
    last_hb: Instant,
}

impl Swarm {
    fn new() -> Result<Self, Failure> {
        Ok(Self {
            reactor: Reactor::new(&Metrics::disabled())
                .map_err(|e| Failure::Infra(format!("swarm reactor: {e}")))?,
            clients: BTreeMap::new(),
            pending_join: 0,
            accepted: 0,
            refusals: Vec::new(),
            expect_close: BTreeSet::new(),
            unexpected_closes: 0,
            ev: Vec::new(),
            hb_pass: 0,
            last_hb: Instant::now(),
        })
    }

    /// Dials the hub and sends a `Join` (fresh or claiming `claim`). The
    /// ack is collected later by [`Swarm::turn`].
    fn join_one(
        &mut self,
        hub_addr: &str,
        cluster: u16,
        claim: Option<u32>,
    ) -> Result<Token, Failure> {
        let t = self
            .reactor
            .connect(hub_addr)
            .map_err(|e| Failure::Infra(format!("swarm connect: {e}")))?;
        self.reactor.send(
            t,
            &Message::Join {
                cluster: ClusterId(cluster),
                claim: claim.map(NodeId),
            },
        );
        self.clients.insert(t, None);
        self.pending_join += 1;
        Ok(t)
    }

    /// Disconnects a client on purpose (its `Closed` becomes expected).
    /// From the hub's view this is exactly what a SIGKILLed worker process
    /// looks like: a clean TCP close followed by heartbeat silence.
    fn drop_client(&mut self, t: Token) {
        self.clients.remove(&t);
        self.expect_close.insert(t);
        self.reactor.close(t);
    }

    /// One event-loop turn: poll, absorb acks/closes, and keep the
    /// heartbeat cadence going. Every wait in the scenario funnels through
    /// here so the swarm never starves while the launcher watches for
    /// something else.
    fn turn(&mut self, wait: Duration) -> Result<(), Failure> {
        self.reactor
            .poll(&mut self.ev, wait)
            .map_err(|e| Failure::Infra(format!("swarm poll: {e}")))?;
        let events: Vec<ReactorEvent> = self.ev.drain(..).collect();
        for ev in events {
            match ev {
                ReactorEvent::Frame(
                    t,
                    Message::JoinAck {
                        node,
                        accepted,
                        reason,
                    },
                ) => {
                    self.pending_join = self.pending_join.saturating_sub(1);
                    if accepted {
                        if let Some(c) = self.clients.get_mut(&t) {
                            *c = Some(node.0);
                        }
                        self.accepted += 1;
                    } else {
                        self.refusals.push(reason);
                        self.drop_client(t);
                    }
                }
                // Epoch stamps and peer directories are protocol-legal
                // noise for a swarm that runs no steal plane.
                ReactorEvent::Frame(..) => {}
                ReactorEvent::Closed(t) => {
                    if !self.expect_close.remove(&t) && self.clients.remove(&t).is_some() {
                        self.unexpected_closes += 1;
                    }
                }
                ReactorEvent::Accepted(..) | ReactorEvent::Timer(_) => {}
            }
        }
        // Sharded heartbeats: one pass per ~100ms beats token-shard
        // `pass % 8`, so each live client beats about every 800ms against
        // the hub's 3000ms timeout — slow enough to matter at 5000 clients,
        // fast enough that only true silence kills a node.
        if self.last_hb.elapsed() >= Duration::from_millis(100) {
            self.last_hb = Instant::now();
            self.hb_pass = self.hb_pass.wrapping_add(1);
            let shard = self.hb_pass % 8;
            let beats: Vec<(Token, u32)> = self
                .clients
                .iter()
                .filter(|(t, _)| *t % 8 == shard)
                .filter_map(|(t, c)| c.map(|n| (*t, n)))
                .collect();
            for (t, n) in beats {
                self.reactor
                    .send(t, &Message::Heartbeat { node: NodeId(n) });
            }
        }
        Ok(())
    }

    /// Turns until every outstanding join is answered or the deadline hits.
    fn settle_joins(&mut self, what: &str, deadline: Instant) -> Result<(), Failure> {
        while self.pending_join > 0 {
            if Instant::now() > deadline {
                return Err(Failure::Timeout(format!(
                    "{what}: {} joins still unanswered",
                    self.pending_join
                )));
            }
            self.turn(Duration::from_millis(10))?;
        }
        Ok(())
    }
}

/// The hub process's live OS thread count (`/proc/<pid>/status`). This is
/// the number the whole reactor exists for: it must not scale with the
/// connection count.
fn os_threads_of(pid: u32) -> Option<u64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The `churn-soak` scenario: the reactor's scale and lifecycle proof.
/// See the module docs for the wave structure.
fn run_churn_soak(
    mut grid: Grid,
    workers: usize,
    duration: Duration,
) -> Result<Vec<String>, Failure> {
    const CLUSTERS: usize = 8;
    /// Ceiling on the hub's OS threads at full load. The hub needs one
    /// serve thread; the slack covers runtime helpers, never connections.
    const HUB_THREAD_BOUND: u64 = 16;
    if workers < 64 {
        return Err(Failure::Infra(
            "churn-soak needs at least 64 workers".into(),
        ));
    }
    let overall_deadline = Instant::now() + duration;
    let crash_count = 32.min(workers / 8);
    let churn_count = (workers / 25).clamp(8, 256);
    let grow_count: u32 = 64;
    // Capacity: the initial population, plus ids consumed by blacklisted
    // crash victims, plus room for the grow wave (spread over clusters —
    // budgeted as if one cluster absorbed them all).
    let spec = HubSpec {
        clusters: CLUSTERS,
        nodes_per_cluster: workers.div_ceil(CLUSTERS) + crash_count + grow_count as usize,
        heartbeat_timeout_ms: 3000,
        detect_interval_ms: 200,
    };
    let (hub_addr, hub_pid) = grid.spawn_hub(&spec, &[])?;
    println!("grid-local: churn-soak, {workers} synthetic workers");
    grid.connect_control(&hub_addr)?;
    let events_rx = grid.control_events.take().expect("control connected");
    let died = Arc::clone(&grid.died);
    let join_timeout = grid.join_timeout;
    let checks = &mut grid.checks;

    // --- Wave 0: the join storm ------------------------------------------
    // The listen backlog is 128, so connects go out in paced batches with
    // poll turns between them — the hub accepts and acks while the swarm
    // keeps dialing, exactly how a real fleet arrives.
    let mut swarm = Swarm::new()?;
    let storm_start = Instant::now();
    for i in 0..workers {
        swarm.join_one(&hub_addr, (i % CLUSTERS) as u16, None)?;
        while swarm.pending_join >= 100 {
            if Instant::now() > overall_deadline {
                return Err(Failure::Timeout("join storm stalled".into()));
            }
            swarm.turn(Duration::from_millis(2))?;
        }
    }
    swarm.settle_joins("join storm", overall_deadline)?;
    println!(
        "grid-local: {} workers joined in {:?}",
        swarm.accepted,
        storm_start.elapsed()
    );
    checks.assert(
        swarm.accepted == workers as u64 && swarm.refusals.is_empty(),
        &format!(
            "all {workers} workers joined ({} accepted, {} refused)",
            swarm.accepted,
            swarm.refusals.len()
        ),
    );

    // The tentpole number: thousands of live connections, a flat hub
    // thread count.
    let threads_full = os_threads_of(hub_pid).unwrap_or(u64::MAX);
    checks.assert(
        threads_full <= HUB_THREAD_BOUND,
        &format!(
            "hub serves {} connections on {threads_full} OS threads (bound {HUB_THREAD_BOUND}, \
             independent of worker count)",
            swarm.clients.len()
        ),
    );

    // --- Wave 1: churn — disconnect and reclaim inside the window --------
    // An unexpected close is NOT a death: the node keeps its id as long as
    // it claim-rejoins before heartbeat silence condemns it.
    let live = |swarm: &Swarm, n: usize| -> Vec<(Token, u32)> {
        swarm
            .clients
            .iter()
            .filter_map(|(t, c)| c.map(|n| (*t, n)))
            .take(n)
            .collect()
    };
    let churn_victims = live(&swarm, churn_count);
    for (t, _) in &churn_victims {
        swarm.drop_client(*t);
    }
    let accepted_before = swarm.accepted;
    for (_, node) in &churn_victims {
        swarm.join_one(&hub_addr, 0, Some(*node))?;
    }
    swarm.settle_joins("churn reclaim", Instant::now() + Duration::from_secs(30))?;
    checks.assert(
        swarm.accepted - accepted_before == churn_victims.len() as u64,
        &format!(
            "all {} churned workers reclaimed their node ids after reconnect",
            churn_victims.len()
        ),
    );

    // --- Wave 2: silent crashes — death by heartbeat timeout -------------
    let crash_victims = live(&swarm, crash_count);
    let dead_ids: BTreeSet<u32> = crash_victims.iter().map(|&(_, n)| n).collect();
    for (t, _) in &crash_victims {
        swarm.drop_client(*t);
    }
    // 3000ms of silence + a detect sweep; the rest of the swarm keeps
    // heartbeating through the same turns, proving detection is selective.
    let death_deadline = Instant::now() + Duration::from_secs(20);
    while !dead_ids.is_subset(&died.lock().expect("died set")) {
        if Instant::now() > death_deadline {
            return Err(Failure::Timeout(format!(
                "hub never declared all {} silent workers dead (got {:?})",
                dead_ids.len(),
                died.lock().expect("died set")
            )));
        }
        swarm.turn(Duration::from_millis(20))?;
    }
    let died_now = died.lock().expect("died set").clone();
    checks.assert(
        died_now == dead_ids,
        &format!(
            "exactly the {} silent workers were declared dead (no collateral deaths among \
             {} heartbeating survivors)",
            dead_ids.len(),
            swarm.clients.len()
        ),
    );
    // Blacklist proof: a dead node's id must be refused on claim-rejoin.
    let refusals_before = swarm.refusals.len();
    let victim = *dead_ids.iter().next().expect("at least one crash victim");
    swarm.join_one(&hub_addr, 0, Some(victim))?;
    swarm.settle_joins("blacklist probe", Instant::now() + join_timeout)?;
    let refusal = swarm
        .refusals
        .get(refusals_before)
        .cloned()
        .unwrap_or_default();
    checks.assert(
        refusal.contains("blacklist"),
        &format!("dead node n{victim} is refused on rejoin (reason: {refusal:?})"),
    );

    // --- Wave 3: grow — launcher-driven capacity grants ------------------
    grid.send(Message::Grow {
        count: grow_count,
        prefer: vec![],
        min_uplink_bps: None,
        min_speed: None,
    });
    let checks = &mut grid.checks;
    let mut grants: Vec<(u32, u16)> = Vec::new();
    let grant_deadline = Instant::now() + join_timeout;
    while grants.len() < grow_count as usize && Instant::now() < grant_deadline {
        swarm.turn(Duration::from_millis(10))?;
        while let Ok(ev) = events_rx.try_recv() {
            if let NetEvent::Message(_, Message::SpawnWorker { node, cluster }) = ev {
                grants.push((node.0, cluster.0));
            }
        }
    }
    checks.assert(
        grants.len() == grow_count as usize,
        &format!(
            "grow produced {} spawn grants of {grow_count} requested",
            grants.len()
        ),
    );
    let accepted_before = swarm.accepted;
    for &(node, cluster) in &grants {
        swarm.join_one(&hub_addr, cluster, Some(node))?;
    }
    swarm.settle_joins("grow claims", Instant::now() + Duration::from_secs(30))?;
    checks.assert(
        swarm.accepted - accepted_before == grants.len() as u64,
        &format!(
            "every grow grant claim-joined ({} new workers)",
            grants.len()
        ),
    );

    // --- Steady-state dwell, then the flat-thread re-check ---------------
    let dwell_end = Instant::now() + Duration::from_secs(2);
    while Instant::now() < dwell_end {
        swarm.turn(Duration::from_millis(50))?;
    }
    let threads_dwell = os_threads_of(hub_pid).unwrap_or(u64::MAX);
    checks.assert(
        threads_dwell <= HUB_THREAD_BOUND,
        &format!(
            "hub thread count still {threads_dwell} after churn/crash/grow waves \
             ({} live connections)",
            swarm.clients.len()
        ),
    );
    checks.assert(
        swarm.unexpected_closes == 0,
        &format!(
            "the hub never hung up on a live worker (unexpected closes: {})",
            swarm.unexpected_closes
        ),
    );

    // --- Teardown: farewells, shutdown, orphan sweep ----------------------
    for (t, n) in live(&swarm, usize::MAX) {
        swarm.reactor.send(t, &Message::Leaving { node: NodeId(n) });
    }
    // Push every farewell onto the wire before the shutdown races them.
    swarm.reactor.drain(Duration::from_secs(5));
    grid.teardown()?;
    let (_, hub_metrics) = read_jsonl(&format!("{}/run_hub.jsonl", grid.out))?;
    let accepts = counter_total(&hub_metrics, "net.reactor.accepts");
    grid.checks.assert(
        accepts >= workers as u64,
        &format!(
            "hub reactor accepted the whole fleet (net.reactor.accepts={accepts} >= {workers})"
        ),
    );
    grid.checks.assert(
        hub_metrics
            .iter()
            .any(|v| v.get("name").and_then(|n| n.as_str()) == Some("net.reactor.loop_latency_us")),
        "hub metrics JSONL carries the net.reactor.* instruments",
    );
    Ok(grid.checks.failures)
}

/// Inputs of a `--scenario-file` run.
struct ScenarioArgs {
    path: String,
    /// Real worker processes per layout cluster (the DES node counts
    /// scale down onto this).
    wpc: usize,
    /// Virtual seconds → wall seconds factor (0.01 ⇒ a scenario minute
    /// takes 600 ms of wall time).
    time_scale: f64,
    /// Minimum coordinator decision events the run must emit.
    min_decisions: usize,
}

/// Wall-clock tail after the last injection, sized so the coordinator
/// (600 ms period) demonstrably recovers inside the invariant checker's
/// 2 s settle window with room to spare.
const SCENARIO_SETTLE: Duration = Duration::from_millis(6000);
/// Wall-clock budget of one hub failover: the standby's heartbeat-timeout
/// silence, the election, and every survivor's rejoin.
const FAILOVER_MS: u64 = 4000;

/// Drives a declarative scenario file against real processes: the same
/// events the DES executes are mapped onto `Perturb` fan-outs, SIGKILLs,
/// capacity grants, leave signals and hub crashes, each injection kind
/// with a probe is probed, and the run is judged by the same
/// crates/scenario adaptation invariants, from JSONL alone.
fn run_scenario_file(mut grid: Grid, sa: ScenarioArgs) -> Result<Vec<String>, Failure> {
    let text = std::fs::read_to_string(&sa.path).map_err(|e| format!("read {}: {e}", sa.path))?;
    let spec = ScenarioSpec::parse(&text)?;
    let topology = spec.grid.build();
    // `compile` lowers what the DES executes; a hub crash has no DES
    // primitive and rides along as `None`. Stable sort: same-time
    // primitives keep file order (the property scenario 5 — link first,
    // CPUs second — depends on).
    let mut steps: Vec<(u64, Option<Injection>)> = spec
        .compile(&topology)?
        .into_iter()
        .map(|s| (s.at.0, Some(s.injection)))
        .collect();
    let hub_crashes: Vec<u64> = spec
        .events
        .iter()
        .filter(|e| e.event == EventKind::CrashHub)
        .map(|e| e.at_us)
        .collect();
    steps.extend(hub_crashes.iter().map(|&at| (at, None)));
    steps.sort_by_key(|s| s.0);
    println!(
        "grid-local: scenario \"{}\" — {} events -> {} injections, time scale {}",
        spec.name,
        spec.events.len(),
        steps.len(),
        sa.time_scale,
    );

    // DES node counts scale down to `wpc` processes per cluster: an event
    // hitting n of a cluster's N simulated nodes hits ceil(n·wpc/N) of its
    // wpc real workers.
    let layout_nodes = |cluster: u16| -> usize {
        spec.layout
            .iter()
            .find(|&&(c, _)| c == cluster)
            .map_or(sa.wpc.max(1), |&(_, n)| n.max(1))
    };
    let scale_count = |cluster: u16, n: usize| -> usize {
        (n * sa.wpc)
            .div_ceil(layout_nodes(cluster))
            .clamp(1, sa.wpc)
    };

    let hub_spec = HubSpec {
        clusters: topology.clusters.len(),
        nodes_per_cluster: sa.wpc * 2 + 4,
        heartbeat_timeout_ms: 700,
        detect_interval_ms: 100,
    };
    let (hub, _) = grid.spawn_hub(&hub_spec, &[])?;
    // One standby per hub crash. Each joins the failover list everyone
    // dials after the primary, and its snapshot must be aboard before the
    // grid starts filling the replication log.
    for k in 1..=hub_crashes.len() {
        grid.spawn_hub(
            &hub_spec,
            &["--standby", &k.to_string(), "--replicate-from", &hub],
        )?;
    }
    let standbys = &grid.hubs[1..];
    let attached = || {
        standbys
            .iter()
            .all(|h| h.log.lock().expect("hub log").attached)
    };
    if !wait_for(grid.join_timeout, attached) {
        return Err(Failure::Timeout(
            "standby never attached to the primary".into(),
        ));
    }
    // The adaptation loop must not judge the grid while a hub failover is
    // in flight: a transient efficiency dip could shrink a survivor away
    // before it fails over. So its warmup outlasts the last hub crash.
    let warmup_ms = hub_crashes
        .iter()
        .map(|&at| (at as f64 * sa.time_scale / 1e3) as u64 + FAILOVER_MS)
        .fold(2500, u64::max);
    let coord_epoch = grid.spawn_coordinator(warmup_ms)?;
    grid.connect_control(&hub)?;
    grid.apply_grows();

    // A failover must carry the steal plane's peer directory across, so
    // the workers of a file that crashes its hub announce themselves on it.
    let extra = flags(if hub_crashes.is_empty() {
        ""
    } else {
        "--steal on"
    });
    for &(cluster, _) in &spec.layout {
        for i in 0..sa.wpc {
            grid.add_worker(cluster, &extra, &format!("c{cluster}w{i}"), |_| {})?;
        }
    }
    println!(
        "grid-local: {} workers up across {} clusters",
        grid.procs.iter().filter(|p| p.worker.is_some()).count(),
        spec.layout.len()
    );

    // --- Timed injection loop --------------------------------------------
    // Each primitive fires at its virtual time scaled to wall clock; the
    // record written for the invariant checker carries the *actual* apply
    // time rebased onto the coordinator's epoch, so injection and decision
    // timestamps share one axis.
    let t0 = Instant::now();
    let mut records = String::new();
    // (label, cluster, victims) of every crash injection, probed below.
    let mut crashes: Vec<(String, u16, Vec<u32>)> = Vec::new();
    // (label, apply time, index in `Grid::perturbed`) of every partial
    // slow-down, and the number of `Perturb`s sent so far.
    let mut slowdowns: Vec<(String, u64, usize)> = Vec::new();
    let mut perturbs = 0;
    // Every crash victim before each hub crash.
    let mut victims_before_hub_crash: Vec<Vec<u32>> = Vec::new();
    for (at, step) in steps {
        let due = t0 + Duration::from_micros((at as f64 * sa.time_scale) as u64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let at_us = coord_epoch.elapsed().as_micros() as u64;
        let label = |kind: &str, cluster: ClusterId| {
            format!("{kind} {cluster} at +{:.2}s", t0.elapsed().as_secs_f64())
        };
        let (kind, cluster) = match step {
            None => {
                victims_before_hub_crash.push(crashes.iter().flat_map(|c| c.2.clone()).collect());
                grid.crash_hub()?;
                ("crash_hub", None)
            }
            Some(Injection::CpuLoad {
                cluster,
                count,
                factor,
            }) => {
                grid.send(Message::Perturb {
                    cluster,
                    count: count.map_or(0, |n| scale_count(cluster.0, n) as u32),
                    speed: Some((1.0 / factor).clamp(0.05, 1.0)),
                    inter_frac: None,
                });
                if count.is_some() && factor > 1.0 {
                    slowdowns.push((label("cpu_load", cluster), at_us, perturbs));
                }
                perturbs += 1;
                ("cpu_load", Some(cluster.0))
            }
            Some(Injection::UplinkBandwidth {
                cluster,
                bandwidth_bps,
            }) => {
                // Map the shaped uplink onto a synthetic inter-cluster wait
                // fraction: full bandwidth ⇒ 0, a starved link ⇒ capped at
                // 0.45 of the period — far beyond the coordinator's 0.08
                // exceptional-overhead threshold.
                let base = topology.clusters[cluster.index()].uplink.bandwidth_bps;
                grid.send(Message::Perturb {
                    cluster,
                    count: 0,
                    speed: None,
                    inter_frac: Some((1.0 - bandwidth_bps / base).clamp(0.0, 0.45)),
                });
                perturbs += 1;
                ("uplink_bandwidth", Some(cluster.0))
            }
            Some(
                inj @ (Injection::CrashCluster { cluster } | Injection::CrashNodes { cluster, .. }),
            ) => {
                let (kind, count) = match inj {
                    Injection::CrashNodes { count, .. } => {
                        ("crash_nodes", scale_count(cluster.0, count))
                    }
                    _ => ("crash_cluster", usize::MAX),
                };
                let victims = grid.take_workers(cluster.0, count);
                for n in &victims {
                    grid.sigkill(&format!("worker-{n}"))?;
                }
                crashes.push((label(kind, cluster), cluster.0, victims));
                (kind, Some(cluster.0))
            }
            Some(Injection::Grow { count, prefer }) => {
                // An external capacity grant (not a coordinator decision):
                // the hub allocates from the pool and replies SpawnWorker,
                // which the grow handler turns into real processes. The
                // grant is sized against the first layout entry (the
                // preferred cluster may be an empty spare site).
                let base = spec
                    .layout
                    .first()
                    .map_or(sa.wpc.max(1), |&(_, n)| n.max(1));
                grid.send(Message::Grow {
                    count: ((count * sa.wpc).div_ceil(base)).max(1) as u32,
                    prefer: prefer.into_iter().collect(),
                    min_uplink_bps: None,
                    min_speed: None,
                });
                ("grow", None)
            }
            Some(Injection::Shrink { cluster, count }) => {
                for n in grid.take_workers(cluster.0, scale_count(cluster.0, count)) {
                    grid.send(Message::SignalLeave { node: NodeId(n) });
                }
                ("shrink", Some(cluster.0))
            }
        };
        records.push_str(&injection_record(at_us, kind, cluster));
        println!(
            "grid-local: injected {kind} at +{:.2}s (virtual {:.1}s)",
            t0.elapsed().as_secs_f64(),
            at as f64 / 1e6,
        );
    }

    // --- Probe every crash inside the settle window, then shut down ------
    let settle_end = Instant::now() + SCENARIO_SETTLE;
    for (label, cluster, victims) in &crashes {
        if victims.is_empty() {
            println!("grid-local: {label}: no live workers left to crash, nothing to probe");
            continue;
        }
        grid.probe_crash(*cluster, victims, label)?;
    }
    if let Some(wait) = settle_end.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    grid.teardown()?;

    // The standbys' JSONL holds the hub_failover events and replica
    // counters; the launcher knows nothing the files don't say.
    let mut streams = vec![records];
    for (k, victims) in (1..).zip(&victims_before_hub_crash) {
        let (text, standby) = read_jsonl(&format!("{}/run_hub_standby{k}.jsonl", grid.out))?;
        grid.assert_takeover(&standby, k, victims);
        streams.push(text);
    }
    let (coord_text, decisions) = grid.decisions()?;
    for (label, _, victims) in crashes.iter().filter(|c| !c.2.is_empty()) {
        grid.assert_blacklisted(&decisions, victims, label);
    }
    // A partial slow-down is the paper's overloaded-processor case: the
    // badness ranking must single out a node the hub slowed.
    let perturbed = grid.perturbed.lock().expect("perturbed list").clone();
    for (label, at_us, seq) in &slowdowns {
        let slowed = perturbed.get(*seq).cloned().unwrap_or_default();
        let is_slowed = |n: &NodeId| slowed.contains(&n.0);
        let removal = decisions
            .iter()
            .find(|d| d.kind == "remove-nodes" && d.at.0 >= *at_us);
        grid.checks.assert(
            removal.is_some_and(|d| d.removed.iter().any(is_slowed)),
            &format!(
                "{label}: badness ranking removed the slow worker {slowed:?} (remove-nodes decision)"
            ),
        );
        grid.checks.assert(
            removal.is_some_and(|d| d.badness.first().is_some_and(|b| is_slowed(&b.node))),
            &format!("{label}: slow worker ranked worst in the removal's badness provenance"),
        );
    }
    streams.push(coord_text);
    grid.judge(
        &streams,
        "scenario_stream.jsonl",
        "adaptation + hub-failover invariants hold on the composed stream",
    )?;
    grid.checks.assert(
        decisions.len() >= sa.min_decisions,
        &format!(
            "coordinator emitted at least {} reconstructible decision events (got {})",
            sa.min_decisions,
            decisions.len()
        ),
    );
    Ok(grid.checks.failures)
}

const USAGE: &str =
    "usage: grid-local (--scenario-file PATH | --scenario steal|churn-soak) [flags]";

fn run() -> Result<Vec<String>, Failure> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "workers",
            "scenario",
            "scenario-file",
            "workers-per-cluster",
            "time-scale",
            "join-timeout-ms",
            "min-decisions",
            "duration-ms",
            "out",
        ],
    )?;
    let out: String = args.get_or("out", "target/grid_local_out".to_string())?;
    let join_timeout = Duration::from_millis(args.get_or("join-timeout-ms", 10_000u64)?);
    match (args.get("scenario-file"), args.get("scenario")) {
        (Some(path), None) => {
            let sa = ScenarioArgs {
                path: path.to_string(),
                wpc: args.get_or("workers-per-cluster", 3)?,
                time_scale: args.get_or("time-scale", 0.01)?,
                min_decisions: args.get_or("min-decisions", 1)?,
            };
            run_scenario_file(Grid::new(out, join_timeout)?, sa)
        }
        (None, Some("steal")) => {
            let workers: usize = args.get_or("workers", 4)?;
            if workers < 3 {
                return Err(Failure::Infra("need at least 3 workers".to_string()));
            }
            let duration = Duration::from_millis(args.get_or("duration-ms", 30_000u64)?);
            run_steal(Grid::new(out, join_timeout)?, workers, duration)
        }
        (None, Some("churn-soak")) => {
            // The soak defaults to the headline population; `--workers`
            // scales it down for bounded CI smokes. `--duration-ms` is the
            // overall budget, not a dwell time — the waves finish as fast
            // as they can.
            let workers: usize = args.get_or("workers", 5000)?;
            let duration = Duration::from_millis(args.get_or("duration-ms", 180_000u64)?);
            run_churn_soak(Grid::new(out, join_timeout)?, workers, duration)
        }
        _ => Err(Failure::Infra(USAGE.to_string())),
    }
}

fn main() {
    // Hold the reaper across `run()` and drop it explicitly before the
    // `process::exit` calls below: `exit` skips destructors, so every
    // failure path would otherwise leak whatever children the run had
    // spawned (most visibly the hub on the exit-4 timeout path).
    let reaper = ReapGuard;
    let verdict = run();
    drop(reaper);
    match verdict {
        Ok(failures) if failures.is_empty() => {
            println!("grid-local: PASS");
        }
        Ok(failures) => {
            println!("grid-local: FAIL ({} checks)", failures.len());
            std::process::exit(1);
        }
        Err(Failure::Infra(e)) => {
            eprintln!("grid-local: {e}");
            std::process::exit(2);
        }
        Err(Failure::Timeout(e)) => {
            eprintln!("grid-local: timeout: {e}");
            std::process::exit(4);
        }
    }
}
