//! `hub_control_plane`: an in-process `Hub` (`Hub::bind` + `run` on one
//! thread) driven by one client `Reactor` on this thread over loopback.
//!
//! After the timed set-ups, the run repeats rounds of three closed-loop
//! phases until its budget is spent, never with more than two client
//! connections open:
//!
//! 1. **Stats relay, window 1** — the worker connection sends a
//!    `StatsReport`, the coordinator connection receives the hub's
//!    forward; then the next one.
//! 2. **Stats relay, window [`WINDOW`]** — the same with [`WINDOW`]
//!    reports in flight.
//! 3. **Join churn** — the worker leaves; then, one connection at a time:
//!    connect → `Join{claim: None}` → `JoinAck` → `Leaving` → close. The
//!    worker joins again for the next round.
//!
//! Two pitfalls are handled here: the coordinator is attached (its
//! `HubEpoch` received) before the first report, since the hub drops
//! reports while no coordinator is attached; and the worker heartbeats
//! throughout, since the hub declares a worker silent for 2 s dead and
//! then drops its reports.
//!
//! The hub prints one `EVENT` line per join and leave on stdout. That
//! write is part of the join path, so the benchmark always sends this
//! process's stdout to the same place: a regular file (see `run.py`).

use crate::inputs::HubInputs;
use crate::stats::{hist_quantile, median, tail};
use crate::sys::ThreadClock;
use crate::trace::Tracer;
use crate::{Reading, WorkloadRun};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{Metrics, MetricsReport};
use sagrid_core::stats::MonitoringReport;
use sagrid_net::hub::{Hub, HubConfig};
use sagrid_net::reactor::{Reactor, ReactorEvent, Token};
use sagrid_net::wire::Message;
use std::collections::{BTreeSet, VecDeque};
use std::os::unix::thread::JoinHandleExt;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reports in flight in the windowed relay phase. Enough to keep the hub
/// thread busy, so the rate is its forwarding capacity: at 64 in flight
/// the pipeline is not saturated and the rate hangs on wake-up timing
/// (87k–152k reports/s from one run to the next on a 2-vCPU Xeon VM,
/// against 331k–348k at 512).
pub const WINDOW: usize = 512;
/// Heartbeat period of the relay worker (the hub suspects after 1 s and
/// declares death after 2 s of silence).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);
/// How long any single reply may take before it counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// How much one run does: set-ups, then rounds of (window-1 relay,
/// window-[`WINDOW`] relay, join churn) until the budget is spent, so that
/// every metric samples the whole run rather than one stretch of it.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Set-up samples timed; each is the total of `setup_group` set-ups,
    /// and the last set-up serves the measured phase.
    pub setups: usize,
    /// Hub set-ups per sample.
    pub setup_group: usize,
    /// Rounds go on until this much time has passed...
    pub budget: Duration,
    /// ...and number at least this many.
    pub min_rounds: usize,
    /// Reports relayed one at a time per round.
    pub relay1: usize,
    /// Duration of the windowed relay per round.
    pub relay_w: Duration,
    /// Sequential joins per round.
    pub joins: usize,
}

impl Plan {
    /// The workload's plan for a budget of `secs` seconds (rounds of
    /// about a second; 30 s make about 15,000 joins, well inside the
    /// loopback ephemeral port range).
    pub fn for_budget(secs: f64) -> Self {
        Self {
            setups: 9,
            setup_group: 10,
            budget: Duration::from_secs_f64(secs),
            min_rounds: 1,
            relay1: 4_000,
            relay_w: Duration::from_millis(600),
            joins: 500,
        }
    }

    /// A short run, for probing the hub's layers from another workload.
    pub fn probe() -> Self {
        Self {
            setups: 1,
            setup_group: 1,
            budget: Duration::ZERO,
            min_rounds: 2,
            relay1: 1_000,
            relay_w: Duration::from_millis(100),
            joins: 200,
        }
    }
}

/// The client side of one hub instance.
struct Session {
    addr: String,
    hub: JoinHandle<Metrics>,
    hub_clock: Option<ThreadClock>,
    rx: Reactor,
    events: Vec<ReactorEvent>,
    coord: Token,
    attached: bool,
    worker: Option<(Token, NodeId)>,
    last_heartbeat: Instant,
    heartbeats: u64,
    /// Reports the coordinator received, with their receipt time.
    arrivals: VecDeque<(Instant, MonitoringReport)>,
    /// Frames that arrived on a churn connection.
    replies: Vec<(Token, Message)>,
    closed: BTreeSet<Token>,
}

impl Session {
    /// Binds a hub, starts it on its own thread, attaches the coordinator
    /// and joins the relay worker.
    fn open() -> Result<Session, String> {
        let hub = Hub::bind("127.0.0.1:0", HubConfig::default(), Metrics::enabled())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = format!("127.0.0.1:{}", hub.port());
        let cpus = crate::sys::allowed_cpus();
        let handle = std::thread::spawn(move || {
            if cpus.len() >= 2 {
                crate::sys::pin_to_cpu(cpus[0]);
            }
            hub.run()
        });
        let hub_clock = ThreadClock::of(handle.as_pthread_t());
        let mut rx = Reactor::new(&Metrics::disabled()).map_err(|e| e.to_string())?;
        let coord = rx.connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let mut s = Session {
            addr,
            hub: handle,
            hub_clock,
            rx,
            events: Vec::new(),
            coord,
            attached: false,
            worker: None,
            last_heartbeat: Instant::now(),
            heartbeats: 0,
            arrivals: VecDeque::new(),
            replies: Vec::new(),
            closed: BTreeSet::new(),
        };
        s.rx.send(coord, &Message::CoordinatorHello);
        s.pump_until(|s| s.attached)?;
        let worker = s.connect()?;
        s.rx.send(
            worker,
            &Message::Join {
                cluster: ClusterId(0),
                claim: None,
            },
        );
        let node = s.await_join(worker)?;
        s.worker = Some((worker, node));
        s.last_heartbeat = Instant::now();
        Ok(s)
    }

    fn connect(&mut self) -> Result<Token, String> {
        self.rx
            .connect(&self.addr)
            .map_err(|e| format!("connect: {e}"))
    }

    /// One reactor turn: sorts what arrived and keeps the worker alive.
    fn pump(&mut self, wait: Duration) -> Result<(), String> {
        self.rx
            .poll(&mut self.events, wait)
            .map_err(|e| format!("poll: {e}"))?;
        let at = Instant::now();
        for ev in self.events.drain(..) {
            match ev {
                ReactorEvent::Frame(t, Message::StatsReport { report, .. }) if t == self.coord => {
                    self.arrivals.push_back((at, report));
                }
                ReactorEvent::Frame(t, Message::HubEpoch { .. }) if t == self.coord => {
                    self.attached = true;
                }
                ReactorEvent::Frame(t, msg) if t != self.coord => self.replies.push((t, msg)),
                ReactorEvent::Closed(t) => {
                    self.closed.insert(t);
                }
                _ => {}
            }
        }
        if let Some((w, node)) = self.worker {
            if self.last_heartbeat.elapsed() >= HEARTBEAT_EVERY {
                self.rx.send(w, &Message::Heartbeat { node });
                self.heartbeats += 1;
                self.last_heartbeat = Instant::now();
            }
        }
        Ok(())
    }

    fn pump_until(&mut self, mut done: impl FnMut(&mut Session) -> bool) -> Result<(), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !done(self) {
            if Instant::now() > deadline {
                return Err("timed out waiting for the hub".into());
            }
            self.pump(Duration::from_millis(5))?;
        }
        Ok(())
    }

    /// Takes the first reply on `token` matching `pick`.
    fn take_reply<T>(&mut self, token: Token, pick: impl Fn(&Message) -> Option<T>) -> Option<T> {
        let i = self
            .replies
            .iter()
            .position(|(t, m)| *t == token && pick(m).is_some())?;
        let (_, m) = self.replies.remove(i);
        pick(&m)
    }

    /// Waits for `JoinAck` and then `HubEpoch` on `token` (reading both
    /// means nothing is left unread when the connection closes).
    fn await_join(&mut self, token: Token) -> Result<NodeId, String> {
        let mut ack = None;
        self.pump_until(|s| {
            if ack.is_none() {
                ack = s.take_reply(token, |m| match m {
                    Message::JoinAck {
                        node,
                        accepted,
                        reason,
                    } => Some((*node, *accepted, reason.clone())),
                    _ => None,
                });
            }
            ack.is_some()
        })?;
        let (node, accepted, reason) = ack.expect("set above");
        if !accepted {
            return Err(format!("join refused: {reason}"));
        }
        self.pump_until(|s| {
            s.take_reply(token, |m| {
                matches!(m, Message::HubEpoch { .. }).then_some(())
            })
            .is_some()
        })?;
        Ok(node)
    }

    /// Sends `Leaving`, closes `token` and waits until it is gone.
    fn leave(&mut self, token: Token, node: NodeId) -> Result<(), String> {
        self.rx.send(token, &Message::Leaving { node });
        self.rx.close(token);
        self.pump_until(|s| s.closed.remove(&token))
    }

    /// Worker leaves, launcher sends `Shutdown`; returns the hub's metrics
    /// once `Hub::run` has returned.
    fn shutdown(mut self) -> Result<MetricsReport, String> {
        if let Some((w, node)) = self.worker.take() {
            self.leave(w, node)?;
        }
        let launcher = self.connect()?;
        self.rx.send(launcher, &Message::LauncherHello);
        self.rx.send(launcher, &Message::Shutdown);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !self.hub.is_finished() {
            if Instant::now() > deadline {
                return Err("Hub::run did not return after Shutdown".into());
            }
            self.pump(Duration::from_millis(5))?;
        }
        let metrics = self.hub.join().map_err(|_| "hub thread panicked")?;
        Ok(metrics.report())
    }

    fn hub_cpu_ns(&self) -> u64 {
        self.hub_clock.map_or(0, ThreadClock::cpu_ns)
    }
}

/// Tally of the relay phases.
#[derive(Default)]
struct Relay {
    sent: u64,
    received: u64,
    bad: u64,
    detail: Vec<String>,
    expected: VecDeque<(Instant, MonitoringReport)>,
}

impl Relay {
    /// Matches the coordinator's arrivals against what was sent, in order.
    fn absorb(&mut self, s: &mut Session, mut on: impl FnMut(Instant, Instant)) {
        while let Some((at, got)) = s.arrivals.pop_front() {
            self.received += 1;
            match self.expected.pop_front() {
                Some((sent_at, want)) if want == got => on(sent_at, at),
                want => {
                    self.bad += 1;
                    if self.detail.len() < 3 {
                        self.detail.push(format!(
                            "got period_end {} want {:?}",
                            got.period_end.0,
                            want.map(|(_, r)| r.period_end.0)
                        ));
                    }
                }
            }
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, plan: Plan, mut tracer: Option<&mut Tracer>) -> Result<WorkloadRun, String> {
    let mut w = WorkloadRun {
        work_note: "fastest round",
        ..WorkloadRun::default()
    };
    let mut inputs = HubInputs::new(seed, HubConfig::default().clusters);
    // The hub thread and this client thread each get a CPU of their own
    // (when there are two), so thread placement is the same on every run.
    let cpus = crate::sys::allowed_cpus();
    if cpus.len() >= 2 {
        crate::sys::pin_to_cpu(cpus[1]);
    }
    let client = ThreadClock::current();
    let client_ns = || client.map_or(0, ThreadClock::cpu_ns);

    // Set-up: bind, coordinator attached, worker joined. Every instance
    // but the last is shut down again (outside the timed part).
    let mut s = None;
    for sample in 0..plan.setups {
        let mut busy = 0.0;
        for k in 0..plan.setup_group {
            let t = Instant::now();
            let opened = Session::open()?;
            busy += t.elapsed().as_secs_f64();
            if sample + 1 == plan.setups && k + 1 == plan.setup_group {
                s = Some(opened);
            } else {
                opened.shutdown()?;
            }
        }
        w.setup_s.push(busy);
    }
    let mut s = s.expect("at least one set-up");
    let max_threads = crate::sys::thread_count();
    let mut relay = Relay::default();
    let mut seq = 0u64;
    let mut relay1_us: Vec<f64> = Vec::new();
    let (mut hub_relay_ns, mut cli_relay_ns, mut hub_join_ns) = (0u64, 0u64, 0u64);
    let mut relayed_w = 0u64;
    let mut refused: Vec<String> = Vec::new();
    let mut joins_ok = 0u64;
    // The relay worker's joins: the set-up's, then one per later round.
    let mut worker_joins = 1u64;
    let start = Instant::now();
    let mut rounds = 0usize;
    let (mut round_rates, mut round_join_p50s) = (Vec::new(), Vec::new());
    loop {
        let (worker, node) = s.worker.expect("the relay worker is joined");

        // Window 1: the latency of one forward.
        for _ in 0..plan.relay1 {
            seq += 1;
            let report = inputs.report(node, ClusterId(0), seq);
            let t0 = Instant::now();
            relay.expected.push_back((t0, report));
            relay.sent += 1;
            s.rx.send(
                worker,
                &Message::StatsReport {
                    report,
                    bench_micros: 0,
                },
            );
            let before = relay.received;
            while relay.received == before && t0.elapsed() < REPLY_TIMEOUT {
                s.pump(Duration::from_millis(5))?;
                relay.absorb(&mut s, |a, b| {
                    relay1_us.push((b - a).as_secs_f64() * 1e6);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("net.relay", a, b);
                    }
                });
            }
            if relay.received == before {
                break; // lost; counted below
            }
        }

        // Window W: throughput of the forwarding path.
        let (hub0, cli0) = (s.hub_cpu_ns(), client_ns());
        let t_w = Instant::now();
        let end = t_w + plan.relay_w;
        let received_before = relay.received;
        loop {
            let now = Instant::now();
            while now < end && relay.expected.len() < WINDOW {
                seq += 1;
                let report = inputs.report(node, ClusterId(0), seq);
                relay.expected.push_back((Instant::now(), report));
                relay.sent += 1;
                s.rx.send(
                    worker,
                    &Message::StatsReport {
                        report,
                        bench_micros: 0,
                    },
                );
            }
            if relay.expected.is_empty() || now > end + REPLY_TIMEOUT {
                break;
            }
            s.pump(Duration::from_millis(5))?;
            relay.absorb(&mut s, |a, b| {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("net.relay", a, b);
                }
            });
        }
        let relayed = relay.received - received_before;
        relayed_w += relayed;
        round_rates.push(relayed as f64 / t_w.elapsed().as_secs_f64());
        hub_relay_ns += s.hub_cpu_ns() - hub0;
        cli_relay_ns += client_ns() - cli0;

        // Join churn, one connection at a time next to the coordinator's.
        s.worker = None;
        s.leave(worker, node)?;
        let hub0 = s.hub_cpu_ns();
        let round_joins = w.op_us.len();
        for _ in 0..plan.joins {
            let cluster = inputs.join_cluster();
            let t0 = Instant::now();
            let tok = s.connect()?;
            s.rx.send(
                tok,
                &Message::Join {
                    cluster,
                    claim: None,
                },
            );
            let joined = s.await_join(tok);
            let t1 = Instant::now();
            w.attempted += 1;
            match joined {
                Ok(n) => {
                    joins_ok += 1;
                    w.op_us.push((t1 - t0).as_secs_f64() * 1e6);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("net.join", t0, t1);
                    }
                    s.leave(tok, n)?;
                }
                Err(e) => {
                    w.failed += 1;
                    if refused.len() < 3 {
                        refused.push(e);
                    }
                    s.rx.close(tok);
                    s.pump_until(|s| s.closed.remove(&tok))?;
                }
            }
        }
        hub_join_ns += s.hub_cpu_ns() - hub0;
        round_join_p50s.push(median(&w.op_us[round_joins..]));
        rounds += 1;
        if rounds >= plan.min_rounds && start.elapsed() >= plan.budget {
            break;
        }
        // The relay worker joins again for the next round.
        let tok = s.connect()?;
        s.rx.send(
            tok,
            &Message::Join {
                cluster: ClusterId(0),
                claim: None,
            },
        );
        let node = s.await_join(tok)?;
        s.worker = Some((tok, node));
        s.last_heartbeat = Instant::now();
        worker_joins += 1;
    }
    // The fastest round (interference on a shared host only adds time;
    // see `fuzz::PASSES`).
    w.work = relayed_w;
    w.work_per_s = round_rates.iter().copied().fold(0.0, f64::max);
    w.op_p50_us = round_join_p50s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let heartbeats = s.heartbeats;
    let hub = s.shutdown();

    // Checks.
    let lost = relay.sent - relay.received.min(relay.sent);
    w.attempted += relay.sent;
    w.failed += relay.bad + lost;
    w.check(
        "every join accepted",
        refused.is_empty(),
        refused.join("; "),
    );
    w.check(
        "every report relayed exactly once, in order, unchanged",
        relay.bad == 0 && lost == 0,
        format!(
            "{lost} lost, {} wrong: {}",
            relay.bad,
            relay.detail.join("; ")
        ),
    );
    w.check(
        "load from one process with at most 2 threads",
        max_threads <= 2,
        format!("{max_threads} threads"),
    );
    let hub = match hub {
        Ok(r) => {
            w.check("Hub::run returned after a launcher Shutdown", true, "");
            r
        }
        Err(e) => {
            w.check("Hub::run returned after a launcher Shutdown", false, e);
            MetricsReport::default()
        }
    };
    let joins_counted = hub.counter("net.joins");
    let joins_sent = joins_ok + worker_joins;
    w.check(
        "hub net.joins equals joins sent",
        joins_counted == joins_sent,
        format!("hub {joins_counted}, client {joins_sent}"),
    );
    let forwarded = hub.counter("net.stats_forwarded");
    w.check(
        "hub net.stats_forwarded equals reports sent",
        forwarded == relay.sent,
        format!("hub {forwarded}, client {}", relay.sent),
    );
    let counted = hub.counter("net.heartbeats");
    w.check(
        "hub net.heartbeats equals heartbeats sent",
        counted == heartbeats,
        format!("hub {counted}, client {heartbeats}"),
    );
    let (suspects, deaths) = (hub.counter("net.suspects"), hub.counter("net.deaths"));
    w.check(
        "relay worker never suspected or declared dead",
        suspects == 0 && deaths == 0,
        format!("{suspects} suspicions, {deaths} deaths"),
    );
    let drops = hub.counter("net.reactor.backpressure_drops");
    w.check(
        "no backpressure drops",
        drops == 0,
        format!("{drops} drops"),
    );

    // Per-layer readings.
    let per = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
    w.layer(
        "net.hub.cpu_us_per_join",
        Reading::new(per(hub_join_ns, joins_ok), "us", joins_ok, "hub thread CPU"),
    );
    w.layer(
        "net.hub.cpu_us_per_relay",
        Reading::new(
            per(hub_relay_ns, relayed_w),
            "us",
            relayed_w,
            "hub thread CPU",
        ),
    );
    w.layer(
        "bench.client.cpu_us_per_relay",
        Reading::new(
            per(cli_relay_ns, relayed_w),
            "us",
            relayed_w,
            "client thread CPU",
        ),
    );
    w.layer(
        "net.relay_p50_us",
        Reading::new(
            median(&relay1_us),
            "us",
            relay1_us.len() as u64,
            "p50, window 1",
        ),
    );
    let t = tail(&relay1_us, 0.99);
    w.layer(
        "net.relay_tail_us",
        Reading::new(t.value, "us", relay1_us.len() as u64, t.label),
    );
    if let Some((_, h)) = hub
        .histograms
        .iter()
        .find(|(n, _)| n == "net.reactor.loop_latency_us")
    {
        for (name, q, note) in [
            ("net.reactor.loop_latency_us.p50", 0.5, "p50, interpolated"),
            ("net.reactor.loop_latency_us.p99", 0.99, "p99, interpolated"),
        ] {
            let v = hist_quantile(&h.bounds, &h.counts, q);
            w.layer(name, Reading::new(v, "us", h.count, note));
        }
    }
    for name in [
        "net.joins",
        "net.stats_forwarded",
        "net.heartbeats",
        "net.reactor.accepts",
        "net.reactor.backpressure_drops",
    ] {
        w.layer(
            name,
            Reading::new(hub.counter(name) as f64, "count", 1, "hub counter"),
        );
    }
    Ok(w)
}
