//! `serve`: the daemon in-process via `wfms_serve::serve` on a loopback
//! port it picks, under a closed loop of two client threads. Each
//! request opens its own connection, as `wfms call` does. Each client
//! owns four tenants (eight in all, the daemon's default cap), so the
//! interleaving of the clients cannot change any tenant's cache hits.
//!
//! The seeded mix: warm `assess` on the tenant's configurations, warm
//! greedy `recommend`, `lint`, and one request in ten a *replan*:
//! new arrival rates or goals that change the tenant's fingerprint and
//! force a cold rebuild of its tool and engine; later requests use the
//! new inputs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde_json::Value;

use wfms_core::analysis::{analyze, SystemUnderAnalysis};
use wfms_core::{
    Assessment, AssessmentEngine, ConfigurationTool, SearchOptions, ServerTypeRegistry,
};
use wfms_proto::{
    AssessParams, AssessResult, HealthResult, LintParams, LintResult, MetricsResult,
    RecommendParams, RecommendResult, Request, Response, METHOD_ASSESS, METHOD_HEALTH, METHOD_LINT,
    METHOD_METRICS, METHOD_RECOMMEND, METHOD_SHUTDOWN,
};
use wfms_serve::{serve, Handler, ServeOptions, WorkloadFile};

use crate::rng::Rng;
use crate::scenario::{self, GenClass, Scenario, MTTR_RANGE};
use crate::trace::{self_time_by_name, total_time_by_name, SpanRec, Tracer};
use crate::{check, jv, ms, ratio, ObsAgg, Outcome};

/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Client threads of the closed loop.
pub const CLIENTS: usize = 2;

/// Generated tenant classes (one pair per client): small enough that
/// warm requests stay in the milliseconds and replans in the hundreds.
const CLASSES: [GenClass; 2] = [
    GenClass {
        k: 3,
        workflows: 2,
        states: (6, 10),
        stiff: true,
        mttr: MTTR_RANGE,
    },
    GenClass {
        k: 4,
        workflows: 2,
        states: (5, 9),
        stiff: false,
        mttr: MTTR_RANGE,
    },
];

/// Per-variant input changes: `(arrival factor, wait-goal factor)`.
/// Moving to the next variant is a replan.
const VARIANTS: [(f64, f64); 4] = [(1.0, 1.0), (1.1, 1.0), (1.0, 1.2), (0.9, 1.0)];

/// The request mix: replans 10%, warm `assess` 30%, warm `recommend`
/// 55%, `lint` 5%. Latencies fall in clusters by tenant and method; the
/// mix and [`TENANT_SHARE`] put each median well inside a cluster of a
/// committed tenant (fixed inputs), so that none sits on the step
/// between two clusters whose order the generated tenants decide: the
/// median op and the median hit are an enterprise `recommend` (about
/// 40–64% of ops and 42–69% of hits lie at or below that cluster), and
/// the median replan is an ep one (see [`REPLAN_TENANT_SHARE`]).
const MIX: [(Kind, f64); 4] = [
    (Kind::Replan, 0.1),
    (Kind::Assess, 0.3),
    (Kind::Recommend, 0.55),
    (Kind::Lint, 0.05),
];

/// The index of a tenant's largest configuration (see `Tenant::new`).
const LARGEST: usize = 1;

/// Share of requests per tenant, in tenant order: ep, enterprise, then
/// the two generated tenants.
const TENANT_SHARE: [f64; 4] = [0.34, 0.42, 0.12, 0.12];

/// Share of replans per tenant, in tenant order. Generated tenants'
/// replans are the cheapest and enterprise's the dearest, so with these
/// shares ep's replans span about 20–80% of them and the median replan
/// lies in the middle of ep's.
const REPLAN_TENANT_SHARE: [f64; 4] = [0.6, 0.2, 0.1, 0.1];

/// The entry of `table` that the cumulative shares put `r` (in `[0, 1)`)
/// in; the last one when rounding leaves `r` beyond them all.
fn pick<T: Copy>(table: &[(T, f64)], r: f64) -> T {
    let mut upto = 0.0;
    for &(item, share) in table {
        upto += share;
        if r < upto {
            return item;
        }
    }
    table[table.len() - 1].0
}

/// One tenant: a scenario, its candidate configurations, and the
/// variant its inputs are currently at.
#[derive(Debug, Clone)]
struct Tenant {
    name: String,
    scenario: Scenario,
    registry: ServerTypeRegistry,
    registry_value: Value,
    workload_values: Vec<Value>,
    configs: Vec<Vec<usize>>,
    variant: usize,
}

impl Tenant {
    fn new(client: usize, scenario: Scenario) -> Result<Tenant, String> {
        let (registry, _) = scenario.decode()?;
        let registry_value: Value =
            serde_json::from_str(&scenario.registry_json).map_err(|e| e.to_string())?;
        let workload: WorkloadFile =
            serde_json::from_str(&scenario.workload_json).map_err(|e| e.to_string())?;
        let workload_values = VARIANTS
            .iter()
            .map(|&(factor, _)| scale_arrivals(&workload, factor))
            .collect();
        let k = registry.len();
        // Chains of at most 432 states, so a cold solve after a replan
        // stays in the tens of milliseconds on every tenant; the largest
        // is at [`LARGEST`].
        let configs = vec![
            vec![2; k],
            (0..k).map(|x| 2 + x % 2).collect(),
            (0..k).map(|x| 2 + usize::from(x == 0)).collect(),
        ];
        let mut scenario = scenario;
        scenario.shape.largest_chain = configs.iter().map(|c| chain(c)).max().unwrap_or(0);
        Ok(Tenant {
            name: format!("c{client}-{}", scenario.name),
            scenario,
            registry,
            registry_value,
            workload_values,
            configs,
            variant: 0,
        })
    }

    fn max_wait(&self) -> f64 {
        self.scenario.max_wait * VARIANTS[self.variant].1
    }

    fn request(&self, method: &str, config: Option<&[usize]>) -> Request {
        let registry = self.registry_value.clone();
        let workload = self.workload_values[self.variant].clone();
        let (max_wait, min_availability) =
            (Some(self.max_wait()), Some(self.scenario.min_availability));
        let params = match method {
            METHOD_ASSESS => serde_json::to_value(&AssessParams {
                registry,
                workload,
                config: config.expect("assess names a configuration").to_vec(),
                max_wait,
                min_availability,
                epsilon: None,
                avail_backend: None,
                solver_tol: None,
                solver_max_iter: None,
                strict: None,
                per_type_max_wait: None,
            }),
            METHOD_RECOMMEND => serde_json::to_value(&RecommendParams {
                registry,
                workload,
                search: Some("greedy".to_string()),
                max_wait,
                min_availability,
                budget: None,
                jobs: None,
                seed: None,
                epsilon: None,
                avail_backend: None,
                solver_tol: None,
                solver_max_iter: None,
                strict: None,
                screen_epsilon: None,
                rank_moves: None,
                incremental: None,
                per_type_max_wait: None,
            }),
            _ => serde_json::to_value(&LintParams {
                registry,
                workload,
                config: None,
                max_wait,
                min_availability,
                budget: None,
            }),
        };
        let mut request = Request::new(method, params.expect("params serialize"));
        request.tenant = Some(self.name.clone());
        request
    }
}

fn chain(y: &[usize]) -> usize {
    y.iter().map(|v| v + 1).product()
}

fn scale_arrivals(workload: &WorkloadFile, factor: f64) -> Value {
    let mut out = workload.clone();
    for entry in &mut out.workflows {
        entry.arrival_rate *= factor;
    }
    jv(&out)
}

/// What a request is for, which decides how its latency is classed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Inputs changed: the tenant's tool and engine are rebuilt.
    Replan,
    /// `assess` on a warm tenant.
    Assess,
    /// Greedy `recommend` on a warm tenant.
    Recommend,
    /// `lint` (touches no tenant).
    Lint,
}

/// One planned request with what its answer is checked against.
#[derive(Debug, Clone)]
pub struct Planned {
    kind: Kind,
    tenant: usize,
    request: Request,
    line: String,
    expected_winner: Option<Vec<usize>>,
}

/// A client's seeded request sequence over its tenants.
struct Mix {
    rng: Rng,
    tenants: Vec<Tenant>,
}

impl Mix {
    fn next(&mut self) -> Planned {
        let kind = pick(&MIX, self.rng.unit());
        let shares = if kind == Kind::Replan {
            REPLAN_TENANT_SHARE
        } else {
            TENANT_SHARE
        };
        let shares: Vec<(usize, f64)> = shares.iter().copied().enumerate().collect();
        let t = pick(&shares, self.rng.unit());
        let tenant = &mut self.tenants[t];
        if kind == Kind::Replan {
            tenant.variant = (tenant.variant + 1) % VARIANTS.len();
        }
        // A replan assesses the tenant's largest configuration, so every
        // replan of a tenant does the same work.
        let drawn = self.rng.range(0, tenant.configs.len() - 1);
        let config = tenant.configs[if kind == Kind::Replan { LARGEST } else { drawn }].clone();
        let request = match kind {
            Kind::Replan | Kind::Assess => tenant.request(METHOD_ASSESS, Some(&config)),
            Kind::Recommend => tenant.request(METHOD_RECOMMEND, None),
            Kind::Lint => tenant.request(METHOD_LINT, None),
        };
        let expected_winner = (kind == Kind::Recommend && tenant.variant == 0)
            .then(|| tenant.scenario.expected_winner.clone())
            .flatten();
        Planned {
            kind,
            tenant: t,
            line: serde_json::to_string(&request).expect("request serializes"),
            request,
            expected_winner,
        }
    }
}

/// The warm-up requests of one tenant: every configuration assessed,
/// one greedy recommendation, one lint, all on the base inputs.
fn warmup(tenant: &Tenant, t: usize) -> Vec<Planned> {
    let mut reqs: Vec<(Kind, Request)> = tenant
        .configs
        .iter()
        .map(|c| (Kind::Assess, tenant.request(METHOD_ASSESS, Some(c))))
        .collect();
    reqs.push((Kind::Recommend, tenant.request(METHOD_RECOMMEND, None)));
    reqs.push((Kind::Lint, tenant.request(METHOD_LINT, None)));
    reqs.into_iter()
        .map(|(kind, request)| Planned {
            kind,
            tenant: t,
            line: serde_json::to_string(&request).expect("request serializes"),
            expected_winner: (kind == Kind::Recommend)
                .then(|| tenant.scenario.expected_winner.clone())
                .flatten(),
            request,
        })
        .collect()
}

fn tenants_of(seed: u64, client: usize) -> Result<Vec<Tenant>, String> {
    let mut scenarios = vec![scenario::ep(), scenario::enterprise()];
    for (i, class) in CLASSES.iter().enumerate() {
        scenarios.push(scenario::generate(
            seed,
            200 + (2 * client + i) as u64,
            *class,
        )?);
    }
    scenario::lint_all(&scenarios)?;
    scenarios
        .into_iter()
        .map(|s| Tenant::new(client, s))
        .collect()
}

/// Checks one response against its request; returns the problems.
fn check_response(p: &Planned, tenant: &Tenant, response: &Response) -> Vec<String> {
    let mut problems = Vec::new();
    let who = format!("{} {}", tenant.name, p.request.method);
    if !response.ok {
        let e = response.error.as_ref();
        problems.push(format!(
            "{who}: {} {}",
            e.map_or("", |e| e.kind.as_str()),
            e.map_or("", |e| e.message.as_str())
        ));
        return problems;
    }
    let result = response.result.clone().unwrap_or(Value::Null);
    let assessment = |v: Value| serde_json::from_value::<Assessment>(v).map_err(|e| e.to_string());
    match p.kind {
        Kind::Replan | Kind::Assess => match serde_json::from_value::<AssessResult>(result) {
            Ok(r) => match assessment(r.assessment) {
                Ok(a) => {
                    check::assessment(&tenant.registry, &a, false, &mut problems);
                    for t in &r.turnarounds {
                        if !(t.p90_minutes > 0.0 && t.p90_minutes.is_finite()) {
                            problems.push(format!("{who}: bad p90 for {}", t.workflow));
                        }
                    }
                }
                Err(e) => problems.push(format!("{who}: {e}")),
            },
            Err(e) => problems.push(format!("{who}: {e}")),
        },
        Kind::Recommend => match serde_json::from_value::<RecommendResult>(result) {
            Ok(r) => match assessment(r.assessment) {
                Ok(a) => {
                    check::assessment(&tenant.registry, &a, true, &mut problems);
                    if let Some(expected) = &p.expected_winner {
                        if &a.replicas != expected {
                            problems.push(format!(
                                "{who}: winner {:?}, expected {expected:?}",
                                a.replicas
                            ));
                        }
                    }
                }
                Err(e) => problems.push(format!("{who}: {e}")),
            },
            Err(e) => problems.push(format!("{who}: {e}")),
        },
        Kind::Lint => match serde_json::from_value::<LintResult>(result) {
            Ok(r) if r.errors == 0 => {}
            Ok(r) => problems.push(format!("{who}: {} lint error(s)", r.errors)),
            Err(e) => problems.push(format!("{who}: {e}")),
        },
    }
    problems
}

/// Sends one request line on a fresh connection and reads the response
/// line.
fn call(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    if response.is_empty() {
        return Err("connection closed without a response".into());
    }
    Ok(response.trim_end().to_string())
}

fn call_typed(addr: SocketAddr, request: &Request) -> Result<Response, String> {
    let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
    serde_json::from_str(&call(addr, &line)?).map_err(|e| e.to_string())
}

/// Forwards the daemon's ready line to the starting thread.
struct ReadyLine(Sender<String>, Vec<u8>);

impl Write for ReadyLine {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.1.extend_from_slice(buf);
        while let Some(nl) = self.1.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.1.drain(..=nl).collect();
            let _ = self
                .0
                .send(String::from_utf8_lossy(&line).trim().to_string());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running in-process daemon.
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let (tx, rx) = channel();
        let opts = ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        };
        let thread = thread::spawn(move || {
            serve(&opts, &mut ReadyLine(tx, Vec::new())).map_err(|e| e.to_string())
        });
        let ready = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the daemon printed no ready line".to_string())?;
        let addr = ready
            .split_whitespace()
            .find_map(|w| w.parse::<SocketAddr>().ok())
            .ok_or_else(|| format!("no address in ready line {ready:?}"))?;
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    /// Asks for a graceful shutdown and joins the daemon thread.
    fn stop(mut self) -> Result<(), String> {
        let response = call_typed(self.addr, &Request::new(METHOD_SHUTDOWN, Value::Null));
        let joined = self
            .thread
            .take()
            .expect("daemon thread present")
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        response?;
        joined
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = call_typed(self.addr, &Request::new(METHOD_SHUTDOWN, Value::Null));
            let _ = thread.join();
        }
    }
}

/// One exchanged request as a client saw it.
#[derive(Debug, Clone)]
struct Exchange {
    kind: Kind,
    tenant: String,
    method: String,
    latency_ms: f64,
    roundtrip_ms: f64,
}

/// What one client thread collected.
#[derive(Debug, Default)]
struct ClientRun {
    tally: crate::check::Tally,
    exchanges: Vec<Exchange>,
    sent: Vec<Planned>,
    spans: Vec<SpanRec>,
}

/// Sends the requests of `source`, one connection each, and checks every
/// answer. Identical request lines must get byte-identical responses:
/// `seen` maps request hashes to response hashes across the whole run.
fn client_loop(
    addr: SocketAddr,
    tenants: &[Tenant],
    source: Source<'_>,
    seen: &mut HashMap<u64, u64>,
    tr: &mut Tracer,
    op_base: u64,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut mix = match &source {
        Source::Mix { seed, client, .. } => Some(Mix {
            rng: Rng::new(*seed, 0x5E4E + *client as u64),
            tenants: tenants.to_vec(),
        }),
        Source::Replay(_) => None,
    };
    let mut i = 0usize;
    loop {
        let p = match &source {
            Source::Mix { deadline, .. } => {
                if Instant::now() >= *deadline {
                    break;
                }
                mix.as_mut().expect("mix source").next()
            }
            Source::Replay(list) => match list.get(i) {
                Some(p) => p.clone(),
                None => break,
            },
        };
        tr.set_op(op_base + i as u64);
        i += 1;
        let t0 = Instant::now();
        let op = tr.open("serve.op");
        let line = tr.time("proto.encode", || serde_json::to_string(&p.request));
        let mut roundtrip_ms = 0.0;
        let answered = line.map_err(|e| e.to_string()).and_then(|line| {
            let t = Instant::now();
            let raw = tr.time("serve.roundtrip", || call(addr, &line));
            roundtrip_ms = ms(t.elapsed());
            let raw = raw?;
            let response = tr
                .time("proto.decode", || serde_json::from_str::<Response>(&raw))
                .map_err(|e| e.to_string())?;
            Ok((raw, response))
        });
        tr.close(op);
        let latency_ms = ms(t0.elapsed());
        let tenant = &tenants[p.tenant];
        let problems = match answered {
            Ok((raw, response)) => {
                let mut problems = check_response(&p, tenant, &response);
                let key = hash(&p.line);
                let value = hash(&raw);
                if *seen.entry(key).or_insert(value) != value {
                    problems.push(format!(
                        "{} {}: identical requests got different responses",
                        tenant.name, p.request.method
                    ));
                }
                problems
            }
            Err(e) => vec![format!("{} {}: {e}", tenant.name, p.request.method)],
        };
        run.tally.op(problems);
        run.exchanges.push(Exchange {
            kind: p.kind,
            tenant: tenant.name.clone(),
            method: p.request.method.clone(),
            latency_ms,
            roundtrip_ms,
        });
        run.sent.push(p);
    }
    run.spans = tr.take();
    run
}

/// Where a client's requests come from.
enum Source<'a> {
    /// The seeded mix, until the deadline.
    Mix {
        seed: u64,
        client: usize,
        deadline: Instant,
    },
    /// Exactly these requests again.
    Replay(&'a [Planned]),
}

fn hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// The set-up state: tenants per client and a daemon warmed over all of
/// them.
struct Ready {
    tenants: Vec<Vec<Tenant>>,
    daemon: Daemon,
    seen: Vec<HashMap<u64, u64>>,
}

fn warm_daemon(tenants: &[Vec<Tenant>]) -> Result<(Daemon, Vec<HashMap<u64, u64>>), String> {
    let daemon = Daemon::start()?;
    let mut seen = Vec::new();
    for ts in tenants {
        let mut map = HashMap::new();
        let list: Vec<Planned> = ts
            .iter()
            .enumerate()
            .flat_map(|(t, x)| warmup(x, t))
            .collect();
        let mut tr = Tracer::new(false, Instant::now());
        let run = client_loop(daemon.addr, ts, Source::Replay(&list), &mut map, &mut tr, 0);
        if run.tally.failed > 0 {
            return Err(format!(
                "warm-up failed: {}",
                run.tally.messages.join(" | ")
            ));
        }
        seen.push(map);
    }
    Ok((daemon, seen))
}

fn setup(seed: u64) -> Result<Ready, String> {
    let tenants: Vec<Vec<Tenant>> = (0..CLIENTS)
        .map(|c| tenants_of(seed, c))
        .collect::<Result<_, _>>()?;
    let (daemon, seen) = warm_daemon(&tenants)?;
    Ok(Ready {
        tenants,
        daemon,
        seen,
    })
}

/// Runs the closed loop: every client either draws from its mix until
/// `deadline` or replays its list. Returns the client runs in client
/// order.
fn closed_loop(
    addr: SocketAddr,
    tenants: &[Vec<Tenant>],
    seen: &mut [HashMap<u64, u64>],
    seed: u64,
    deadline: Instant,
    replay: Option<&[Vec<Planned>]>,
    traced: bool,
) -> Vec<ClientRun> {
    let epoch = Instant::now();
    thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .zip(seen.iter_mut())
            .enumerate()
            .map(|(client, (ts, map))| {
                s.spawn(move || {
                    let source = match replay {
                        Some(lists) => Source::Replay(&lists[client]),
                        None => Source::Mix {
                            seed,
                            client,
                            deadline,
                        },
                    };
                    let mut tr = Tracer::new(traced, epoch);
                    client_loop(addr, ts, source, map, &mut tr, (client as u64) << 32)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Asks the daemon's `health` method for worker panics and sheds; both
/// must be zero.
fn health_problems(addr: SocketAddr) -> Vec<String> {
    match call_typed(addr, &Request::new(METHOD_HEALTH, Value::Null)) {
        Ok(r) if r.ok => {
            match serde_json::from_value::<HealthResult>(r.result.unwrap_or(Value::Null)) {
                Ok(h) if h.worker_panics == 0 && h.queue.overloaded == 0 => Vec::new(),
                Ok(h) => vec![format!(
                    "health: {} worker panic(s), {} shed(s)",
                    h.worker_panics, h.queue.overloaded
                )],
                Err(e) => vec![format!("health: {e}")],
            }
        }
        Ok(r) => vec![format!("health refused: {:?}", r.error)],
        Err(e) => vec![format!("health: {e}")],
    }
}

/// Runs `serve` for `seconds`; traced when `traced`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // Timed set-ups (generation, decode, daemon start, warm pass); each
    // earlier daemon is stopped, untimed, before the next set-up starts,
    // so only one daemon ever runs.
    let mut secs = Vec::with_capacity(SETUPS);
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = ready.take() {
            previous.daemon.stop()?;
        }
        let t0 = Instant::now();
        ready = Some(setup(seed)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("at least one set-up");
    let setup_s = crate::stats::median(&secs);
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    // A traced run measures untraced for a sixth of the time, then
    // replays the same requests over TCP with client spans, then twice
    // through an in-process handler on one thread (about 5x in all).
    let budget = if traced { seconds / 6.0 } else { seconds };
    let cpu0 = crate::cpu_seconds();
    let t0 = Instant::now();
    let runs = closed_loop(
        ready.daemon.addr,
        &ready.tenants,
        &mut ready.seen,
        seed,
        t0 + Duration::from_secs_f64(budget),
        None,
        false,
    );
    out.timed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::cpu_seconds() - cpu0;
    out.tally.op(health_problems(ready.daemon.addr));
    ready.daemon.stop()?;

    let mut per_method: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut per_tenant: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut replans = 0u64;
    for run in &runs {
        for e in &run.exchanges {
            out.op_ms.push(e.latency_ms);
            match e.kind {
                Kind::Replan => {
                    out.rebuild_ms.push(e.latency_ms);
                    replans += 1;
                }
                Kind::Assess | Kind::Recommend => out.hit_ms.push(e.latency_ms),
                Kind::Lint => {}
            }
            per_method
                .entry(e.method.clone())
                .or_default()
                .push(e.latency_ms);
            per_tenant
                .entry(format!("{} {:?}", e.tenant, e.kind))
                .or_default()
                .push(e.latency_ms);
        }
    }
    for run in &runs {
        out.tally.merge(run.tally.clone());
    }
    for ts in &ready.tenants {
        for t in ts {
            out.scenarios
                .push((t.name.clone(), t.scenario.shape.clone()));
        }
    }
    out.extra.insert("clients".into(), jv(CLIENTS));
    out.extra.insert(
        "p50_ms_by_tenant_and_kind".into(),
        jv(per_tenant
            .iter()
            .map(|(k, v)| (k.clone(), crate::stats::median(v)))
            .collect::<BTreeMap<_, _>>()),
    );
    out.extra.insert("replans".into(), jv(replans));
    out.extra.insert(
        "per_method_p50_ms".into(),
        jv(per_method
            .iter()
            .map(|(m, v)| (m.clone(), crate::stats::median(v)))
            .collect::<BTreeMap<_, _>>()),
    );
    if traced {
        let lists: Vec<Vec<Planned>> = runs.into_iter().map(|r| r.sent).collect();
        traced_replay(&ready.tenants, &lists, &mut out)?;
    }
    Ok(out)
}

fn traced_replay(
    tenants: &[Vec<Tenant>],
    lists: &[Vec<Planned>],
    out: &mut Outcome,
) -> Result<(), String> {
    let untraced_ms: f64 = out.op_ms.iter().sum();
    // 1. The same requests over TCP with client-side spans, on a fresh
    //    warmed daemon, with a monitor polling the queue gauges.
    let (daemon, mut seen) = warm_daemon(tenants)?;
    let stop = AtomicBool::new(false);
    let (runs, depth_max) = thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut max = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(r) = call_typed(daemon.addr, &Request::new(METHOD_HEALTH, Value::Null)) {
                    if let Ok(h) =
                        serde_json::from_value::<HealthResult>(r.result.unwrap_or(Value::Null))
                    {
                        // The gauge can read just below zero (wrapped)
                        // when a worker dequeues a connection before the
                        // accept loop has counted it; that reads as 0.
                        if h.queue.depth <= u64::MAX / 2 {
                            max = max.max(h.queue.depth);
                        }
                    }
                }
                thread::sleep(Duration::from_millis(50));
            }
            max
        });
        let runs = closed_loop(
            daemon.addr,
            tenants,
            &mut seen,
            0,
            Instant::now(),
            Some(lists),
            true,
        );
        stop.store(true, Ordering::Relaxed);
        (runs, monitor.join().expect("monitor thread panicked"))
    });
    out.tally.op(health_problems(daemon.addr));
    daemon.stop()?;
    let mut spans: Vec<SpanRec> = Vec::new();
    for run in &runs {
        out.tally.merge(run.tally.clone());
        spans.extend(run.spans.iter().cloned());
    }
    let requests = runs.iter().map(|r| r.exchanges.len()).sum::<usize>().max(1) as f64;
    let self_ns = self_time_by_name(&spans);
    let total_ns = total_time_by_name(&spans);
    let ms_of =
        |m: &BTreeMap<&str, u64>, name: &str| m.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let roundtrip_ms = ms_of(&total_ns, "serve.roundtrip");

    // 2. The same request sequence through an in-process handler, twice:
    //    with the library recorder off for handle times, rebuild
    //    detection and standalone builds with the same inputs; then with
    //    it on for the library's own stage times and counters.
    let timed = replay_in_process(tenants, lists, false)?;
    let observed = replay_in_process(tenants, lists, true)?;
    let agg = &observed.agg;
    let mut tr = timed.tracer;
    let replay_spans = tr.take();
    let rs_self = self_time_by_name(&replay_spans);
    let rs_total = total_time_by_name(&replay_spans);
    let handle_ms = ms_of(&rs_total, "serve.handle");
    let l = &mut out.layers;
    l.insert(
        "proto.encode_ms",
        ms_of(&self_ns, "proto.encode") / requests,
    );
    l.insert(
        "proto.decode_ms",
        ms_of(&self_ns, "proto.decode") / requests,
    );
    l.insert("serve.handle_ms", handle_ms / requests);
    l.insert("serve.transport_ms", (roundtrip_ms - handle_ms) / requests);
    l.insert("serve.queue_depth_max", depth_max as f64);
    l.insert(
        "serve.rebuilds",
        lists
            .iter()
            .flatten()
            .filter(|p| p.kind == Kind::Replan)
            .count() as f64,
    );
    for name in [
        "statechart.map",
        "core.tool_build",
        "config.engine_new",
        "perf.analyze",
        "analysis.lint",
    ] {
        l.insert(
            crate::plan::layer_name(name),
            ms_of(&rs_self, name) / requests,
        );
    }
    l.insert(
        "perf.percentile_ms",
        agg.stage_ms(&crate::OBS_PERCENTILE_STAGES) / requests,
    );
    l.insert(
        "markov.transient_solves",
        agg.poisson_solves as f64 / requests,
    );
    l.insert("markov.poisson_terms", agg.terms_per_solve());
    l.insert(
        "avail.solve_ms",
        agg.stage_ms(&crate::OBS_AVAIL_STAGES) / requests,
    );
    l.insert(
        "avail.states",
        ratio(agg.avail_states as f64, agg.avail_solves as f64),
    );
    l.insert(
        "avail.dense_share",
        ratio(agg.avail_dense as f64, agg.avail_solves as f64),
    );
    l.insert(
        "performability.fold_ms",
        agg.stage_ms(&["performability"]) / requests,
    );
    l.insert(
        "performability.states_evaluated",
        agg.counter("performability.state-evaluations") as f64 / requests,
    );
    l.insert(
        "queueing.mg1_evals",
        agg.counter("perf.mg1.evaluations") as f64 / requests,
    );
    l.insert("config.assess_ms", agg.stage_ms(&["assess"]) / requests);
    l.insert(
        "config.search_ms",
        agg.stage_ms(&["greedy-search"]) / requests,
    );
    l.insert("config.evaluations", timed.evaluations as f64 / requests);
    l.insert(
        "config.cache_hit_ratio",
        timed.cache_hit_ratio.iter().sum::<f64>() / timed.cache_hit_ratio.len().max(1) as f64,
    );
    l.insert(
        "trace.percentile_share",
        ratio(
            agg.stage_ms(&crate::OBS_PERCENTILE_STAGES),
            observed.handle_total_ms,
        ),
    );
    l.insert(
        "trace.avail_fold_share",
        ratio(
            agg.stage_ms(&crate::OBS_AVAIL_STAGES) + agg.stage_ms(&["performability"]),
            agg.stage_ms(&["assess"]),
        ),
    );
    l.insert(
        "trace.rebuild_build_share",
        ratio(timed.rebuild_build_ms, timed.rebuild_handle_ms),
    );
    l.insert(
        "trace.hit_build_share",
        ratio(timed.hit_build_ms, timed.hit_handle_ms),
    );
    l.insert(
        "trace.overhead",
        ratio(ms_of(&total_ns, "serve.op"), untraced_ms),
    );
    let mut transport = BTreeMap::new();
    for (method, handled) in &timed.handle_by_method {
        let sent: Vec<&Exchange> = runs
            .iter()
            .flat_map(|r| &r.exchanges)
            .filter(|e| &e.method == method)
            .collect();
        let roundtrip: f64 = sent.iter().map(|e| e.roundtrip_ms).sum();
        transport.insert(
            method.clone(),
            ratio(roundtrip - handled, sent.len() as f64),
        );
    }
    out.extra
        .insert("transport_ms_by_method".into(), jv(transport));
    out.extra.insert(
        "cache_hit_ratio_by_client".into(),
        jv(&timed.cache_hit_ratio),
    );
    spans.extend(replay_spans);
    out.spans = spans;
    Ok(())
}

/// What one in-process replay of the request lists measured.
struct Replay {
    tracer: Tracer,
    agg: ObsAgg,
    handle_total_ms: f64,
    evaluations: u64,
    handle_by_method: BTreeMap<String, f64>,
    rebuild_handle_ms: f64,
    rebuild_build_ms: f64,
    hit_handle_ms: f64,
    hit_build_ms: f64,
    cache_hit_ratio: Vec<f64>,
}

/// Feeds each client's warm-up and request list through one in-process
/// handler. With `observe`, the `wfms-obs` recorder is on and drained
/// after every request; otherwise handle times are taken with it off,
/// and each request that rebuilt a tenant (its engine's lifetime hit
/// count fell) gets a standalone build with the same inputs.
fn replay_in_process(
    tenants: &[Vec<Tenant>],
    lists: &[Vec<Planned>],
    observe: bool,
) -> Result<Replay, String> {
    let handler = Handler::new(ServeOptions::default().tenants);
    let mut r = Replay {
        tracer: Tracer::new(!observe, Instant::now()),
        agg: ObsAgg::default(),
        handle_total_ms: 0.0,
        evaluations: 0,
        handle_by_method: BTreeMap::new(),
        rebuild_handle_ms: 0.0,
        rebuild_build_ms: 0.0,
        hit_handle_ms: 0.0,
        hit_build_ms: 0.0,
        cache_hit_ratio: Vec::new(),
    };
    let tr = &mut r.tracer;
    let mut op = 0u64;
    for (client, ts) in tenants.iter().enumerate() {
        wfms_obs::disable();
        for p in ts.iter().enumerate().flat_map(|(t, x)| warmup(x, t)) {
            handler.handle(&p.request);
        }
        wfms_obs::global().reset();
        if observe {
            wfms_obs::enable();
        }
        for p in &lists[client] {
            let tenant = p.request.tenant.clone().unwrap_or_default();
            let before = handler.tenant_cache_hits(&tenant);
            tr.set_op(op);
            op += 1;
            let t = Instant::now();
            let response = tr.time("serve.handle", || handler.handle(&p.request));
            let handle_ms = ms(t.elapsed());
            r.handle_total_ms += handle_ms;
            if observe {
                r.agg.drain_global();
                continue;
            }
            *r.handle_by_method
                .entry(p.request.method.clone())
                .or_default() += handle_ms;
            if let Some(Ok(rec)) = response
                .result
                .filter(|_| p.kind == Kind::Recommend)
                .map(serde_json::from_value::<RecommendResult>)
            {
                r.evaluations += rec.evaluations;
            }
            let after = handler.tenant_cache_hits(&tenant);
            let rebuilt = p.kind != Kind::Lint && (before.is_none() || after < before);
            let build_ms = if rebuilt {
                standalone_build(&p.request, tr)?
            } else {
                0.0
            };
            if p.kind == Kind::Lint {
                standalone_lint(&p.request, tr)?;
            }
            match p.kind {
                Kind::Replan => {
                    r.rebuild_handle_ms += handle_ms;
                    r.rebuild_build_ms += build_ms;
                }
                Kind::Assess | Kind::Recommend => {
                    r.hit_handle_ms += handle_ms;
                    r.hit_build_ms += build_ms;
                }
                Kind::Lint => {}
            }
        }
        wfms_obs::disable();
        let metrics = handler.handle(&Request::new(METHOD_METRICS, Value::Null));
        if let Some(Ok(m)) = metrics.result.map(serde_json::from_value::<MetricsResult>) {
            let (h, miss): (u64, u64) = m
                .tenants
                .iter()
                .filter(|g| ts.iter().any(|t| t.name == g.tenant))
                .fold((0, 0), |(h, miss), g| {
                    (h + g.cache_hits, miss + g.cache_misses)
                });
            r.cache_hit_ratio.push(ratio(h as f64, (h + miss) as f64));
        }
    }
    wfms_obs::disable();
    Ok(r)
}

/// The cold build a replan pays, as standalone calls with the request's
/// inputs: decode + mapping, tool build, workflow analysis, engine.
fn standalone_build(request: &Request, tr: &mut Tracer) -> Result<f64, String> {
    let params: AssessParams =
        serde_json::from_value(request.params.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let span = tr.open("statechart.map");
    let decoded = crate::scenario::decode(
        &serde_json::to_string(&params.registry).map_err(|e| e.to_string())?,
        &serde_json::to_string(&params.workload).map_err(|e| e.to_string())?,
    )
    .and_then(|(registry, mix)| {
        for (spec, _) in &mix {
            wfms_core::statechart::map_chart(&spec.chart, spec).map_err(|e| e.to_string())?;
        }
        Ok((registry, mix))
    });
    tr.close(span);
    let (registry, mix) = decoded?;
    let span = tr.open("core.tool_build");
    let mut tool = ConfigurationTool::new(registry.clone());
    let built = mix
        .into_iter()
        .try_for_each(|(spec, rate)| tool.add_workflow(spec, rate));
    tr.close(span);
    built.map_err(|e| e.to_string())?;
    let load = tr
        .time("perf.analyze", || tool.system_load())
        .map_err(|e| e.to_string())?;
    let goals = wfms_core::Goals::new(
        params.max_wait.unwrap_or(f64::INFINITY),
        params.min_availability.unwrap_or(0.0),
    )
    .map_err(|e| e.to_string())?;
    tr.time("config.engine_new", || {
        AssessmentEngine::new(&registry, &load, &goals, SearchOptions::default())
    })
    .map_err(|e| e.to_string())?;
    Ok(ms(t.elapsed()))
}

/// The lint a `lint` request runs, as a standalone call.
fn standalone_lint(request: &Request, tr: &mut Tracer) -> Result<(), String> {
    let params: LintParams =
        serde_json::from_value(request.params.clone()).map_err(|e| e.to_string())?;
    let (registry, mix) = crate::scenario::decode(
        &serde_json::to_string(&params.registry).map_err(|e| e.to_string())?,
        &serde_json::to_string(&params.workload).map_err(|e| e.to_string())?,
    )?;
    let goals = wfms_core::analysis::GoalTargets {
        max_waiting_time: params.max_wait,
        min_availability: params.min_availability,
    };
    let findings = tr.time("analysis.lint", || {
        analyze(&SystemUnderAnalysis {
            registry: &registry,
            workload: &mix,
            replicas: None,
            goals: Some(&goals),
            max_total_servers: None,
        })
    });
    if findings.has_errors() {
        return Err(format!("{} lint error(s)", findings.error_count()));
    }
    Ok(())
}
