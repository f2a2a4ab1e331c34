//! Resilience tests against the spawned binary under deterministic
//! fault injection: the panic-contained worker watchdog, the retrying
//! `wfms call` client converging to byte-identical answers through
//! injected handler faults, retry exhaustion, graceful degradation of
//! one-shot assessments under a failing state-cache fill, the per-type
//! waiting-goal flag, and the full resilience flag surface of
//! `wfms serve`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

use serde_json::Value;
use wfms_proto::{
    HealthResult, Request, Response, METHOD_HEALTH, METHOD_METRICS, METHOD_SHUTDOWN,
    PROTOCOL_VERSION,
};

fn spec_path(file: &str) -> String {
    format!(
        "{}/../../examples/specs/ep/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn spec(file: &str) -> Value {
    let raw = std::fs::read_to_string(spec_path(file)).expect("read spec fixture");
    serde_json::from_str(&raw).expect("spec fixture parses")
}

fn json<T: serde::Serialize>(value: T) -> Value {
    serde_json::to_value(value).expect("encode test value")
}

/// A scratch file removed on drop, namespaced by pid and tag so the
/// parallel test binary never races itself.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn with_value(tag: &str, value: &Value) -> TempFile {
        let path =
            std::env::temp_dir().join(format!("wfms-resilience-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(value).expect("encode"))
            .expect("write temp file");
        TempFile(path)
    }

    fn path(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A running daemon (optionally under `WFMS_FAULTS`); kills the child
/// on drop so a failing assertion never leaks a listener.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    fn spawn(extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut command = Command::new(env!("CARGO_BIN_EXE_wfms"));
        command
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("spawn wfms serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut ready = String::new();
        stdout.read_line(&mut ready).expect("read ready line");
        assert!(
            ready.starts_with("wfms serve: listening on "),
            "unexpected ready line: {ready:?}"
        );
        let addr = ready
            .trim_start_matches("wfms serve: listening on ")
            .split_whitespace()
            .next()
            .expect("ready line carries the address")
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// One request line on a fresh connection. `None` when the daemon
    /// closed the connection without answering (an injected panic).
    fn try_roundtrip(&self, request: &Request) -> Option<Response> {
        let mut stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        let line = serde_json::to_string(request).expect("serialize request");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(serde_json::from_str(&response).expect("response parses")),
        }
    }

    /// Retries until the daemon answers (fault rates make individual
    /// attempts fall through).
    fn roundtrip_retrying(&self, request: &Request, attempts: u32) -> Response {
        for _ in 0..attempts {
            if let Some(response) = self.try_roundtrip(request) {
                return response;
            }
        }
        panic!("daemon never answered after {attempts} attempts");
    }

    fn shutdown(mut self) {
        let ack = self.roundtrip_retrying(&Request::new(METHOD_SHUTDOWN, Value::Null), 30);
        assert!(ack.ok, "shutdown is acknowledged: {:?}", ack.error);
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "graceful shutdown exits 0: {status:?}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        assert!(
            rest.contains("wfms serve: stopped"),
            "stop line on stdout: {rest:?}"
        );
    }
}

fn request(method: &str, tenant: &str, id: &str) -> Request {
    Request {
        v: PROTOCOL_VERSION,
        id: Some(id.to_string()),
        tenant: Some(tenant.to_string()),
        method: method.to_string(),
        params: Value::Null,
    }
}

fn assess_params() -> Value {
    let mut params = serde_json::Map::new();
    params.insert("registry".to_string(), spec("registry.json"));
    params.insert("workload".to_string(), spec("workload.json"));
    params.insert("config".to_string(), json(vec![2u64, 2, 2]));
    params.insert("max_wait".to_string(), json(0.05));
    params.insert("min_availability".to_string(), json(0.9999));
    Value::Object(params)
}

fn wfms(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfms"))
        .args(args)
        .output()
        .expect("run wfms")
}

#[test]
fn injected_handler_panics_are_contained_and_the_pool_stays_at_full_strength() {
    // Every other request (deterministically, by seed) panics inside
    // the handler via the `serve.handle` error fault. The watchdog must
    // contain each panic and keep both workers serving.
    let daemon = Daemon::spawn(
        &["--workers", "2"],
        &[
            ("WFMS_FAULTS", "serve.handle=error@0.5"),
            ("WFMS_FAULT_SEED", "11"),
        ],
    );

    let mut served = 0u64;
    let mut panicked = 0u64;
    for i in 0..16 {
        match daemon.try_roundtrip(&request(METHOD_METRICS, "chaos", &format!("m-{i}"))) {
            Some(response) => {
                assert!(response.ok, "surviving requests answer normally");
                served += 1;
            }
            None => panicked += 1,
        }
    }
    assert!(panicked >= 2, "the fault must actually fire: {panicked}");
    assert!(
        served >= 3,
        "a 2-worker pool must keep serving through panics: {served}"
    );

    // The watchdog discloses the contained panics, and the daemon is
    // still healthy enough to report it.
    let health = daemon.roundtrip_retrying(&request(METHOD_HEALTH, "chaos", "h-1"), 30);
    assert!(health.ok, "health answers: {:?}", health.error);
    let health: HealthResult =
        serde_json::from_value(health.result.expect("result populated")).expect("typed result");
    assert_eq!(health.state, "ready");
    assert!(
        health.worker_panics >= panicked,
        "every contained panic is counted: {} < {panicked}",
        health.worker_panics
    );
}

#[test]
fn call_converges_to_byte_identical_answers_through_injected_faults() {
    // The same assess against a clean daemon and one whose handler is
    // randomly delayed and whose response writes randomly fail: the
    // retrying client must converge, and the payload bytes must match
    // the clean daemon's exactly.
    let clean = Daemon::spawn(&[], &[]);
    let faulty = Daemon::spawn(
        &[],
        &[
            (
                "WFMS_FAULTS",
                "serve.handle=delay:20ms@0.5,serve.write=error@0.3",
            ),
            ("WFMS_FAULT_SEED", "7"),
        ],
    );
    let params = TempFile::with_value("call-params", &assess_params());

    let call = |addr: &str| {
        let output = wfms(&[
            "call",
            "--addr",
            addr,
            "--method",
            "assess",
            "--params",
            &params.path(),
            "--tenant",
            "acme",
            "--id",
            "a-1",
            "--retries",
            "10",
            "--backoff-ms",
            "10",
            "--seed",
            "3",
        ]);
        assert!(
            output.status.success(),
            "wfms call succeeds: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };

    let clean_bytes = call(&clean.addr);
    let faulty_bytes = call(&faulty.addr);
    assert_eq!(
        clean_bytes, faulty_bytes,
        "faults may cost retries but never change the payload"
    );
    let clean_text = String::from_utf8(clean_bytes.clone()).expect("utf-8 response line");
    let response: Response =
        serde_json::from_str(clean_text.trim_end()).expect("call prints the response line");
    assert!(response.ok, "the converged answer is a success");
    assert_eq!(response.id.as_deref(), Some("a-1"));

    clean.shutdown();
}

#[test]
fn call_reports_exhausted_retries_with_the_last_error() {
    // Reserve a port, then free it: nobody is listening there.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe port");
        listener.local_addr().expect("probe addr").to_string()
    };
    let output = wfms(&[
        "call",
        "--addr",
        &addr,
        "--method",
        "metrics",
        "--retries",
        "1",
        "--backoff-ms",
        "1",
    ]);
    assert!(!output.status.success(), "exhausted retries exit nonzero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no response after 1 retries"),
        "names the retry budget: {stderr}"
    );
}

fn wfms_with_faults(args: &[&str], faults: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfms"))
        .args(args)
        .env("WFMS_FAULTS", faults)
        .output()
        .expect("run wfms")
}

#[test]
fn failed_state_fills_degrade_visibly_and_strict_restores_failfast() {
    const FILL_FAILS: &str = "engine.state-cache-fill=error@1.0";
    let line = |out: &Output, needle: &str| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("no {needle:?} line: {out:?}"))
            .to_string()
    };
    let assess = [
        "assess",
        "--registry",
        &spec_path("registry.json"),
        "--workload",
        &spec_path("workload.json"),
        "--config",
        "2,2,2",
        "--max-wait",
        "0.5",
    ];
    // Every state is charged at its pessimistic cap and disclosed; the
    // availability comes from the unaffected product-form solve.
    let clean = wfms(&assess);
    let degraded = wfms_with_faults(&assess, FILL_FAILS);
    assert!(degraded.status.success(), "{degraded:?}");
    assert!(
        line(&degraded, "DEGRADED").contains("27 failed state(s)"),
        "{degraded:?}"
    );
    assert!(!String::from_utf8_lossy(&clean.stdout).contains("DEGRADED"));
    assert_eq!(
        line(&degraded, "availability"),
        line(&clean, "availability")
    );

    // --strict restores fail-fast: the failed fill is a hard error.
    let strict = wfms_with_faults(&[&assess[..], &["--strict"]].concat(), FILL_FAILS);
    assert!(!strict.status.success(), "{strict:?}");
    assert!(
        String::from_utf8_lossy(&strict.stderr).contains("engine.state-cache-fill"),
        "{strict:?}"
    );

    // The degraded search still lands on the clean winner.
    let recommend = [
        "recommend",
        "--registry",
        &spec_path("registry.json"),
        "--workload",
        &spec_path("workload.json"),
        "--max-wait",
        "0.5",
        "--min-availability",
        "0.9999",
    ];
    let clean = wfms(&recommend);
    let degraded = wfms_with_faults(&recommend, FILL_FAILS);
    assert!(degraded.status.success(), "{degraded:?}");
    assert!(String::from_utf8_lossy(&degraded.stdout).contains("DEGRADED"));
    assert_eq!(line(&degraded, "recommend"), line(&clean, "recommend"));
}

#[test]
fn per_type_waiting_goal_flag_flows_through_the_one_shot_cli() {
    // An unknown type name is rejected with the registered names, so
    // the flag is self-documenting.
    let bogus = wfms(&[
        "assess",
        "--registry",
        &spec_path("registry.json"),
        "--workload",
        &spec_path("workload.json"),
        "--config",
        "2,2,2",
        "--max-wait-type",
        "frobnicator=0.05",
    ]);
    assert!(!bogus.status.success());
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(
        stderr.contains("registered:") && stderr.contains("workflow-engine"),
        "lists the registered names: {stderr}"
    );

    // A registered name works as the only goal on the request.
    let ok = wfms(&[
        "assess",
        "--registry",
        &spec_path("registry.json"),
        "--workload",
        &spec_path("workload.json"),
        "--config",
        "2,2,2",
        "--max-wait-type",
        "workflow-engine=10",
    ]);
    assert!(
        ok.status.success(),
        "per-type-only goal assesses: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("goals met"),
        "renders the goal check: {stdout}"
    );
}

#[test]
fn serve_resilience_flags_spawn_and_shut_down_with_the_stable_lines() {
    let daemon = Daemon::spawn(
        &[
            "--io-timeout",
            "5000",
            "--line-timeout",
            "8000",
            "--max-line-bytes",
            "65536",
            "--request-deadline",
            "30000",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown",
            "500",
            "--drain-timeout",
            "1000",
        ],
        &[],
    );
    let metrics = daemon
        .try_roundtrip(&request(METHOD_METRICS, "flags", "m-1"))
        .expect("metrics answers");
    assert!(
        metrics.ok,
        "metrics under custom flags: {:?}",
        metrics.error
    );
    let health = daemon
        .try_roundtrip(&request(METHOD_HEALTH, "flags", "h-1"))
        .expect("health answers");
    assert!(health.ok, "health under custom flags: {:?}", health.error);
    // `shutdown` asserts the byte-stable ready/stop line contract.
    daemon.shutdown();
}
