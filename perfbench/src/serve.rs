//! The `serve-mixed` workload: an in-process daemon driven by a closed
//! loop of client connections with an editor-integration request mix —
//! three `analyze` requests (lint only, no shared state) for every
//! `repair` request (which writes the shared knowledge base and the
//! process-global oracle cache). The daemon's knowledge store is seeded
//! from a different corpus seed and opened lazily, so shard fault-in is
//! part of what gets measured.

use crate::batch::{self, Prepared};
use crate::measure::{fastest, median, ms_since, peak_rss_mb, quantile};
use crate::report::{error_rate, Outcome};
use rb_dataset::{Corpus, UbCase};
use rb_engine::derive_case_seed;
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_miri::{run_program, UbClass};
use rb_serve::client::{analyze_request, repair_request, shutdown_request, stats_request};
use rb_serve::json::{parse, Value};
use rb_serve::server::gold_outputs;
use rb_serve::{seed_store, Client, ServeConfig, Server};
use rustbrain::KnowledgeBase;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cases per UB class in the request corpus (4200 requests per cycle).
const PER_CLASS: usize = 300;
/// Cases per class of the corpus the knowledge store is learned from.
const STORE_PER_CLASS: usize = 30;
/// Mixed into the seed to derive the store corpus's seed.
const STORE_SEED_SALT: u64 = 0x5eed_5707_e000_0001;
/// Concurrent client connections (closed loop: each waits for its reply).
const CONNECTIONS: usize = 2;
/// Daemon connection-handler threads.
const HANDLERS: usize = 2;
/// Every `REPAIR_EVERY`-th request is a repair; the rest are analyzes.
const REPAIR_EVERY: usize = 4;
/// Length of the time slices the closed loop's run is cut into; the
/// end-to-end speed metrics come from the fastest of them.
const SLICE_S: f64 = 0.5;

/// One request of the stream, with what a correct answer starts with.
struct Request {
    line: String,
    case: usize,
    repair: bool,
    /// Prefix every correct response carries: `ok` and, for `analyze`,
    /// the case's UB class as the top finding.
    expect: String,
}

/// Checks a response line against the inline expectations of `request`.
fn check_response(request: &Request, response: &str) -> Result<(), String> {
    if response.starts_with(&request.expect) {
        Ok(())
    } else {
        let head: String = response.chars().take(120).collect();
        Err(format!(
            "request {}: unexpected response {head}",
            request.case
        ))
    }
}

/// The `seed` a repair request for `case` carries: the engine's derived
/// case seed, shortened to 53 bits because the wire protocol reads
/// numbers as `f64`.
pub fn request_seed(seed: u64, case: &UbCase) -> u64 {
    derive_case_seed(seed, &case.id) >> 11
}

/// The request stream: one request per case, a repair every
/// [`REPAIR_EVERY`] cases and an analyze otherwise.
fn requests(cases: &[UbCase], seed: u64) -> Vec<Request> {
    cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let source = print_program(&case.buggy);
            let repair = i % REPAIR_EVERY == REPAIR_EVERY - 1;
            let (line, expect) = if repair {
                let line = repair_request(&source, &gold_outputs(case), request_seed(seed, case));
                (line, "{\"ok\":true,\"verb\":\"repair\",".to_owned())
            } else {
                let expect = format!(
                    "{{\"ok\":true,\"verb\":\"analyze\",\"top_class\":\"{}\"",
                    case.class.label()
                );
                (analyze_request(&source), expect)
            };
            Request {
                line,
                case: i,
                repair,
                expect,
            }
        })
        .collect()
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    repair_ms: Vec<f64>,
    /// When each repair in `repair_ms` completed, in seconds since the
    /// loop's common start.
    repair_end_s: Vec<f64>,
    analyze_ms: Vec<f64>,
    failures: Vec<String>,
    /// Distinct repair responses per request index, with occurrence counts.
    repairs: HashMap<usize, Vec<(String, u64)>>,
    elapsed_s: f64,
}

impl ClientLog {
    fn requests(&self) -> u64 {
        (self.repair_ms.len() + self.analyze_ms.len() + self.failures.len()) as u64
    }
}

/// One closed-loop connection: sends the stream from `offset` onwards,
/// wrapping around, from `origin` until `deadline`.
fn client_loop(
    addr: &str,
    stream: &[Request],
    offset: usize,
    origin: Instant,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let started = Instant::now();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.failures.push(format!("connect failed: {e}"));
            return log;
        }
    };
    let mut i = offset;
    while Instant::now() < deadline {
        let request = &stream[i % stream.len()];
        i += 1;
        let start = Instant::now();
        let response = match client.call(&request.line) {
            Ok(response) => response,
            Err(e) => {
                log.failures.push(format!("request {}: {e}", request.case));
                break;
            }
        };
        let ms = ms_since(start);
        if let Err(e) = check_response(request, &response) {
            log.failures.push(e);
        } else if request.repair {
            log.repair_ms.push(ms);
            log.repair_end_s.push(origin.elapsed().as_secs_f64());
            let seen = log.repairs.entry(request.case).or_default();
            match seen.iter_mut().find(|(r, _)| *r == response) {
                Some((_, count)) => *count += 1,
                None => seen.push((response, 1)),
            }
        } else {
            log.analyze_ms.push(ms);
        }
    }
    log.elapsed_s = started.elapsed().as_secs_f64();
    log
}

/// Tally of the verified repair responses.
#[derive(Default)]
struct RepairTally {
    total: u64,
    passed: u64,
    acceptable: u64,
}

/// Verifies a repair response outside the daemon: its `repaired` source,
/// re-parsed and judged by the interpreter, must pass exactly when the
/// response says `passed`.
fn verify_repair(response: &str) -> Result<(bool, bool), String> {
    let doc = parse(response)?;
    let passed = doc.get("passed").and_then(Value::as_bool);
    let acceptable = doc.get("acceptable").and_then(Value::as_bool);
    let repaired = doc.get("repaired").and_then(Value::as_str);
    let (Some(passed), Some(acceptable), Some(repaired)) = (passed, acceptable, repaired) else {
        return Err("repair response lacks passed/acceptable/repaired".to_owned());
    };
    let program = parse_program(repaired).map_err(|e| format!("repaired source: {e}"))?;
    if run_program(&program).passes() != passed {
        return Err(format!(
            "response says passed={passed}, the interpreter disagrees"
        ));
    }
    Ok((passed, acceptable))
}

/// The daemon's `stats` snapshot, or why it could not be read.
fn daemon_stats(addr: &str) -> Result<Value, String> {
    let line = Client::connect(addr)
        .and_then(|mut c| c.call(&stats_request()))
        .map_err(|e| format!("stats verb: {e}"))?;
    let doc = parse(&line)?;
    doc.get("serve")
        .cloned()
        .ok_or_else(|| "stats without serve".to_owned())
}

struct Setup {
    cases: Vec<UbCase>,
    stream: Vec<Request>,
    store: PathBuf,
    server: Server,
}

fn prepare(seed: u64, work: &Path, rep: usize) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let cases = Corpus::generate_full(seed, PER_CLASS).cases;
    let generate_ms = ms_since(start);
    let store = work.join(format!("serve-{rep}.rbkb.d"));
    let _ = std::fs::remove_dir_all(&store);
    seed_store(
        &store,
        seed ^ STORE_SEED_SALT,
        STORE_PER_CLASS,
        &UbClass::ALL,
    )?;
    let stream = requests(&cases, seed);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: batch::WORKERS,
        handlers: HANDLERS,
        kb_path: Some(store.clone()),
        ..ServeConfig::default()
    })?;
    let setup = Setup {
        cases,
        stream,
        store,
        server,
    };
    Ok((setup, generate_ms))
}

/// Runs `serve-mixed`: setup [`batch::SETUP_REPS`] times, one daemon
/// lifetime under the closed loop, then the checks; a traced run adds the
/// daemon's `stats` split and the serial runner and layer replay over
/// the request corpus from the store's knowledge.
pub fn run(seed: u64, seconds: u64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut generates = Vec::new();
    let mut setup = None;
    for rep in 0..batch::SETUP_REPS {
        drop(setup.take());
        let start = Instant::now();
        match prepare(seed, work, rep) {
            Ok((s, generate_ms)) => {
                setups.push(start.elapsed().as_secs_f64());
                generates.push(generate_ms);
                setup = Some(s);
            }
            Err(e) => {
                out.fail(format!("setup failed: {e}"));
                return out;
            }
        }
    }
    let Setup {
        cases,
        stream,
        store,
        server,
    } = setup.expect("at least one setup");
    out.set("setup_s", median(&setups));
    out.set("dataset.generate_ms", median(&generates));
    // The traced run's serial runner starts from the store as seeded,
    // before the daemon's learning is persisted into it.
    let seeded = if trace {
        match KnowledgeBase::load(&store) {
            Ok(kb) => Some(kb),
            Err(e) => {
                out.fail(format!("cannot load the seeded store: {e}"));
                return out;
            }
        }
    } else {
        None
    };

    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, stream) = (&addr, &stream);
                let offset = c * stream.len() / CONNECTIONS;
                s.spawn(move || client_loop(addr, stream, offset, origin, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // Read before the result bookkeeping below allocates copies that grow
    // with throughput, so it measures the daemon and the closed loop.
    let peak_rss = peak_rss_mb();
    let stats = daemon_stats(&addr);
    match Client::connect(&addr).and_then(|mut c| c.call(&shutdown_request())) {
        Ok(_) => {
            let _ = daemon.join();
        }
        // The daemon cannot be stopped; leave its thread to process exit.
        Err(e) => out.fail(format!("shutdown failed: {e}")),
    }

    let window_s = logs.iter().map(|l| l.elapsed_s).fold(0.0, f64::max);
    let mut repair_ms = Vec::new();
    let mut analyze_ms = Vec::new();
    let mut tally = RepairTally::default();
    for log in &logs {
        out.attempt(log.requests());
        repair_ms.extend_from_slice(&log.repair_ms);
        analyze_ms.extend_from_slice(&log.analyze_ms);
        for failure in &log.failures {
            out.fail(failure.clone());
        }
        for (case, seen) in &log.repairs {
            for (response, count) in seen {
                match verify_repair(response) {
                    Ok((passed, acceptable)) => {
                        tally.total += count;
                        tally.passed += u64::from(passed) * count;
                        tally.acceptable += u64::from(acceptable) * count;
                    }
                    Err(e) => out.fail_n(*count, format!("repair of request {case}: {e}")),
                }
            }
        }
    }
    let all_ms: Vec<f64> = repair_ms.iter().chain(&analyze_ms).copied().collect();
    eprintln!(
        "perfbench: {} requests ({} repairs) over {window_s:.2} s",
        all_ms.len(),
        repair_ms.len()
    );

    if trace {
        out.set("serve.req_per_s", all_ms.len() as f64 / window_s);
        out.set("serve.analyze_p50_ms", quantile(&analyze_ms, 0.5));
        out.set("serve.analyze_p90_ms", quantile(&analyze_ms, 0.9));
        match stats {
            Ok(stats) => {
                let num = |path: &[&str]| {
                    path.iter()
                        .try_fold(&stats, |v, k| v.get(k))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                };
                let server_p50 = num(&["latency", "p50_ms"]);
                out.set("serve.server_p50_ms", server_p50);
                out.set("serve.transport_p50_ms", median(&all_ms) - server_p50);
                let errors = num(&["errors"]);
                out.set("serve.errors", errors);
                if errors > 0.0 {
                    out.fail(format!("the daemon answered {errors} requests with errors"));
                }
                let prep = Prepared::cold(cases, seed, seeded.expect("loaded when tracing"));
                batch::traced(batch::Warmth::Cold, &prep, work, &mut out);
                // The daemon's lazy fault-ins, not the replay's.
                out.set("kb.shard_loads", num(&["kb", "shard_loads"]));
            }
            Err(e) => out.fail(e),
        }
    } else {
        // Repair latencies by the time slice they completed in; requests
        // still in flight at the deadline fall in no whole slice.
        let mut slices = vec![Vec::new(); ((seconds as f64 / SLICE_S) as usize).max(1)];
        for log in &logs {
            for (&ms, &end) in log.repair_ms.iter().zip(&log.repair_end_s) {
                if let Some(slice) = slices.get_mut((end / SLICE_S) as usize) {
                    slice.push(ms);
                }
            }
        }
        let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64 / SLICE_S).collect();
        let best = fastest(&rates);
        let n = tally.total.max(1) as f64;
        out.set("cases_per_s", rates[best]);
        out.set("repair_p50_ms", quantile(&slices[best], 0.5));
        out.set("repair_p90_ms", quantile(&slices[best], 0.9));
        out.set("pass_rate", tally.passed as f64 / n);
        out.set("exec_rate", tally.acceptable as f64 / n);
        out.set("ok_rate", 1.0 - error_rate(out.attempted, out.failed));
        out.set("peak_rss_mb", peak_rss);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<Request> {
        let cases = Corpus::generate(5, 2, &[UbClass::Panic, UbClass::Alloc]).cases;
        requests(&cases, 5)
    }

    #[test]
    fn stream_mixes_three_analyzes_per_repair() {
        let stream = stream();
        let repairs = stream.iter().filter(|r| r.repair).count();
        assert_eq!(repairs, 1);
        assert_eq!(stream.len(), 4);
        assert!(stream
            .iter()
            .all(|r| rb_serve::parse_request(&r.line).is_ok()));
    }

    #[test]
    fn injected_error_response_counts_in_error_rate() {
        let stream = stream();
        let analyze = &stream[0];
        let good = format!("{}, \"analysis\":{{}}}}", analyze.expect);
        assert!(check_response(analyze, &good).is_ok());
        let wrong_class = good.replace(
            analyze.expect.as_str(),
            "{\"ok\":true,\"verb\":\"analyze\",\"top_class\":\"nope\"",
        );
        assert!(check_response(analyze, &wrong_class).is_err());

        let mut log = ClientLog::default();
        log.analyze_ms.extend([0.1, 0.1, 0.1]);
        let injected = "{\"ok\":false,\"error\":\"injected\"}";
        if let Err(e) = check_response(analyze, injected) {
            log.failures.push(e);
        }
        let mut out = Outcome::default();
        out.attempt(log.requests());
        for failure in &log.failures {
            out.fail(failure.clone());
        }
        assert_eq!(error_rate(out.attempted, out.failed), 0.25);
        assert!(!out.correct());
    }

    #[test]
    fn repair_verdicts_are_rechecked_outside_the_daemon() {
        let clean = "fn main() { print(1i32); }";
        let doc = |passed: bool, source: &str| {
            format!(
                "{{\"ok\":true,\"verb\":\"repair\",\"passed\":{passed},\"acceptable\":true,\"repaired\":{}}}",
                rb_serve::json::fmt_str(source)
            )
        };
        assert_eq!(verify_repair(&doc(true, clean)), Ok((true, true)));
        assert!(verify_repair(&doc(false, clean)).is_err());
        let ub = "fn main() { let z: i32 = 0; print(1 / z); }";
        assert_eq!(verify_repair(&doc(false, ub)), Ok((false, true)));
        assert!(verify_repair("{\"ok\":true,\"verb\":\"repair\",\"already_clean\":true}").is_err());
    }
}
