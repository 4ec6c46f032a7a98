//! Driving the daemon over loopback TCP: start/stop, catalogue warm-up,
//! the open-loop generator, the saturating burst, the closed-loop
//! analyst, and the restart replay check.
//!
//! Every client call goes through [`NetClient::send_raw`], so the raw
//! response lines are kept for the byte-identity check after restart.
//! Latencies are measured against the daemon's own terminal stamps: the
//! daemon runs in this process, so its `wall_clock_ns` history stamps
//! and the generator's schedule share one clock.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use astra_service::{
    wire, JobId, JobRequest, NetClient, NetConfig, NetServer, ServiceConfig, ServiceDaemon,
    ServiceHandle,
};
use astra_telemetry::{wall_clock_ns, Telemetry};
use serde_json::{json, Value};

use crate::gen::Scheduled;
use crate::trace::Tracer;

/// A running daemon with its TCP listener.
pub struct Live {
    pub daemon: ServiceDaemon,
    pub server: NetServer,
    pub addr: String,
}

impl Live {
    pub fn start(config: ServiceConfig) -> Live {
        let daemon = ServiceDaemon::try_start(config).expect("start daemon");
        let server = NetServer::start(
            daemon.handle(),
            "127.0.0.1:0",
            NetConfig::default(),
            Telemetry::disabled(),
        )
        .expect("bind loopback listener");
        let addr = server.local_addr().to_string();
        Live {
            daemon,
            server,
            addr,
        }
    }

    pub fn handle(&self) -> ServiceHandle {
        self.daemon.handle()
    }

    pub fn connect(&self) -> NetClient {
        NetClient::connect(&self.addr).expect("connect to daemon")
    }

    /// Close the listener, drain the daemon, and return every snapshot.
    pub fn stop(self) -> Vec<astra_service::JobSnapshot> {
        self.server.shutdown();
        self.daemon.shutdown()
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct Record {
    pub request: JobRequest,
    /// When the job was due to be sent (`wall_clock_ns`); equal to
    /// `sent_ns` for closed-loop and burst jobs.
    pub scheduled_ns: u64,
    pub sent_ns: u64,
    pub submit_rtt_ns: u64,
    pub id: JobId,
    /// The raw `await` response line.
    pub await_line: String,
    pub status: String,
    pub terminal_ns: u64,
    pub queue_wait_ns: u64,
    pub plan_ns: u64,
    pub sim_ns: u64,
    /// Whether this job's client calls were wrapped in spans.
    pub traced: bool,
}

impl Record {
    /// Scheduled send → terminal snapshot.
    pub fn latency_ns(&self) -> u64 {
        self.terminal_ns.saturating_sub(self.scheduled_ns)
    }

    pub fn done(&self) -> bool {
        self.status == "DONE"
    }
}

pub fn submit_line(request: &JobRequest) -> String {
    json!({ "op": "submit", "request": wire::job_request_to_json(request) }).to_string()
}

pub fn resubmit_line(prior: JobId, request: &JobRequest) -> String {
    json!({ "op": "resubmit", "id": prior, "request": wire::job_request_to_json(request) })
        .to_string()
}

fn id_of(response: &str) -> JobId {
    let value: Value = serde_json::from_str(response).expect("response is JSON");
    match value.get("id").and_then(Value::as_u64) {
        Some(id) if value.get("ok") == Some(&Value::from(true)) => id,
        _ => panic!("submission refused: {response}"),
    }
}

/// Fill a record's daemon-side fields from its `await` line.
fn absorb_await(record: &mut Record, line: String) {
    let value: Value = serde_json::from_str(&line).expect("await response is JSON");
    let job = value.get("job").expect("await response carries the job");
    record.status = job
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    record.terminal_ns = job
        .get("history")
        .and_then(Value::as_array)
        .and_then(|h| h.last())
        .and_then(|e| e.get("at_ns"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let metric = |name| {
        job.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    record.queue_wait_ns = metric("queue_wait_ns");
    record.plan_ns = metric("plan_ns");
    record.sim_ns = metric("sim_ns");
    record.await_line = line;
}

fn await_line(client: &mut NetClient, id: JobId) -> String {
    client
        .send_raw(&json!({ "op": "await", "id": id }).to_string())
        .expect("await")
}

/// Submit `requests` on one connection and await them all.
pub fn submit_and_await(live: &Live, requests: &[JobRequest]) -> Vec<Record> {
    let mut client = live.connect();
    let mut records: Vec<Record> = requests
        .iter()
        .map(|request| {
            let sent_ns = wall_clock_ns();
            let id = id_of(&client.send_raw(&submit_line(request)).expect("submit"));
            Record {
                request: request.clone(),
                scheduled_ns: sent_ns,
                sent_ns,
                submit_rtt_ns: wall_clock_ns() - sent_ns,
                id,
                await_line: String::new(),
                status: String::new(),
                terminal_ns: 0,
                queue_wait_ns: 0,
                plan_ns: 0,
                sim_ns: 0,
                traced: false,
            }
        })
        .collect();
    for record in &mut records {
        let line = await_line(&mut client, record.id);
        absorb_await(record, line);
    }
    records
}

/// Client-side timings of one fixed-rate or closed-loop phase.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    pub records: Vec<Record>,
    /// Actual minus scheduled send: of every job (open loop), or of
    /// every dashboard `stats` poll (closed loop, whose jobs have no
    /// schedule).
    pub lateness_ns: Vec<u64>,
    pub stats_rtt_ns: Vec<u64>,
    /// Daemon queue depth when the phase started and when its last
    /// scheduled send went out.
    pub queue_depth_start: usize,
    pub queue_depth_end: usize,
    pub wall_ns: u64,
}

impl PhaseOutcome {
    /// Append the next segment of the same fixed-rate phase. The queue
    /// depth at the end becomes the deepest any segment ended at, so the
    /// backlog check covers every segment.
    pub fn extend(&mut self, next: PhaseOutcome) {
        if self.records.is_empty() {
            self.queue_depth_start = next.queue_depth_start;
        }
        self.records.extend(next.records);
        self.lateness_ns.extend(next.lateness_ns);
        self.stats_rtt_ns.extend(next.stats_rtt_ns);
        self.queue_depth_end = self.queue_depth_end.max(next.queue_depth_end);
        self.wall_ns += next.wall_ns;
    }
}

/// Wake-ups from `sleep` overshoot by tens of microseconds, which the
/// open-loop latency (timed from the schedule) would charge to the
/// daemon: sleep to just short of the target, then yield until it.
const SPIN_NS: u64 = 100_000;

fn sleep_until(target_ns: u64) {
    let now = wall_clock_ns();
    if target_ns > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(target_ns - now - SPIN_NS));
    }
    while wall_clock_ns() < target_ns {
        std::thread::yield_now();
    }
}

/// Which jobs get client spans in a traced run: every other one, so the
/// untraced half of the same run is the overhead baseline.
pub fn traced_job(tracer: Option<&Tracer>, index: usize) -> bool {
    tracer.is_some() && index.is_multiple_of(2)
}

/// The open-loop generator: one thread sends every request at its
/// scheduled time on connection A; a collector awaits each job on
/// connection B and, every `stats_every_ms` of the schedule (if set),
/// polls `stats` there as an operator dashboard would. With a `window`,
/// the generator also holds back while that many jobs are unfinished
/// (the saturating burst keeps the queue full without overflowing it).
pub fn open_loop(
    live: &Live,
    events: &[Scheduled],
    stats_every_ms: Option<u64>,
    window: Option<usize>,
    tracer: Option<&Tracer>,
) -> PhaseOutcome {
    let handle = live.handle();
    // Encode before the clock starts: the generator only writes.
    let lines: Vec<String> = events.iter().map(|e| submit_line(&e.request)).collect();
    let mut gen_client = live.connect();
    let mut collector = live.connect();
    let start_ns = wall_clock_ns() + 5_000_000;
    let end_ns = start_ns + events.last().map(|e| e.at_ns).unwrap_or(0);
    let queue_depth_start = handle.queue_len();
    let (tx, rx) = mpsc::channel::<Record>();
    let finished = AtomicUsize::new(0);
    let finished = &finished;

    std::thread::scope(|scope| {
        let collected = scope.spawn(move || {
            let mut records = Vec::new();
            let mut stats_rtt_ns = Vec::new();
            let step_ns = stats_every_ms.map(|ms| ms * 1_000_000);
            let mut next_poll = step_ns.map(|step| start_ns + step);
            loop {
                let received = match next_poll {
                    Some(at) if at <= end_ns => {
                        let wait = at.saturating_sub(wall_clock_ns());
                        rx.recv_timeout(Duration::from_nanos(wait))
                    }
                    _ => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                };
                match received {
                    Ok(mut record) => {
                        let t0 = wall_clock_ns();
                        let line = await_line(&mut collector, record.id);
                        if let (true, Some(t)) = (record.traced, tracer) {
                            t.record(
                                "client.await",
                                "collector",
                                record.id,
                                0,
                                t0,
                                wall_clock_ns(),
                            );
                        }
                        absorb_await(&mut record, line);
                        records.push(record);
                        finished.fetch_add(1, Ordering::Release);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                if let (Some(at), Some(step)) = (next_poll, step_ns) {
                    if wall_clock_ns() >= at {
                        let sent = wall_clock_ns();
                        collector.send_raw(r#"{"op":"stats"}"#).expect("stats");
                        let done = wall_clock_ns();
                        if let Some(t) = tracer {
                            t.record("client.stats", "collector", 0, 0, sent, done);
                        }
                        stats_rtt_ns.push(done - sent);
                        next_poll = Some(at + step);
                    }
                }
            }
            (records, stats_rtt_ns)
        });

        let mut lateness_ns = Vec::with_capacity(events.len());
        for (index, (event, line)) in events.iter().zip(&lines).enumerate() {
            let scheduled_ns = start_ns + event.at_ns;
            sleep_until(scheduled_ns);
            if let Some(window) = window {
                while index - finished.load(Ordering::Acquire) >= window {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
            let sent_ns = wall_clock_ns();
            lateness_ns.push(sent_ns.saturating_sub(scheduled_ns));
            let response = gen_client.send_raw(line).expect("submit");
            let done_ns = wall_clock_ns();
            let id = id_of(&response);
            let traced = traced_job(tracer, index);
            if let (true, Some(t)) = (traced, tracer) {
                t.record("client.submit", "generator", id, 0, sent_ns, done_ns);
            }
            tx.send(Record {
                request: event.request.clone(),
                scheduled_ns,
                sent_ns,
                submit_rtt_ns: done_ns - sent_ns,
                id,
                await_line: String::new(),
                status: String::new(),
                terminal_ns: 0,
                queue_wait_ns: 0,
                plan_ns: 0,
                sim_ns: 0,
                traced,
            })
            .expect("collector alive");
        }
        let queue_depth_end = handle.queue_len();
        let wall_ns = wall_clock_ns() - start_ns;
        drop(tx);
        let (records, stats_rtt_ns) = collected.join().expect("collector thread");
        PhaseOutcome {
            records,
            lateness_ns,
            stats_rtt_ns,
            queue_depth_start,
            queue_depth_end,
            wall_ns,
        }
    })
}

/// Unfinished jobs the burst keeps in flight: enough to keep both
/// workers busy, well under the daemon's 1024-job queue.
const BURST_WINDOW: usize = 256;

/// The saturating burst: submit back to back on connection A, await on
/// connection B. Returns the records and the completion rate in jobs
/// per second between the 10th and the 90th percentile completion, so
/// the ramp-up and the drain at either end do not count.
pub fn burst(live: &Live, requests: &[JobRequest]) -> (Vec<Record>, f64) {
    let events: Vec<Scheduled> = requests
        .iter()
        .map(|request| Scheduled {
            at_ns: 0,
            request: request.clone(),
        })
        .collect();
    let mut records = open_loop(live, &events, None, Some(BURST_WINDOW), None).records;
    for r in &mut records {
        // Burst jobs have no schedule of their own.
        r.scheduled_ns = r.sent_ns;
    }
    let mut finished: Vec<u64> = records
        .iter()
        .filter(|r| r.done())
        .map(|r| r.terminal_ns)
        .collect();
    finished.sort_unstable();
    let (lo, hi) = (finished.len() / 10, finished.len() * 9 / 10);
    let rate = match (finished.get(lo), finished.get(hi)) {
        (Some(&t_lo), Some(&t_hi)) if t_hi > t_lo => {
            (hi - lo) as f64 / ((t_hi - t_lo) as f64 / 1e9)
        }
        _ => 0.0,
    };
    (records, rate)
}

/// One analyst step to send: its request, and whether it resubmits the
/// previous step's job.
pub struct AnalystStep {
    pub request: JobRequest,
    pub resubmits_previous: bool,
    /// Index of the session this step belongs to.
    pub session: usize,
}

/// The closed-loop analyst on connection A (send, await, next), while an
/// operator dashboard polls `stats` every `stats_every_ms` on
/// connection B. Stops at the first session boundary past `seconds`.
pub fn closed_loop(
    live: &Live,
    steps: &[AnalystStep],
    seconds: f64,
    stats_every_ms: u64,
    tracer: Option<&Tracer>,
) -> PhaseOutcome {
    let handle = live.handle();
    let mut analyst = live.connect();
    let mut dashboard = live.connect();
    let stop = Arc::new(AtomicBool::new(false));
    let start_ns = wall_clock_ns();
    let deadline_ns = start_ns + (seconds * 1e9) as u64;
    let queue_depth_start = handle.queue_len();

    std::thread::scope(|scope| {
        let polls = {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut lateness_ns = Vec::new();
                let mut rtt_ns = Vec::new();
                let step = stats_every_ms * 1_000_000;
                let mut next = start_ns + step;
                while !stop.load(Ordering::Acquire) {
                    sleep_until(next);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let sent = wall_clock_ns();
                    lateness_ns.push(sent - next.min(sent));
                    dashboard.send_raw(r#"{"op":"stats"}"#).expect("stats");
                    let done = wall_clock_ns();
                    if let Some(t) = tracer {
                        t.record("client.stats", "dashboard", 0, 0, sent, done);
                    }
                    rtt_ns.push(done - sent);
                    next += step;
                }
                (lateness_ns, rtt_ns)
            })
        };

        let mut records: Vec<Record> = Vec::new();
        let mut prior: Option<JobId> = None;
        for step in steps {
            if !step.resubmits_previous && wall_clock_ns() >= deadline_ns {
                break;
            }
            let traced = traced_job(tracer, step.session);
            let line = match (step.resubmits_previous, prior) {
                (true, Some(prior)) => resubmit_line(prior, &step.request),
                _ => submit_line(&step.request),
            };
            let sent_ns = wall_clock_ns();
            let id = id_of(&analyst.send_raw(&line).expect("submit"));
            let acked_ns = wall_clock_ns();
            let reply = await_line(&mut analyst, id);
            if traced {
                if let Some(t) = tracer {
                    let name = if step.resubmits_previous {
                        "client.resubmit"
                    } else {
                        "client.submit"
                    };
                    t.record(name, "analyst", id, 0, sent_ns, acked_ns);
                    t.record("client.await", "analyst", id, 0, acked_ns, wall_clock_ns());
                }
            }
            let mut record = Record {
                request: step.request.clone(),
                scheduled_ns: sent_ns,
                sent_ns,
                submit_rtt_ns: acked_ns - sent_ns,
                id,
                await_line: String::new(),
                status: String::new(),
                terminal_ns: 0,
                queue_wait_ns: 0,
                plan_ns: 0,
                sim_ns: 0,
                traced,
            };
            absorb_await(&mut record, reply);
            records.push(record);
            prior = Some(id);
        }
        let queue_depth_end = handle.queue_len();
        let wall_ns = wall_clock_ns() - start_ns;
        stop.store(true, Ordering::Release);
        let (lateness_ns, stats_rtt_ns) = polls.join().expect("dashboard thread");
        PhaseOutcome {
            records,
            lateness_ns,
            stats_rtt_ns,
            queue_depth_start,
            queue_depth_end,
            wall_ns,
        }
    })
}

/// Restart a fresh daemon on `config`'s journal and time it until it
/// answers `status` for the last record's id. With `compare`, then check
/// every record's terminal snapshot against what the restarted daemon
/// answers, byte for byte. Returns the restart time in seconds and the
/// mismatching job ids.
pub fn restart(config: ServiceConfig, records: &[Record], compare: bool) -> (f64, Vec<JobId>) {
    let last_id = records.iter().map(|r| r.id).max().unwrap_or(1);
    let t0 = wall_clock_ns();
    let live = Live::start(config);
    let mut client = live.connect();
    let status = |client: &mut NetClient, id: JobId| {
        client
            .send_raw(&json!({ "op": "status", "id": id }).to_string())
            .expect("status")
    };
    let first = status(&mut client, last_id);
    let restart_s = (wall_clock_ns() - t0) as f64 / 1e9;
    assert!(
        first.contains(r#""ok":true"#),
        "restarted daemon lost job {last_id}: {first}"
    );
    let mismatches = records
        .iter()
        .filter(|_| compare)
        .filter(|r| {
            let expected = r
                .await_line
                .replacen(r#""op":"await""#, r#""op":"status""#, 1);
            status(&mut client, r.id) != expected
        })
        .map(|r| r.id)
        .collect();
    drop(client);
    live.stop();
    (restart_s, mismatches)
}
