//! Query load generation against a running store: a seeded route mix,
//! a closed loop and an open loop.
//!
//! The route mix is `querybench`'s (same shapes, same SplitMix64 draw
//! order), so a stream here and a querybench stream of the same seed
//! issue the same requests.

use crate::stats;
use crate::workloads::BenchResult;
use gaugenn_apk::crc32::crc32;
use gaugenn_dnn::task::Task;
use gaugenn_index::{AppQuery, ModelQuery};
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::categories::CATEGORIES;
use gaugenn_playstore::net::Endpoint;
use gaugenn_playstore::reactor_client::{drive_lanes, LaneOpts, LaneSpec, RouteListJob};
use gaugenn_playstore::route::Route;
use gaugenn_playstore::{LockstepServer, QueryClient, RetryPolicy};
use std::time::{Duration, Instant};

/// SplitMix64 — the repository's standard seedable generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Seeded query stream: full scans, dimension filters, range scans, app
/// queries and stats, in `querybench`'s proportions.
pub fn stream(seed: u64, n: usize) -> Vec<Route> {
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    (0..n)
        .map(|_| match next() % 8 {
            0 => Route::QueryModels(ModelQuery {
                limit: Some(1 + next() % 64),
                ..ModelQuery::default()
            }),
            1 => Route::QueryModels(ModelQuery {
                frameworks: vec![
                    Framework::ALL[(next() % Framework::ALL.len() as u64) as usize]
                        .name()
                        .to_string(),
                ],
                ..ModelQuery::default()
            }),
            2 => Route::QueryModels(ModelQuery {
                tasks: vec![Task::ALL[(next() % Task::ALL.len() as u64) as usize]
                    .name()
                    .to_string()],
                snapshot: Some("Apr 2021".to_string()),
                ..ModelQuery::default()
            }),
            3 => {
                let lo = next() % 1_000_000_000;
                Route::QueryModels(ModelQuery {
                    min_flops: Some(lo),
                    max_flops: Some(lo + next() % 10_000_000_000),
                    ..ModelQuery::default()
                })
            }
            4 => Route::QueryModels(ModelQuery {
                quantised: Some(next() % 2 == 0),
                min_params: Some(next() % 1_000_000),
                limit: Some(1 + next() % 32),
                ..ModelQuery::default()
            }),
            5 => Route::QueryApps(AppQuery {
                categories: vec![CATEGORIES[(next() % CATEGORIES.len() as u64) as usize]
                    .name
                    .to_string()],
                ..AppQuery::default()
            }),
            6 => Route::QueryApps(AppQuery {
                ml_only: next() % 2 == 0,
                cloud: Some(next() % 2 == 0),
                limit: Some(1 + next() % 128),
                ..AppQuery::default()
            }),
            _ => Route::QueryStats,
        })
        .collect()
}

/// Outcome of one replay of a stream.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall time of the whole replay.
    pub wall: Duration,
    /// crc32 over `status ‖ body` of every response, in stream order.
    pub digest: u32,
    /// Queries that did not end in a 200 after the client's retries.
    pub failed: usize,
    /// Per-query latency in microseconds (open loop: from the due time).
    pub latencies_us: Vec<f64>,
    /// Open loop only: how late each request was sent, in microseconds.
    pub late_us: Vec<f64>,
    /// Requests the clients sent, retries included.
    pub requests: u64,
}

impl Replay {
    /// Completed queries per second.
    pub fn qps(&self) -> f64 {
        self.latencies_us.len() as f64 / self.wall.as_secs_f64()
    }
}

/// How a replay paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Each connection sends its next query when the previous answer
    /// arrives.
    Closed,
    /// Query `i` is due at `i / rate` seconds after the start, whatever
    /// the state of earlier queries; latency counts from the due time.
    Open {
        /// Offered queries per second, over all connections.
        rate: f64,
    },
}

/// Due time of query `i` at `rate` queries per second.
pub fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Latency of a request measured from its due time, not its send time:
/// a stall that delays later sends is charged to them.
pub fn latency_from_due(due_at: Instant, done_at: Instant) -> Duration {
    done_at.saturating_duration_since(due_at)
}

/// Replay `queries` over `connections` blocking connections, query `i`
/// on connection `i % connections`.
pub fn replay(
    endpoint: &Endpoint,
    queries: &[Route],
    connections: usize,
    pacing: Pacing,
    seed: u64,
) -> Replay {
    let n = queries.len();
    let start = Instant::now();
    type Sent = (Vec<(usize, Vec<u8>, f64, f64)>, u64);
    let per_conn: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let mut client = QueryClient::builder_at(endpoint)
                        .connection_id(c as u64)
                        .jitter_seed(seed ^ c as u64)
                        .timeouts(Duration::from_secs(30), Duration::from_secs(30))
                        .build()
                        .expect("connect to the local store");
                    let mut out = Vec::new();
                    for i in (c..n).step_by(connections) {
                        let (due_at, late) = match pacing {
                            Pacing::Closed => (Instant::now(), 0.0),
                            Pacing::Open { rate } => {
                                let due_at = start + due(i, rate);
                                let now = Instant::now();
                                if now < due_at {
                                    std::thread::sleep(due_at - now);
                                }
                                let late = Instant::now().saturating_duration_since(due_at);
                                (due_at, late.as_secs_f64() * 1e6)
                            }
                        };
                        let bytes = match client.raw(&queries[i]) {
                            Ok(resp) if resp.status == 200 => {
                                let mut b = resp.status.to_be_bytes().to_vec();
                                b.extend_from_slice(&resp.body);
                                b
                            }
                            _ => Vec::new(),
                        };
                        let lat = latency_from_due(due_at, Instant::now());
                        out.push((i, bytes, lat.as_secs_f64() * 1e6, late));
                    }
                    (out, client.transport_stats().requests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut responses: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut latencies_us = Vec::with_capacity(n);
    let mut late_us = Vec::new();
    let requests = per_conn.iter().map(|(_, r)| r).sum();
    for (i, bytes, lat, late) in per_conn.into_iter().flat_map(|(out, _)| out) {
        responses[i] = bytes;
        latencies_us.push(lat);
        if matches!(pacing, Pacing::Open { .. }) {
            late_us.push(late);
        }
    }
    let failed = responses.iter().filter(|r| r.is_empty()).count();
    Replay {
        wall,
        digest: crc32(&responses.concat()),
        failed,
        latencies_us: stats::sorted(&latencies_us),
        late_us: stats::sorted(&late_us),
        requests,
    }
}

/// Replay `queries` closed-loop over `connections` non-blocking lanes
/// against an in-process [`LockstepServer`]: client and server alternate
/// in this one thread over the simulated network, so no wakeup, socket
/// or scheduler latency is timed, only the program's per-request work
/// (client framing, request parsing, routing, index lookup, wire render,
/// response parsing). Query `i` rides lane `i % connections`, as in
/// [`replay`]. The [`Replay`] carries no per-query latencies: one batch
/// is timed as a whole.
pub fn lockstep(
    server: &mut LockstepServer,
    queries: &[Route],
    connections: usize,
    seed: u64,
) -> BenchResult<Replay> {
    let specs = (0..connections)
        .map(|c| LaneSpec {
            connection_id: c as u64,
            retry: RetryPolicy::default(),
            job: RouteListJob::new(
                queries
                    .iter()
                    .skip(c)
                    .step_by(connections)
                    .map(|r| (r.clone(), false))
                    .collect(),
            ),
        })
        .collect();
    let opts = LaneOpts {
        sim_seed: seed,
        ..LaneOpts::default()
    };
    let endpoint = server.endpoint();
    let start = Instant::now();
    let (outcomes, _) = drive_lanes(&endpoint, specs, &opts, Some(&mut || server.step()))?;
    let wall = start.elapsed();
    let mut responses: Vec<Vec<u8>> = vec![Vec::new(); queries.len()];
    let mut requests = 0;
    for o in outcomes {
        requests += o.stats.requests;
        let c = o.connection_id as usize;
        for (k, r) in o.job.into_results().into_iter().enumerate() {
            match r {
                Ok(resp) if resp.status == 200 => {
                    let mut b = resp.status.to_be_bytes().to_vec();
                    b.extend_from_slice(&resp.body);
                    responses[c + k * connections] = b;
                }
                _ => {}
            }
        }
    }
    let failed = responses.iter().filter(|r| r.is_empty()).count();
    Ok(Replay {
        wall,
        digest: crc32(&responses.concat()),
        failed,
        latencies_us: Vec::new(),
        late_us: Vec::new(),
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded() {
        let a = stream(9, 64);
        assert_eq!(a, stream(9, 64));
        assert_ne!(a, stream(10, 64));
        assert!(a.iter().any(|r| matches!(r, Route::QueryStats)));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Query 3 at 1000 qps is due 3 ms after the start. Sent late at
        // 5 ms and answered at 6 ms, it waited 3 ms: 1 ms of service
        // plus the 2 ms it queued behind a stall.
        let start = Instant::now();
        let due_at = start + due(3, 1000.0);
        assert_eq!(due_at - start, Duration::from_millis(3));
        let done = start + Duration::from_millis(6);
        assert_eq!(latency_from_due(due_at, done), Duration::from_millis(3));
        // A response cannot precede its due time.
        assert_eq!(latency_from_due(done, due_at), Duration::ZERO);
    }
}
