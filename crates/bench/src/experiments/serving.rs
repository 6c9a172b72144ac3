//! Serving-throughput sweep — batch size × client count for the
//! `sf-serve` dynamic batcher.
//!
//! The paper's efficiency argument (fusion filters cut FLOPs so DCNN
//! fusion fits deployment budgets) ends at the model; this experiment
//! measures the serving layer on top: closed-loop clients drive one
//! [`Server`] per grid cell and we record sustained throughput, tail
//! latency and mean batch occupancy. A separate correctness probe feeds
//! identical frames through a batch=1 and a batched server and reports
//! the largest per-request probability deviation (the dynamic batcher is
//! bit-identical, so the expected deviation is exactly zero).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_core::{FusionNet, FusionScheme};
use sf_serve::{Backpressure, Request, ServeConfig, Server};
use sf_tensor::{Tensor, TensorRng};

use crate::{ExperimentScale, TextTable};

/// One (batch size, client count) measurement.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Batcher `max_batch` for this cell.
    pub max_batch: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Sustained throughput over the timed window, requests per second.
    pub throughput_rps: f64,
    /// Median request latency in milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile request latency in milliseconds.
    pub latency_p95_ms: f64,
    /// Mean number of requests fused per forward pass.
    pub mean_occupancy: f64,
    /// Requests completed (sanity: clients × requests-per-client).
    pub completed: u64,
}

/// The full sweep plus the batched-vs-unbatched correctness probe.
#[derive(Debug, Clone)]
pub struct ServingResult {
    /// Batch sizes swept (table rows).
    pub batch_sizes: Vec<usize>,
    /// Client counts swept (table columns).
    pub client_counts: Vec<usize>,
    /// Row-major grid, batch-major then client order.
    pub cells: Vec<ServingCell>,
    /// Largest |p_batched − p_unbatched| over the probe frames; the
    /// acceptance bar for "equal correctness" is 1e-6 and the batcher is
    /// designed to deliver exactly 0.0.
    pub correctness_max_delta: f32,
}

impl ServingResult {
    /// The measured cell for a grid point.
    pub fn cell(&self, max_batch: usize, clients: usize) -> Option<&ServingCell> {
        self.cells
            .iter()
            .find(|c| c.max_batch == max_batch && c.clients == clients)
    }

    /// Throughput of batched serving relative to `max_batch = 1` at the
    /// same client count.
    pub fn speedup(&self, max_batch: usize, clients: usize) -> Option<f64> {
        let base = self.cell(1, clients)?.throughput_rps;
        Some(self.cell(max_batch, clients)?.throughput_rps / base.max(1e-9))
    }
}

/// Sweep grid for a scale: (batch sizes, client counts, requests/client).
fn grid(scale: ExperimentScale) -> (Vec<usize>, Vec<usize>, usize) {
    match scale {
        ExperimentScale::Full => (vec![1, 2, 4, 8, 16], vec![1, 4, 16], 32),
        ExperimentScale::Quick => (vec![1, 4], vec![1, 4], 6),
    }
}

/// Runs the sweep on a freshly initialised AllFilter_U network (serving
/// throughput does not depend on the weights being trained).
pub fn run(scale: ExperimentScale) -> ServingResult {
    let config = scale.network_config();
    let (batch_sizes, client_counts, requests) = grid(scale);
    let mut cells = Vec::new();
    for &max_batch in &batch_sizes {
        for &clients in &client_counts {
            let net = FusionNet::new(FusionScheme::AllFilterU, &config).expect("valid config");
            cells.push(measure_cell(net, &config, max_batch, clients, requests));
        }
    }
    let net = || FusionNet::new(FusionScheme::AllFilterU, &config).expect("valid config");
    let probe_batch = *batch_sizes.iter().max().expect("non-empty grid");
    let correctness_max_delta = correctness_probe(net(), net(), &config, probe_batch);
    ServingResult {
        batch_sizes,
        client_counts,
        cells,
        correctness_max_delta,
    }
}

/// Serve configuration shared by every cell except `max_batch`.
fn serve_config(max_batch: usize) -> ServeConfig {
    ServeConfig::builder()
        .max_batch(max_batch)
        .max_wait(Duration::from_millis(2))
        .queue_capacity(64.max(2 * max_batch))
        .backpressure(Backpressure::Block)
        .build()
        .expect("bench serve config is valid")
}

/// Drives one grid cell: `clients` closed-loop threads, inputs generated
/// outside the timed window.
fn measure_cell(
    net: FusionNet,
    config: &sf_core::NetworkConfig,
    max_batch: usize,
    clients: usize,
    requests: usize,
) -> ServingCell {
    let server = Arc::new(Server::start(net, serve_config(max_batch)).expect("serve config"));
    let frames: Vec<Vec<(Tensor, Tensor)>> = (0..clients)
        .map(|client| probe_frames(config, requests, 0xB_E7C4 ^ client as u64))
        .collect();
    let started = Instant::now();
    let workers: Vec<_> = frames
        .into_iter()
        .map(|frames| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for (rgb, depth) in frames {
                    server
                        .submit(Request::new(rgb, depth))
                        .expect("bench queue accepts")
                        .wait()
                        .expect("bench request served");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("bench client ran to completion");
    }
    let wall = started.elapsed();
    let server = Arc::into_inner(server).expect("all client clones joined");
    let (_net, stats) = server.shutdown();
    ServingCell {
        max_batch,
        clients,
        throughput_rps: stats.completed as f64 / wall.as_secs_f64().max(1e-9),
        latency_p50_ms: stats.latency_p50_ms,
        latency_p95_ms: stats.latency_p95_ms,
        mean_occupancy: stats.mean_batch_occupancy,
        completed: stats.completed,
    }
}

/// Deterministic synthetic frame pairs for one client.
fn probe_frames(config: &sf_core::NetworkConfig, count: usize, seed: u64) -> Vec<(Tensor, Tensor)> {
    let mut rng = TensorRng::seed_from(seed);
    (0..count)
        .map(|_| sf_chaos::frame(&mut rng, config))
        .collect()
}

/// Feeds the same frames through a `max_batch = 1` server and a batched
/// server (all submitted before any wait, so they genuinely coalesce) and
/// returns the largest per-pixel probability deviation.
fn correctness_probe(
    net_single: FusionNet,
    net_batched: FusionNet,
    config: &sf_core::NetworkConfig,
    max_batch: usize,
) -> f32 {
    let frames = probe_frames(config, max_batch, 0xC0FFEE);
    let single = serve_all(net_single, 1, &frames);
    let batched = serve_all(net_batched, max_batch, &frames);
    single
        .iter()
        .zip(&batched)
        .flat_map(|(a, b)| a.data().iter().zip(b.data().iter()))
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0_f32, f32::max)
}

/// Submits every frame up front, then waits, returning probability maps
/// in submission order.
fn serve_all(net: FusionNet, max_batch: usize, frames: &[(Tensor, Tensor)]) -> Vec<Tensor> {
    let server = Server::start(net, serve_config(max_batch)).expect("serve config");
    let handles: Vec<_> = frames
        .iter()
        .map(|(rgb, depth)| {
            server
                .submit(Request::new(rgb.clone(), depth.clone()))
                .expect("probe queue accepts")
        })
        .collect();
    let probs = handles
        .into_iter()
        .map(|h| h.wait().expect("probe request served").prob)
        .collect();
    server.shutdown();
    probs
}

/// Renders the sweep as a throughput table (req/s, one row per batch
/// size) followed by tail latency and the correctness line.
pub fn render(result: &ServingResult) -> String {
    let mut headers = vec!["max_batch".to_string()];
    headers.extend(
        result
            .client_counts
            .iter()
            .map(|c| format!("{c} client(s) req/s")),
    );
    let mut table = TextTable::new(headers);
    for &mb in &result.batch_sizes {
        let values: Vec<f64> = result
            .client_counts
            .iter()
            .map(|&c| result.cell(mb, c).map_or(0.0, |cell| cell.throughput_rps))
            .collect();
        table.add_numeric_row(format!("{mb}"), &values, false);
    }
    let mut out = String::from("Serving throughput — dynamic batching sweep (AllFilter_U)\n");
    out.push_str(&table.render());
    let busiest = *result.client_counts.iter().max().unwrap_or(&1);
    for &mb in &result.batch_sizes {
        if let (Some(cell), Some(speedup)) = (result.cell(mb, busiest), result.speedup(mb, busiest))
        {
            out.push_str(&format!(
                "batch {mb:>2} @ {busiest} clients: occupancy {:.2}, p50 {:.2} ms, p95 {:.2} ms, \
                 {:.2}x vs batch=1\n",
                cell.mean_occupancy, cell.latency_p50_ms, cell.latency_p95_ms, speedup
            ));
        }
    }
    out.push_str(&format!(
        "correctness  : max |batched − unbatched| probability delta = {:.1e} (bar: 1e-6)\n",
        result.correctness_max_delta
    ));
    out
}
