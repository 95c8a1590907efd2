//! The four workloads: how each builds its inputs from the seed, what one
//! timed round runs, and what a correct round must produce.

use crate::checks;
use hop_core::sweep::{SweepGrid, SweepPoint, SweepRunner};
use hop_core::{
    CompressionConfig, HopConfig, Hyper, Protocol, SimExperiment, SkipConfig, TrainingReport,
};
use hop_data::images::SyntheticImages;
use hop_data::webspam::{SyntheticWebspam, WebspamConfig};
use hop_data::InMemoryDataset;
use hop_graph::Topology;
use hop_model::cnn::TinyCnn;
use hop_model::svm::Svm;
use hop_model::Model;
use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads any workload may use.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperCnnSkip,
    FleetExpander,
    CodecSweep,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperCnnSkip, Kind::FleetExpander, Kind::CodecSweep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCnnSkip => "paper_cnn_skip",
            Kind::FleetExpander => "fleet_expander",
            Kind::CodecSweep => "codec_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One simulator experiment of a workload and the facts its checks need.
pub struct SimPoint {
    pub label: String,
    pub exp: SimExperiment,
    pub codec: CompressionConfig,
    pub max_ig: u64,
}

impl SimPoint {
    pub fn new(label: &str, exp: SimExperiment) -> Self {
        let Protocol::Hop(cfg) = &exp.protocol else {
            panic!("benchmark points run the Hop protocol family");
        };
        let codec = cfg.compression;
        let max_ig = cfg.max_ig().expect("benchmark points use token queues");
        Self {
            label: label.to_string(),
            exp,
            codec,
            max_ig,
        }
    }

    pub fn worker_iters(&self) -> u64 {
        self.exp.topology.len() as u64 * self.exp.max_iters
    }
}

/// Everything a workload builds before its first timed run.
pub struct Inputs {
    pub kind: Kind,
    pub model: Arc<dyn Model>,
    pub dataset: Arc<InMemoryDataset>,
    /// Simulator experiments: the workload itself or the sweep's grid
    /// points.
    pub points: Vec<SimPoint>,
    /// The sweep grid (`codec_sweep` only).
    pub grid: Option<SweepGrid>,
    /// Eval loss whose first crossing is `virtual_s_to_target`.
    pub target_loss: f64,
    /// Factor by which the final eval loss must sit below the first.
    pub convergence_factor: f64,
}

/// Wall time of each set-up stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub data: Duration,
    pub topology: Duration,
    pub validate: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.data + self.topology + self.validate
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

fn paper_cluster(n: usize) -> ClusterSpec {
    ClusterSpec::uniform(n, 4, 0.05, LinkModel::ethernet_1gbps())
}

/// Full Hop on the §7 CNN setting: 1 backup worker, `max_ig` 5,
/// skipping up to 10 iterations.
pub fn full_hop() -> HopConfig {
    HopConfig::backup(1, 5).with_skip(SkipConfig::with_max_jump(10))
}

/// Builds a workload's inputs from the seed.
pub fn setup(kind: Kind, seed: u64, times: &mut SetupTimes) -> Inputs {
    match kind {
        Kind::PaperCnnSkip => {
            let dataset = timed(&mut times.data, || SyntheticImages::generate(2048, seed));
            let model: Arc<dyn Model> = Arc::new(TinyCnn::for_synthetic_images(4));
            let topology = timed(&mut times.topology, || Topology::ring_based(16));
            let exp = SimExperiment {
                cluster: paper_cluster(16),
                topology,
                slowdown: SlowdownModel::paper_straggler(16, 0, 6.0),
                protocol: Protocol::Hop(full_hop()),
                hyper: Hyper::cnn(),
                max_iters: 200,
                seed,
                eval_every: 10,
                eval_examples: 256,
            };
            timed(&mut times.validate, || {
                exp.validate().expect("valid experiment")
            });
            Inputs {
                kind,
                model,
                dataset: Arc::new(dataset),
                points: vec![SimPoint::new("hop_skip", exp)],
                grid: None,
                target_loss: CNN_TARGET,
                convergence_factor: 100.0,
            }
        }
        Kind::FleetExpander => {
            let config = WebspamConfig {
                dim: 64,
                nnz_per_example: 8,
                label_noise: 0.05,
            };
            let dataset = timed(&mut times.data, || {
                SyntheticWebspam::generate_with(512, FLEET_INPUT_SEED, config)
            });
            let model: Arc<dyn Model> = Arc::new(Svm::log_loss(64));
            let topology = timed(&mut times.topology, || {
                Topology::expander(FLEET, 4, FLEET_INPUT_SEED)
            });
            let exp = SimExperiment {
                cluster: paper_cluster(FLEET),
                topology,
                slowdown: SlowdownModel::paper_random(FLEET),
                protocol: Protocol::Hop(HopConfig::standard_with_tokens(4)),
                hyper: Hyper::svm(),
                max_iters: 20,
                seed,
                eval_every: 1,
                eval_examples: 256,
            };
            timed(&mut times.validate, || {
                exp.validate().expect("valid experiment")
            });
            Inputs {
                kind,
                model,
                dataset: Arc::new(dataset),
                points: vec![SimPoint::new("fleet", exp)],
                grid: None,
                target_loss: FLEET_TARGET,
                convergence_factor: 1.5,
            }
        }
        Kind::CodecSweep => {
            let config = WebspamConfig {
                dim: SWEEP_DIM,
                nnz_per_example: 32,
                label_noise: 0.05,
            };
            let dataset = timed(&mut times.data, || {
                SyntheticWebspam::generate_with(1024, seed, config)
            });
            let model: Arc<dyn Model> = Arc::new(Svm::log_loss(SWEEP_DIM));
            let topology = timed(&mut times.topology, || Topology::ring_based(16));
            let mut grid = SweepGrid::new(Hyper::svm(), SWEEP_ITERS);
            for codec in [
                CompressionConfig::Identity,
                CompressionConfig::Int8Uniform,
                CompressionConfig::TopK { ratio: 0.01 },
            ] {
                grid = grid
                    .protocol(
                        format!("backup/{}", codec.label()),
                        Protocol::Hop(HopConfig::backup(1, 5).with_compression(codec)),
                    )
                    .protocol(
                        format!("skip/{}", codec.label()),
                        Protocol::Hop(full_hop().with_compression(codec)),
                    );
            }
            let grid = grid
                .cluster("ring16", topology, paper_cluster(16))
                .slowdown("straggler6x", SlowdownModel::paper_straggler(16, 0, 6.0))
                .seed(seed)
                .eval(SWEEP_ITERS / 10, 256);
            let points: Vec<SimPoint> = timed(&mut times.validate, || {
                grid.points()
                    .into_iter()
                    .map(|p: SweepPoint| {
                        p.experiment.validate().expect("valid grid point");
                        SimPoint::new(&p.protocol, p.experiment)
                    })
                    .collect()
            });
            Inputs {
                kind,
                model,
                dataset: Arc::new(dataset),
                points,
                grid: Some(grid),
                target_loss: SWEEP_TARGET,
                convergence_factor: 2.0,
            }
        }
    }
}

const FLEET: usize = 10_000;
/// The fleet's expander and dataset are part of the workload's
/// definition, like the ring-based graph of the 16-worker settings; the
/// seed varies the slowdown draws, initialisation and batch order. With a
/// dataset per seed the eval curve changed shape from seed to seed (some
/// datasets overshoot and dip under momentum), so time-to-target was
/// bimodal across seeds.
const FLEET_INPUT_SEED: u64 = 0xB10C;
const SWEEP_DIM: usize = 65_536;
const SWEEP_ITERS: u64 = 100;
// Targets sit where every seed's eval curve falls steeply through them,
// away from the curves' plateaus.
const CNN_TARGET: f64 = 0.02;
const FLEET_TARGET: f64 = 0.50;
const SWEEP_TARGET: f64 = 0.45;

/// What one timed round did.
pub struct Round {
    pub worker_iters: u64,
    pub wall: Duration,
    pub cpu: Duration,
    /// Report digest of each point, to be compared with the reference;
    /// `None` where the run failed, deadlocked or broke the gap bound.
    pub digests: Vec<Option<u64>>,
}

/// What the reference pass established for the timed rounds to be
/// checked against, plus the workload's deterministic end-to-end metrics.
pub struct Reference {
    /// Report digest of each point; `None` where the run failed or one of
    /// its checks did.
    pub digests: Vec<Option<u64>>,
    pub wire_bytes_per_iter: f64,
    pub virtual_s_to_target: f64,
}

/// Runs every simulator point once with conformance recording, one at a
/// time; checks all of it and returns the reference the timed rounds are
/// compared with.
pub fn reference(inputs: &Inputs, model: &dyn Model, errors: &mut Vec<String>) -> Reference {
    let mut r = Reference {
        digests: Vec::new(),
        wire_bytes_per_iter: 0.0,
        virtual_s_to_target: 0.0,
    };
    let mut bytes = 0u64;
    let mut iters = 0u64;
    for p in &inputs.points {
        let mut ok = true;
        let mut fail = |what: &str, res: Result<(), String>| {
            if let Err(e) = res {
                ok = false;
                errors.push(format!("{} {}: {what}: {e}", inputs.kind.name(), p.label));
            }
        };
        let report = match p.exp.run_conformance(model, &inputs.dataset) {
            Ok(report) => report,
            Err(e) => {
                fail("run", Err(e.to_string()));
                r.digests.push(None);
                continue;
            }
        };
        if report.deadlocked {
            fail("run", Err("deadlocked".into()));
        }
        let trace = report
            .conformance
            .as_ref()
            .expect("conformance was recorded");
        let per_block = checks::block_bytes(p.codec, inputs.model.param_len());
        fail(
            "bytes",
            checks::check_bytes(trace, report.bytes_sent, per_block),
        );
        fail(
            "gap",
            checks::check_gaps(&p.exp.topology, report.trace.records(), p.max_ig),
        );
        fail(
            "convergence",
            checks::check_convergence(
                report.eval_time.points(),
                &report.final_params,
                inputs.convergence_factor,
            ),
        );
        fail("codec", check_codecs(&report.final_params[0]));
        match checks::time_to_target(report.eval_time.points(), inputs.target_loss) {
            Some(t) => r.virtual_s_to_target += t,
            None => fail(
                "target",
                Err(format!(
                    "eval loss never reached {} (last {:?})",
                    inputs.target_loss,
                    report.eval_time.last()
                )),
            ),
        }
        let eval = report.eval_time.points();
        println!(
            "# point {}: eval loss {:.4} -> {:.4} over {:.3} virtual s, {} B sent, digest {:016x}",
            p.label,
            eval.first().map_or(f64::NAN, |e| e.1),
            eval.last().map_or(f64::NAN, |e| e.1),
            report.wall_time,
            report.bytes_sent,
            report.digest()
        );
        bytes += report.bytes_sent;
        iters += p.worker_iters();
        r.digests.push(ok.then(|| report.digest()));
    }
    r.wire_bytes_per_iter = bytes as f64 / iters as f64;
    r
}

/// Round trip of both lossy codecs on one real parameter vector.
fn check_codecs(params: &[f32]) -> Result<(), String> {
    use hop_tensor::{BufferPool, CompressedBlock, Compressor, ErrorFeedback};
    let mut decoded = vec![0.0f32; params.len()];
    for cfg in [
        CompressionConfig::Int8Uniform,
        CompressionConfig::TopK { ratio: 0.01 },
    ] {
        let mut codec = cfg.codec();
        let mut block = CompressedBlock::default();
        codec.encode_into(
            params,
            &mut ErrorFeedback::new(),
            &mut BufferPool::new(),
            &mut block,
        );
        codec.decode_into(&block, &mut decoded);
        match cfg {
            CompressionConfig::TopK { ratio } => {
                checks::check_topk(ratio, params, &block, &decoded)?;
            }
            _ => checks::check_int8(params, &block, &decoded)?,
        }
    }
    Ok(())
}

/// One timed round: the workload's runs, timed in wall and CPU time, with
/// the deadlock and neighbour-gap checks made outside the timing.
pub fn round(inputs: &Inputs, errors: &mut Vec<String>) -> Round {
    let (cpu0, t0) = (crate::host::cpu_time(), Instant::now());
    let reports: Vec<Result<TrainingReport, String>> = match &inputs.grid {
        Some(grid) => {
            match SweepRunner::new(THREADS).run(grid, inputs.model.as_ref(), &inputs.dataset) {
                Ok(results) => results.into_iter().map(|r| Ok(r.report)).collect(),
                Err(e) => inputs.points.iter().map(|_| Err(e.to_string())).collect(),
            }
        }
        None => vec![inputs.points[0]
            .exp
            .run(inputs.model.as_ref(), &inputs.dataset)
            .map_err(|e| e.to_string())],
    };
    let (wall, cpu) = (t0.elapsed(), crate::host::cpu_time() - cpu0);
    let digests = inputs
        .points
        .iter()
        .zip(reports)
        .map(|(p, report)| {
            let checked = report.and_then(|report| {
                if report.deadlocked {
                    return Err("deadlocked".to_string());
                }
                checks::check_gaps(&p.exp.topology, report.trace.records(), p.max_ig)
                    .map_err(|e| format!("gap: {e}"))?;
                Ok(report.digest())
            });
            checked
                .map_err(|e| errors.push(format!("{} {}: {e}", inputs.kind.name(), p.label)))
                .ok()
        })
        .collect();
    Round {
        worker_iters: inputs.points.iter().map(SimPoint::worker_iters).sum(),
        wall,
        cpu,
        digests,
    }
}
