//! The threaded and process runtimes, timed in the traced run on one
//! token-mode int8 config over `complete(2)` (the synthetic webspam SVM
//! the process runtime rebuilds in each worker), and checked for bit
//! parity with the simulator on the same config.

use crate::checks;
use crate::host;
use hop_core::process::ProcessExperiment;
use hop_core::threaded::ThreadedExperiment;
use hop_core::{CompressionConfig, HopConfig, Hyper, Protocol, SimExperiment};
use hop_data::webspam::SyntheticWebspam;
use hop_data::{Dataset, InMemoryDataset};
use hop_graph::Topology;
use hop_model::svm::Svm;
use hop_model::Model;
use hop_sim::{ClusterSpec, FaultPlan, LinkModel, SlowdownModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Examples in the probe's dataset.
const EXAMPLES: usize = 512;

/// One config on the simulator, on OS threads and on OS processes.
pub struct Probe {
    model: Arc<dyn Model>,
    dataset: Arc<InMemoryDataset>,
    sim: SimExperiment,
    threaded: ThreadedExperiment,
    process: ProcessExperiment,
}

/// Wall and CPU seconds of each runtime, plus the fixed cost of a
/// one-iteration process run (spawn, handshake, teardown).
pub struct Figures {
    pub threaded_wall: Duration,
    pub threaded_cpu: Duration,
    pub process_wall: Duration,
    pub process_cpu: Duration,
    pub fleet_fixed: Duration,
    pub attempted: u64,
    pub failed: u64,
}

impl Probe {
    pub fn new(seed: u64, iters: u64) -> Self {
        let dataset = SyntheticWebspam::generate(EXAMPLES, seed);
        let model: Arc<dyn Model> = Arc::new(Svm::log_loss(dataset.feature_dim()));
        let cfg =
            HopConfig::standard_with_tokens(4).with_compression(CompressionConfig::Int8Uniform);
        let topo = Topology::complete(2);
        let sim = SimExperiment {
            topology: topo.clone(),
            cluster: ClusterSpec::uniform(2, 2, 0.01, LinkModel::ethernet_1gbps()),
            slowdown: SlowdownModel::None,
            protocol: Protocol::Hop(cfg.clone()),
            hyper: Hyper::svm(),
            max_iters: iters,
            seed,
            eval_every: 0,
            eval_examples: 1,
        };
        let threaded = ThreadedExperiment {
            config: cfg.clone(),
            topology: topo.clone(),
            max_iters: iters,
            seed,
            hyper: Hyper::svm(),
            compute_sleep: Duration::ZERO,
            slow_worker: None,
            stall_timeout: Duration::from_secs(30),
            faults: FaultPlan::none(),
        };
        let worker_bin = std::env::current_exe().expect("the benchmark binary can locate itself");
        let mut process = ProcessExperiment::new(cfg, topo, iters, worker_bin);
        process.seed = seed;
        process.hyper = Hyper::svm();
        process.examples = EXAMPLES;
        process.data_seed = seed;
        process.stall_timeout = Duration::from_secs(30);
        Self {
            model,
            dataset: Arc::new(dataset),
            sim,
            threaded,
            process,
        }
    }

    /// Runs the simulator reference, then the threaded and process runs
    /// (each timed), checking both against the reference. A run that
    /// fails is counted and its error kept, so its skipped parity check
    /// makes the run incorrect.
    pub fn run(&self, errors: &mut Vec<String>) -> Figures {
        let sim = self
            .sim
            .run(self.model.as_ref(), &self.dataset)
            .expect("the probe config is valid");
        let mut failed = 0;
        let (c0, t0) = (host::cpu_time(), Instant::now());
        let threaded = self.threaded.run(self.model.clone(), self.dataset.clone());
        let (threaded_wall, threaded_cpu) = (t0.elapsed(), host::cpu_time() - c0);
        match threaded {
            Ok(t) => push(
                errors,
                checks::check_params_equal("threaded vs sim", &t.final_params, &sim.final_params),
            ),
            Err(e) => {
                failed += 1;
                errors.push(format!("threaded run failed: {e}"));
            }
        }
        let (c0, t0) = (host::cpu_time(), Instant::now());
        let process = self.process.run();
        let (process_wall, process_cpu) = (t0.elapsed(), host::cpu_time() - c0);
        match process {
            Ok(p) => {
                push(
                    errors,
                    checks::check_params_equal(
                        "process vs sim",
                        &p.final_params,
                        &sim.final_params,
                    ),
                );
                if p.total_update_wire_bytes() != sim.bytes_sent {
                    errors.push(format!(
                        "process wire bytes {} != simulator bytes_sent {}",
                        p.total_update_wire_bytes(),
                        sim.bytes_sent
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("process run failed: {e}"));
            }
        }
        let mut one = self.process.clone();
        one.max_iters = 1;
        let t0 = Instant::now();
        if let Err(e) = one.run() {
            failed += 1;
            errors.push(format!("one-iteration process run failed: {e}"));
        }
        Figures {
            threaded_wall,
            threaded_cpu,
            process_wall,
            process_cpu,
            fleet_fixed: t0.elapsed(),
            attempted: 4,
            failed,
        }
    }
}

fn push(errors: &mut Vec<String>, res: Result<(), String>) {
    if let Err(e) = res {
        errors.push(e);
    }
}
