//! The README's reference figures on the CNN setting: standard mode,
//! backup workers only and full Hop under the 6× straggler (as in the
//! paper's Figs. 16 and 18), beside a plain single-worker run.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --figures <seed>`

use crate::checks;
use crate::workloads::{self, Kind, SetupTimes};
use hop_core::{HopConfig, Protocol, SimExperiment};
use hop_graph::Topology;
use hop_sim::{ClusterSpec, LinkModel, SlowdownModel};
use std::time::Instant;

pub fn print(seed: u64) {
    let inputs = workloads::setup(Kind::PaperCnnSkip, seed, &mut SetupTimes::default());
    let base = &inputs.points[0].exp;
    let single = SimExperiment {
        topology: Topology::complete(1),
        cluster: ClusterSpec::uniform(1, 1, 0.05, LinkModel::ethernet_1gbps()),
        slowdown: SlowdownModel::None,
        protocol: Protocol::Hop(HopConfig::standard()),
        ..base.clone()
    };
    let variants = [
        ("standard", Protocol::Hop(HopConfig::standard())),
        (
            "backup (1, max_ig 5)",
            Protocol::Hop(HopConfig::backup(1, 5)),
        ),
        (
            "full Hop (backup + skip)",
            Protocol::Hop(workloads::full_hop()),
        ),
    ];
    println!(
        "| run | virtual s to finish | virtual s to loss {} | mean iteration s | final eval loss | host wall s |",
        inputs.target_loss
    );
    println!("|---|---|---|---|---|---|");
    let runs = variants
        .into_iter()
        .map(|(label, protocol)| {
            (
                format!("16 workers, {label}"),
                SimExperiment {
                    protocol,
                    ..base.clone()
                },
            )
        })
        .chain([("1 worker, no straggler".to_string(), single)]);
    for (label, exp) in runs {
        let t = Instant::now();
        let report = exp
            .run(inputs.model.as_ref(), &inputs.dataset)
            .expect("reference configs are valid");
        let wall = t.elapsed().as_secs_f64();
        let eval = report.eval_time.points();
        let to_target = checks::time_to_target(eval, inputs.target_loss)
            .map_or("not reached".to_string(), |t| format!("{t:.3}"));
        println!(
            "| {label} | {:.3} | {to_target} | {:.4} | {:.5} | {wall:.2} |",
            report.wall_time,
            report.mean_iteration_duration(),
            eval.last().map_or(f64::NAN, |e| e.1),
        );
    }
}
