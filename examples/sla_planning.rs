//! SLA planning with the extension APIs: percentile turnaround targets,
//! per-server-type waiting goals, sensitivity-guided calibration focus,
//! and the branch-and-bound optimum.
//!
//! ```sh
//! cargo run --example sla_planning
//! ```

use wfms::config::{sensitivity, SensitivityOptions};
use wfms::perf::TurnaroundDistribution;
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{ConfigurationTool, Goals, SearchOptions};

fn main() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE * 3.0)
        .expect("EP validates");

    // --- 1. What SLA can we promise on turnaround? ----------------------
    let analysis = tool.workflow_analysis("EP").expect("analyzes");
    let dist = TurnaroundDistribution::new(&analysis, 1e-9).expect("uniformizes");
    println!("EP turnaround distribution (analytic transient CDF):");
    println!(
        "  mean {:.0} min | median {:.0} min | p90 {:.0} min | p99 {:.0} min",
        dist.mean(),
        dist.percentile(0.5).expect("p50"),
        dist.percentile(0.9).expect("p90"),
        dist.percentile(0.99).expect("p99")
    );
    for t in [60.0, 1_440.0, 4_320.0] {
        println!(
            "  P(done within {:>5.0} min) = {:.1} %",
            t,
            dist.cdf(t).expect("cdf") * 100.0
        );
    }

    // --- 2. Per-type waiting goals -----------------------------------------
    // The interactive activities hit the engine; give it a tighter budget.
    let goals = Goals::new(0.05, 0.9999)
        .expect("valid")
        .with_type_waiting(1, 0.01) // engine: 0.6 s
        .expect("valid");
    let rec = tool
        .engine(&goals, SearchOptions::default())
        .and_then(|engine| engine.branch_and_bound())
        .expect("reachable");
    println!(
        "\nBranch-and-bound optimum for (global 3 s, engine 0.6 s, 99.99 %): {:?} ({} servers, {} evaluations)",
        rec.replicas(),
        rec.cost(),
        rec.evaluations
    );
    let a = &rec.assessment;
    for ((_, t), w) in tool
        .registry()
        .iter()
        .zip(a.expected_waiting.as_ref().expect("serving"))
    {
        println!("  expected wait @ {:22}: {:.3} s", t.name, w * 60.0);
    }

    // --- 3. Where should calibration effort go? ----------------------------
    let load = tool.system_load().expect("loads");
    let config = wfms::Configuration::new(tool.registry(), rec.replicas().to_vec()).expect("valid");
    let mut entries = sensitivity(
        tool.registry(),
        &config,
        &load,
        &SensitivityOptions::default(),
    )
    .expect("computes");
    entries.sort_by(|x, y| {
        y.waiting_elasticity
            .unwrap_or(0.0)
            .abs()
            .total_cmp(&x.waiting_elasticity.unwrap_or(0.0).abs())
    });
    println!("\nTop sensitivity drivers of the waiting goal at {config}:");
    for e in entries.iter().take(3) {
        println!(
            "  {:36} elasticity {:+.2}",
            e.label,
            e.waiting_elasticity.unwrap_or(0.0)
        );
    }
    println!("\nConclusion: monitor the engine service time first; its elasticity means");
    println!("a few percent of drift moves the SLA metric by multiples of that.");
}
