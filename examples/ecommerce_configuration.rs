//! End-to-end configuration study for the EP e-commerce workflow:
//! workflow analysis, system load, throughput limits, and the greedy
//! versus exhaustive configuration search.
//!
//! ```sh
//! cargo run --example ecommerce_configuration
//! ```

use wfms::perf::RequestMethod;
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{Configuration, ConfigurationTool, Goals, SearchOptions};

fn main() {
    let registry = paper_section52_registry();
    let mut tool = ConfigurationTool::new(registry);
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .expect("EP validates");

    // --- Stage 1+2: per-workflow analysis --------------------------------
    let analysis = tool.workflow_analysis("EP").expect("analysis succeeds");
    println!("EP workflow analysis (arrival rate ξ = {EP_DEFAULT_ARRIVAL_RATE}/min):");
    println!(
        "  mean turnaround R_t       : {:.1} min",
        analysis.mean_turnaround
    );
    println!("  expected requests r_x,t   :");
    for (x, (_, t)) in tool.registry().iter().enumerate() {
        println!(
            "    {:22}: {:.3} requests/instance",
            t.name, analysis.expected_requests[x]
        );
    }

    // The paper's truncated-uniformization route gives the same numbers.
    let uni_tool = ConfigurationTool::new(paper_section52_registry()).with_analysis_options(
        wfms::perf::AnalysisOptions {
            request_method: RequestMethod::Uniformized(Default::default()),
        },
    );
    let mut uni_tool = uni_tool;
    uni_tool
        .add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    let uni = uni_tool.workflow_analysis("EP").unwrap();
    println!(
        "  (uniformized, z_max at the 99% quantile: r_engine = {:.3})",
        uni.expected_requests[1]
    );

    // --- Stage 3: aggregate load and throughput --------------------------
    let load = tool.system_load().expect("load aggregates");
    println!("\nAggregate load l_x (requests/min):");
    for (x, (_, t)) in tool.registry().iter().enumerate() {
        println!("    {:22}: {:.3}", t.name, load.request_rates[x]);
    }
    println!(
        "  concurrently active EP instances (Little's law): {:.1}",
        load.active_instances[0].1
    );

    for y in [1usize, 2, 3] {
        let config = Configuration::uniform(tool.registry(), y).unwrap();
        let tp = tool.throughput(&config).expect("throughput computes");
        let bottleneck = tool.registry().get(tp.bottleneck).unwrap().name.clone();
        println!(
            "  Y = ({y},{y},{y}): max sustainable throughput {:.2} workflows/min (bottleneck: {bottleneck})",
            tp.max_throughput
        );
    }

    // --- Stage 4 + Secs. 5-7: goal-driven search -------------------------
    let goals = Goals::new(0.05, 0.9999).expect("valid goals");
    println!("\nGoals: wait ≤ 3 s per request, availability ≥ 99.99 %");
    let greedy = tool
        .recommend(&goals, &SearchOptions::default())
        .expect("reachable");
    println!(
        "  greedy recommendation    : {:?} ({} servers, {} evaluations)",
        greedy.replicas(),
        greedy.cost(),
        greedy.evaluations
    );
    let optimal = tool
        .engine(&goals, SearchOptions::default())
        .and_then(|engine| engine.exhaustive())
        .expect("reachable");
    println!(
        "  exhaustive optimum       : {:?} ({} servers, {} evaluations)",
        optimal.replicas(),
        optimal.cost(),
        optimal.evaluations
    );
    println!("\nGreedy search trace (one server added per iteration):");
    for a in &greedy.trace {
        println!(
            "    {:?}  wait {:>8}  avail {:.6}  goals met: {}",
            a.replicas,
            a.max_expected_waiting
                .map(|w| format!("{:.2} s", w * 60.0))
                .unwrap_or_else(|| "saturated".into()),
            a.availability,
            a.meets_goals()
        );
    }

    // --- What happens when the business grows? ---------------------------
    println!("\nLoad growth study (arrival rate sweep):");
    for scale in [1.0, 2.0, 4.0, 8.0] {
        tool.set_arrival_rate("EP", EP_DEFAULT_ARRIVAL_RATE * scale);
        match tool.recommend(&goals, &SearchOptions::default()) {
            Ok(rec) => println!(
                "    ξ × {scale:>3}: recommend {:?} ({} servers)",
                rec.replicas(),
                rec.cost()
            ),
            Err(e) => println!("    ξ × {scale:>3}: {e}"),
        }
    }
}
