//! Validation of the availability model against the discrete-event
//! simulator: with failures enabled, the measured system uptime fraction
//! on the EP workload must match the product-form (independent-repair)
//! prediction within the tolerance of the seeded run.

use wfms::avail::closed_form_unavailability;
use wfms::sim::{run, SimOptions};
use wfms::statechart::paper_section52_registry;
use wfms::workloads::ep_workflow;
use wfms::{Configuration, ConfigurationTool, Goals, SearchOptions};

#[test]
fn simulated_unavailability_matches_product_form_prediction() {
    let reg = paper_section52_registry();
    // The unreplicated configuration has the largest unavailability
    // (≈ 71 h/year, Sec. 5.2), giving the strongest signal per simulated
    // failure episode.
    let config = Configuration::minimal(&reg);
    let spec = ep_workflow();
    // A long horizon with a sparse arrival stream: availability depends
    // only on the failure/repair processes, so the workload is kept tiny
    // to spend the event budget on failure episodes.
    let opts = SimOptions {
        duration_minutes: 500_000.0,
        warmup_minutes: 5_000.0,
        seed: 20_000_806,
        failures_enabled: true,
        ..SimOptions::default()
    };
    let report = run(&reg, &config, &[(&spec, 0.001)], &opts).unwrap();

    let predicted = closed_form_unavailability(&reg, &config).unwrap();
    let measured = 1.0 - report.availability.system_uptime_fraction;

    assert!(
        report.availability.failures > 50,
        "horizon too short to observe failures: {}",
        report.availability.failures
    );
    assert!(report.availability.repairs > 50);
    assert!(
        (measured - predicted).abs() < 0.25 * predicted,
        "measured unavailability {measured} vs product-form {predicted}"
    );

    // The same prediction through the assessment stack's product-form
    // solve: exact agreement with the closed form ties the simulator,
    // the engine, and the formula together.
    let mut tool = ConfigurationTool::new(reg);
    tool.add_workflow(ep_workflow(), 0.001).unwrap();
    let goals = Goals::availability_only(0.5).unwrap();
    let product_opts = SearchOptions::builder().epsilon(1e-9).build();
    let assessed = tool
        .engine(&goals, product_opts)
        .unwrap()
        .assess(&config)
        .unwrap();
    assert!((assessed.availability - (1.0 - predicted)).abs() < 1e-12);
}
