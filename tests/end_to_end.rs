//! Cross-crate integration tests: the full pipeline from specification
//! to recommendation, exercised through the `wfms` facade.

use wfms::config::{ApplyOptions, StateVisit, WorkflowTrace};
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{Configuration, ConfigurationTool, DegradedPolicy, Goals, SearchOptions};

#[test]
fn ep_pipeline_from_spec_to_recommendation() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();

    // Analysis: turnaround dominated by the invoice-payment wait.
    let analysis = tool.workflow_analysis("EP").unwrap();
    assert!(analysis.mean_turnaround > 1_000.0 && analysis.mean_turnaround < 2_000.0);
    // The engine sees the most requests (it participates in every activity).
    assert!(analysis.expected_requests[1] > analysis.expected_requests[0]);
    assert!(analysis.expected_requests[1] > analysis.expected_requests[2]);

    // Recommendation meets both goals at minimum cost.
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let rec = tool.recommend(&goals, &SearchOptions::default()).unwrap();
    assert!(rec.assessment.meets_goals());
    let optimal = tool
        .engine(&goals, SearchOptions::default())
        .and_then(|engine| engine.exhaustive())
        .unwrap();
    assert_eq!(
        rec.cost(),
        optimal.cost(),
        "greedy is optimal on the EP scenario"
    );

    // One fewer server of any type must violate a goal (minimality).
    let replicas = rec.replicas().to_vec();
    for x in 0..replicas.len() {
        if replicas[x] == 1 {
            continue;
        }
        let mut smaller = replicas.clone();
        smaller[x] -= 1;
        let config = Configuration::new(tool.registry(), smaller).unwrap();
        let a = tool.assess(&config, &goals).unwrap();
        assert!(
            !a.meets_goals(),
            "removing a type-{x} replica should break a goal"
        );
    }
}

#[test]
fn enterprise_pipeline_handles_five_types_and_three_workflows() {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    let load = tool.system_load().unwrap();
    assert_eq!(load.request_rates.len(), 5);
    assert!(load.request_rates.iter().all(|&r| r > 0.0));

    let goals = Goals::new(0.05, 0.9999).unwrap();
    let rec = tool.recommend(&goals, &SearchOptions::default()).unwrap();
    assert!(rec.assessment.meets_goals());
    // The ERP app server carries the most demand per replica; it must be
    // replicated at least as much as the idle CRM server.
    let y = rec.replicas();
    assert!(y[4] >= y[3], "ERP {} vs CRM {}", y[4], y[3]);
}

#[test]
fn performability_is_consistent_with_assessment() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    let config = Configuration::uniform(tool.registry(), 2).unwrap();
    let report = tool
        .performability(&config, DegradedPolicy::Conditional)
        .unwrap();
    let goals = Goals::new(10.0, 0.5).unwrap(); // trivially met
    let assessment = tool.assess(&config, &goals).unwrap();
    // The assessment embeds the same performability numbers.
    let w = assessment.max_expected_waiting.unwrap();
    assert!((w - report.max_expected_waiting()).abs() < 1e-12);
    // And the availability figures agree with the availability-only path.
    let avail = tool.availability(&config).unwrap();
    assert!((assessment.availability - avail.availability).abs() < 1e-12);
}

#[test]
fn calibration_round_trip_through_the_facade() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    let before = tool.workflow_analysis("EP").unwrap().mean_turnaround;

    // Hand-written trails: every order pays by card and ships instantly —
    // shifting NewOrder's branch away from the designer's 0.75.
    let trace = WorkflowTrace {
        workflow_type: "EP".into(),
        visits: vec![
            StateVisit {
                state: "NewOrder_S".into(),
                duration_minutes: 5.0,
            },
            StateVisit {
                state: "CreditCardCheck_S".into(),
                duration_minutes: 1.0,
            },
            StateVisit {
                state: "Shipment_S".into(),
                duration_minutes: 30.0,
            },
            StateVisit {
                state: "CreditCardPayment_S".into(),
                duration_minutes: 1.0,
            },
            StateVisit {
                state: "Archive_S".into(),
                duration_minutes: 0.5,
            },
        ],
    };
    let traces = vec![trace; 100];
    let report = tool
        .calibrate_workflow("EP", &traces, &ApplyOptions::default())
        .unwrap();
    assert!(report.transitions_updated > 0);
    let after = tool.workflow_analysis("EP").unwrap().mean_turnaround;
    // All-card traffic never waits on invoices: turnaround collapses.
    assert!(after < before / 10.0, "before {before}, after {after}");
}

#[test]
fn arrival_rate_growth_never_cheapens_the_recommendation() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), 1.0).unwrap();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let opts = SearchOptions::builder().max_total_servers(128).build();
    let mut last_cost = 0;
    for xi in [1.0, 10.0, 40.0, 80.0, 160.0] {
        tool.set_arrival_rate("EP", xi);
        let rec = tool.recommend(&goals, &opts).unwrap();
        assert!(
            rec.cost() >= last_cost,
            "ξ={xi}: cost {} < previous {last_cost}",
            rec.cost()
        );
        last_cost = rec.cost();
    }
    assert!(last_cost > 6, "high load must eventually force growth");
}

#[test]
fn stricter_goals_cost_at_least_as_much() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE * 3.0)
        .unwrap();
    let opts = SearchOptions::default();
    let mut last_cost = 0;
    for nines in [0.99, 0.999, 0.9999, 0.99999, 0.999999] {
        let goals = Goals::new(0.05, nines).unwrap();
        let rec = tool.recommend(&goals, &opts).unwrap();
        assert!(
            rec.cost() >= last_cost,
            "availability {nines}: cost {} < previous {last_cost}",
            rec.cost()
        );
        last_cost = rec.cost();
    }
}
