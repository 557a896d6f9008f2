//! Campaign determinism: the schema-v2 fault-campaign JSON must be a
//! pure function of the campaign seed — byte-identical across worker
//! thread counts — and every specimen must run identically on both
//! simulation engines.

use uecgra_bench::campaign::{campaign_report, run_campaign, specimens, CampaignConfig};
use uecgra_dfg::{kernels, Kernel};
use uecgra_probe::RunReport;
use uecgra_rtl::Engine;

fn tiny_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(40),
        kernels::dither::build_with_pixels(40),
    ]
}

fn render(config: &CampaignConfig) -> String {
    let section = run_campaign(&tiny_kernels(), config);
    RunReport::render_all(&[campaign_report("fault_campaign", section)])
}

#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    let config = CampaignConfig {
        seed: 3,
        per_kernel: 6,
        ..CampaignConfig::default()
    };
    // Specimens land in index-addressed slots, so the worker count
    // must never show up in the bytes.
    std::env::set_var("UECGRA_THREADS", "1");
    let single = render(&config);
    std::env::set_var("UECGRA_THREADS", "8");
    let eight = render(&config);
    std::env::remove_var("UECGRA_THREADS");
    assert_eq!(single, eight, "campaign JSON depends on the thread count");
}

#[test]
fn engines_agree_on_every_injected_fault_outcome() {
    let config = CampaignConfig {
        seed: 3,
        per_kernel: 6,
        ..CampaignConfig::default()
    };
    let ks = tiny_kernels();
    let specimens = specimens(&ks, &config);
    assert_eq!(specimens.len(), 12, "one rotation of six faults per kernel");
    // Each specimen's compiled fabric, fault plan included, must give
    // the same `Activity` on the dense oracle and the event engine —
    // so every campaign outcome is engine-independent.
    for s in &specimens {
        let compiled = s.request().compile().expect("tiny kernels compile");
        let dense = compiled.fabric().run_with(Engine::Dense);
        let event = compiled.fabric().run_with(Engine::EventDriven);
        let fault = s.fault.map(|f| f.label()).unwrap_or_default();
        assert_eq!(
            dense, event,
            "{}: engines disagree on fault {fault}",
            s.kernel.name
        );
    }
}
