//! Figure 7: FBNet comparison on the Intel i7 — {TVM, NAS, FBNet, Ours}
//! per network, plus the search-cost contrast (§7.5).

use pte_core::nn::{densenet161, resnet34, resnext29_2x64d, DatasetKind};
use pte_core::search::fbnet::FbnetOptions;
use pte_core::search::{SearchCtx, Strategy};
use pte_core::{Optimizer, Platform};

fn main() {
    pte_bench::banner(
        "Figure 7: FBNet vs NAS vs Ours on the Intel i7 (CIFAR-10)",
        "Turner et al., ASPLOS 2021, Figure 7 + Section 7.5",
    );
    let networks =
        [resnet34(DatasetKind::Cifar10), resnext29_2x64d(), densenet161(DatasetKind::Cifar10)];
    let platform = Platform::intel_i7();
    let options = pte_bench::harness_options();

    let mut table = pte_bench::TextTable::new(&[
        "network",
        "NAS x",
        "FBNet x",
        "Ours x",
        "FBNet cost",
        "Ours cost",
    ]);
    for network in &networks {
        let report = Optimizer::new(network, platform.clone()).with_options(options.clone()).run();
        let fbnet = FbnetOptions { tune: options.tune, ..Default::default() };
        let gpu_days = fbnet.gpu_days_per_network;
        let fb = pte_core::search::run(
            network,
            &platform,
            &Strategy::Fbnet(fbnet),
            &SearchCtx::parallel(),
        )
        .expect("a never-token cannot cancel");
        let fb_speedup = report.tvm_latency_ms / fb.plan.latency_ms();
        table.row(&[
            network.name().to_string(),
            format!("{:.2}", report.nas_speedup),
            format!("{fb_speedup:.2}"),
            format!("{:.2}", report.ours_speedup),
            format!("~{gpu_days:.0} GPU-days (training)"),
            format!("{:.1}s (no training)", report.search_time.as_secs_f64()),
        ]);
    }
    table.print();
    println!("\nPaper shape: FBNet modestly improves over NAS at ~3 GPU-days of training");
    println!("per network; Ours consistently outperforms FBNet with no training at all.");
}
