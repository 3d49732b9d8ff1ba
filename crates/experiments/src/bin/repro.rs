//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--threads N] [--shards N] [--targets N] [--parallel] <artifact>...
//! ```
//!
//! `repro --help` lists the artifacts. Every name is checked before any
//! artifact runs.

use experiments::{
    ablate, adversary, breakdown, chaos, cluster, fig6, fig7, fig8, fig9, iosize, observe,
    openloop, say, scale, table1, transport, Durations,
};

/// Every artifact `main` knows, in usage order.
const ARTIFACTS: &str = "table1 fig6 fig6a fig6b fig6c fig7 fig8 fig9 ablate iosize openloop \
    transport breakdown observe chaos scale adversary all";

fn usage() -> ! {
    say(&format!(
        "usage: repro [--quick] [--threads N] [--shards N] [--targets N] [--parallel] <artifact>...\n\
         artifacts: {ARTIFACTS}\n\
         fig6 is fig6a, fig6b and fig6c\n\
         --shards N runs every scenario on N kernel shards (results are bit-identical for any N)\n\
         --targets N (N > 1) gives `scale` a targets axis (scale_cluster.csv) and reruns\n\
         `adversary` hardened across a live migration (adversary_targetsN.csv)\n\
         --parallel routes cross-shard schedules through the mailbox mesh\n\
         (DESIGN.md §17); artifacts stay byte-identical to their serial goldens"
    ));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut shards: usize = 1;
    let mut targets: usize = 1;
    let mut parallel = false;
    let mut artifacts: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                let n = args.next().unwrap_or_else(|| usage());
                threads = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--shards" => {
                let n = args.next().unwrap_or_else(|| usage());
                shards = n.parse().unwrap_or_else(|_| usage());
                if shards == 0 {
                    usage();
                }
            }
            "--targets" => {
                let n = args.next().unwrap_or_else(|| usage());
                targets = n.parse().unwrap_or_else(|_| usage());
                if targets == 0 {
                    usage();
                }
            }
            "--parallel" => parallel = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            // Checked here, so a typo fails before any artifact runs.
            other if !ARTIFACTS.split_whitespace().any(|a| a == other) => {
                say(&format!("repro: unknown artifact {other:?}"));
                usage();
            }
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        usage();
    }
    let d = if quick {
        Durations::quick()
    } else {
        Durations::full()
    }
    .with_shards(shards)
    .with_parallel(parallel);

    // Every scenario a figure builds carries `d`'s shard count.
    let mut probe = workload::Scenario::two_tenant(
        workload::RuntimeKind::Opf,
        fabric::Gbps::G100,
        workload::Mix::READ,
    );
    d.apply(&mut probe);
    if let Err(e) = probe.validate() {
        say(&format!("repro: --shards {shards}: {e}"));
        std::process::exit(2);
    }
    if targets > 1 {
        if let Err(e) = cluster::validate(d, quick, targets) {
            say(&format!("repro: --targets {targets}: {e}"));
            std::process::exit(2);
        }
    }

    let start = simkit::Stopwatch::start();
    for artifact in &artifacts {
        match artifact.as_str() {
            "table1" => table1::print(),
            "fig6a" => fig6::fig6a(d, threads),
            "fig6b" => fig6::fig6b(d, threads),
            "fig6c" => fig6::fig6c(d, threads),
            "fig6" => {
                fig6::fig6a(d, threads);
                fig6::fig6b(d, threads);
                fig6::fig6c(d, threads);
            }
            "fig7" => fig7::all(d, threads),
            "fig8" => fig8::all(d, threads),
            "fig9" => fig9::all(d, threads),
            "ablate" => ablate::all(d, threads),
            "iosize" => iosize::all(d, threads),
            "openloop" => openloop::all(d, threads),
            "transport" => transport::all(d, threads),
            "breakdown" => breakdown::all(d, threads),
            "observe" => observe::all(d, threads),
            "chaos" => chaos::all(d, threads),
            "scale" => {
                if targets > 1 {
                    cluster::scale_all(d, threads, quick, targets);
                } else {
                    scale::all(d, threads, quick);
                }
            }
            "adversary" => {
                if targets > 1 {
                    cluster::adversary_all(d, threads, targets);
                } else {
                    adversary::all(d, threads);
                }
            }
            "all" => {
                table1::print();
                fig6::fig6a(d, threads);
                fig6::fig6b(d, threads);
                fig6::fig6c(d, threads);
                fig7::all(d, threads);
                fig8::all(d, threads);
                fig9::all(d, threads);
                ablate::all(d, threads);
                iosize::all(d, threads);
                openloop::all(d, threads);
                transport::all(d, threads);
                breakdown::all(d, threads);
                observe::all(d, threads);
            }
            other => unreachable!("artifact {other:?} passed the name check"),
        }
    }
    say(&format!("[repro finished in {:.1}s]", start.elapsed_secs()));
}
