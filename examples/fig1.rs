//! Figure 1, executable: the paper's two motivating examples, run on the
//! real simulator components rather than drawn by hand.
//!
//! Left: a 4-block direct-mapped cache fragments the repeating access
//! sequence ABCD into different miss sequences depending on what ran in
//! between. Right: a mispredicted branch injects wrong-path blocks into
//! the front-end access stream.
//!
//! Usage: `cargo run --example fig1`

use pif_sim::cache::SetAssocCache;
use pif_sim::frontend::{FrontEnd, FrontendEvent};
use pif_sim::FrontendConfig;
use pif_types::{Address, BlockAddr, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

fn main() {
    left_panel();
    println!();
    right_panel();
}

/// Figure 1 (left): cache filtering fragments temporal streams.
fn left_panel() {
    println!("Figure 1 (left) — the instruction cache fragments access sequences");
    println!("4-block direct-mapped cache; access sequence: A B C D | R S | A B C D\n");

    let mut cache: SetAssocCache<()> = SetAssocCache::new(4, 1).unwrap();
    let blocks: &[(&str, u64)] = &[
        ("A", 0),
        ("B", 1),
        ("C", 2),
        ("D", 3),
        ("R", 4), // conflicts with A
        ("S", 6), // conflicts with C
        ("A", 0),
        ("B", 1),
        ("C", 2),
        ("D", 3),
    ];
    let mut misses = Vec::new();
    for &(name, n) in blocks {
        let b = BlockAddr::from_number(n);
        if cache.access(b).is_none() {
            cache.insert(b, ());
            misses.push(name);
        }
    }
    println!("observed miss sequence: {}", misses.join(" "));
    println!("-> the second ABCD visit misses only A and C: the miss stream");
    println!("   no longer matches the access stream, so a miss-stream prefetcher");
    println!("   replaying 'A C' will never prefetch B and D.");
}

/// Figure 1 (right): branch-predictor noise in the access stream.
fn right_panel() {
    println!("Figure 1 (right) — wrong-path noise injected by a misprediction");
    println!("a conditional branch in block B skips blocks R,S,T when taken\n");

    // Train the predictor not-taken, then take the branch: the front end
    // speculates down the fall-through (R, S, ...) before the squash.
    let block_base = |i: u64| Address::new(i * 64 * 16);
    let branch_pc = block_base(1); // inside block B's range
    let taken_target = block_base(5); // block C region, skipping R,S,T
    let mk = |taken: bool| {
        RetiredInstr::branch(
            branch_pc,
            TrapLevel::Tl0,
            BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                taken_target,
                fall_through: branch_pc.offset(4),
            },
        )
    };
    let mut trace = vec![RetiredInstr::simple(Address::new(0), TrapLevel::Tl0)];
    for _ in 0..40 {
        trace.push(mk(false));
        trace.push(RetiredInstr::simple(branch_pc.offset(4), TrapLevel::Tl0));
    }
    // The data-dependent flip:
    trace.push(mk(true));
    trace.push(RetiredInstr::simple(taken_target, TrapLevel::Tl0));
    trace.push(RetiredInstr::simple(
        taken_target.offset(64),
        TrapLevel::Tl0,
    ));

    let (events, stats) = FrontEnd::run_trace(FrontendConfig::paper_default(), &trace);
    let tail: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            FrontendEvent::Fetch(a) => Some(format!(
                "{}{}",
                a.pc.block(),
                if a.is_correct_path() {
                    ""
                } else {
                    " (wrong path!)"
                }
            )),
            _ => None,
        })
        .collect();
    println!("fetch-access stream (block granularity), last events:");
    for line in tail.iter().rev().take(6).rev() {
        println!("  {line}");
    }
    println!(
        "\nmispredicts: {} -> {} wrong-path accesses recorded into the access",
        stats.mispredicts, stats.wrong_path_accesses
    );
    println!("stream; an access-stream prefetcher will later replay this noise.");
}
