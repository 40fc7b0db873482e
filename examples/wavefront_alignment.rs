//! The paper's Section 7 generalization in action: the same interval access
//! history race-detecting a **2-D wavefront** computation (Smith–Waterman
//! sequence alignment) and a **software pipeline** — no SP-Order needed,
//! reachability is a coordinate comparison.
//!
//! ```sh
//! cargo run --release --example wavefront_alignment
//! ```

use stint_repro::grid::wavefront::{Pipeline, SmithWaterman};

fn main() {
    // --- Wavefront dynamic programming -----------------------------------
    let a = b"GATTACAGATTACAGGGACTGATTACA";
    let b = b"GCATGCGATTACATTTACGTGATTACA";
    let mut sw = SmithWaterman::new(a, b);
    let (report, _) = sw.detect();
    println!(
        "Smith-Waterman {}x{}: alignment score {}, races: {}",
        a.len() + 1,
        b.len() + 1,
        sw.score(),
        report.total
    );
    assert!(report.is_race_free());
    assert_eq!(sw.score(), SmithWaterman::reference_score(a, b));

    let mut buggy = SmithWaterman::new(a, b);
    buggy.buggy = true; // cells peek at their south-west neighbour
    let (report, _) = buggy.detect();
    println!(
        "  with the south-west peek bug: {} races, e.g. {}",
        report.total,
        report.races()[0]
    );
    assert!(!report.is_race_free());

    // --- Software pipeline ------------------------------------------------
    let mut p = Pipeline::new(64, 6);
    let (report, _) = p.detect();
    println!(
        "\nPipeline 64 items x 6 stages: races: {} (output verified: {})",
        report.total,
        p.buf == Pipeline::reference(64, 6)
    );
    assert!(report.is_race_free());

    let mut p = Pipeline::new(64, 6);
    p.buggy = true; // a stage peeks at the next item's input slot
    let (report, _) = p.detect();
    println!("  with the peeking stage bug: {} races", report.total);
    assert!(!report.is_race_free());

    println!("\nSame treap access history, different reachability component —");
    println!("the Section 7 claim, demonstrated.");
}
