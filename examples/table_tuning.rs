//! Size a value predictor for a storage budget.
//!
//! Sweeps FCM and DFCM table geometries over the synthetic SPECint95-like
//! suite, computes both Pareto fronts, and answers: which predictor and
//! geometry gives the best accuracy within a given Kbit budget? This is
//! the engineering question behind the paper's Figure 11(b).
//!
//! Run with: `cargo run --release --example table_tuning [budget_kbit]`

use dfcm_suite::predictors::{DfcmPredictor, FcmPredictor, ValuePredictor};
use dfcm_suite::sim::{pareto_front, sweep_engine_ft, EngineConfig, ParetoPoint};
use dfcm_suite::trace::suite::standard_traces;
use dfcm_suite::trace::BenchmarkTrace;

/// Sweeps one predictor family over the grid (on every hardware thread)
/// and returns its size/accuracy points.
fn points<P: ValuePredictor>(
    grid: &[(u32, u32)],
    factory: impl Fn(u32, u32) -> P + Sync,
    traces: &[BenchmarkTrace],
) -> std::io::Result<Vec<ParetoPoint>> {
    let engine = EngineConfig::default();
    let (points, _) = sweep_engine_ft(grid, |&(l1, l2)| factory(l1, l2), traces, &engine, None)?;
    Ok(points
        .into_iter()
        .map(|p| ParetoPoint {
            label: p.result.predictor.clone(),
            kbits: p.kbits(),
            accuracy: p.accuracy(),
        })
        .collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);
    let traces = standard_traces(2024, 0.05);

    let l1s = [8u32, 10, 12, 14];
    let l2s = [8u32, 10, 12, 14];
    let grid: Vec<(u32, u32)> = l1s
        .iter()
        .flat_map(|&a| l2s.iter().map(move |&b| (a, b)))
        .collect();

    let fcm_points = points(
        &grid,
        |l1, l2| {
            FcmPredictor::builder()
                .l1_bits(l1)
                .l2_bits(l2)
                .build()
                .expect("valid")
        },
        &traces,
    )?;
    let dfcm_points = points(
        &grid,
        |l1, l2| {
            DfcmPredictor::builder()
                .l1_bits(l1)
                .l2_bits(l2)
                .build()
                .expect("valid")
        },
        &traces,
    )?;

    println!("Pareto-optimal configurations (suite-weighted accuracy):\n");
    for (name, points) in [("FCM", &fcm_points), ("DFCM", &dfcm_points)] {
        println!("{name}:");
        for p in pareto_front(points) {
            println!(
                "  {:<28} {:>8.1} Kbit   {:>5.1}%",
                p.label,
                p.kbits,
                100.0 * p.accuracy
            );
        }
        println!();
    }

    let best = |points: &[ParetoPoint]| {
        points
            .iter()
            .filter(|p| p.kbits <= budget)
            .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
            .cloned()
    };
    println!("best within {budget:.0} Kbit:");
    for (name, points) in [("FCM", &fcm_points), ("DFCM", &dfcm_points)] {
        match best(points) {
            Some(p) => println!(
                "  {name:<5} {:<28} {:>8.1} Kbit   {:>5.1}%",
                p.label,
                p.kbits,
                100.0 * p.accuracy
            ),
            None => println!("  {name:<5} (no configuration fits)"),
        }
    }
    Ok(())
}
