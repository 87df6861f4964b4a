//! Fig. 7 — analytic degradation of the intersection probability under
//! churn (§6.1 closed forms), for several initial ε.

use pqs_bench::{f, Bench};
use pqs_core::analysis::{intersection_after_churn, max_tolerable_churn, ChurnRegime};

pub fn run(b: &mut Bench) {
    let regimes: [(&str, ChurnRegime); 5] = [
        (
            "failures, |Ql| const",
            ChurnRegime::FailuresOnly {
                adjust_lookup: false,
            },
        ),
        (
            "failures, |Ql| adj",
            ChurnRegime::FailuresOnly {
                adjust_lookup: true,
            },
        ),
        (
            "joins, |Ql| const",
            ChurnRegime::JoinsOnly {
                adjust_lookup: false,
            },
        ),
        (
            "joins, |Ql| adj",
            ChurnRegime::JoinsOnly {
                adjust_lookup: true,
            },
        ),
        ("fail+join", ChurnRegime::FailuresAndJoins),
    ];
    for eps in [0.05, 0.1, 0.2] {
        b.header(
            &format!("Fig. 7: intersection probability vs churn f (eps0 = {eps})"),
            &["regime", "f=0", "f=0.1", "f=0.2", "f=0.3", "f=0.5"],
        );
        for (name, regime) in regimes {
            let cells: Vec<String> = std::iter::once(name.to_string())
                .chain(
                    [0.0, 0.1, 0.2, 0.3, 0.5]
                        .iter()
                        .map(|&x| f(intersection_after_churn(eps, x, regime))),
                )
                .collect();
            b.row(&cells);
        }
    }

    b.header(
        "refresh policy: max churn before P(∩) < 0.9 (eps0 = 0.05)",
        &["regime", "tolerable f"],
    );
    for (name, regime) in regimes {
        let tolerable = max_tolerable_churn(0.05, 0.9, regime)
            .map(f)
            .unwrap_or_else(|| "n/a".into());
        b.row(&[name.to_string(), tolerable]);
    }
    println!("\nPaper check (§6.1): starting at 0.95, mixed churn of 30% degrades");
    println!("to slightly below 0.9 — the fail+join row at f=0.3 above.");
}
