//! One module per regenerated figure.

pub mod common;
pub mod ext01;
pub mod ext02;
pub mod ext03;
pub mod ext04;
pub mod ext05;
pub mod ext06;
pub mod ext07;
pub mod ext08;
pub mod ext09;
pub mod ext10;
pub mod ext11;
pub mod ext12;
pub mod ext13;
pub mod ext15;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig07;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;

#[cfg(test)]
mod tests;

use crate::ExperimentReport;

/// All experiment ids: the paper's figures in order, then the extension
/// experiments.
pub const ALL: [&str; 26] = [
    "fig1", "fig2", "fig3", "fig5", "fig7", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "ext9", "ext10",
    "ext11", "ext12", "ext13", "ext15",
];

/// Runs an experiment by id. `scale` multiplies the default dataset sizes.
pub fn run(id: &str, scale: f64) -> Option<ExperimentReport> {
    match id {
        "fig1" => Some(fig01::run(scale)),
        "fig2" => Some(fig02::run(scale)),
        "fig3" => Some(fig03::run(scale)),
        "fig5" => Some(fig05::run(scale)),
        "fig7" => Some(fig07::run(scale)),
        "fig10" => Some(fig10::run(scale)),
        "fig12" => Some(fig12::run(scale)),
        "fig13" => Some(fig13::run(scale)),
        "fig14" => Some(fig14::run(scale)),
        "fig15" => Some(fig15::run(scale)),
        "fig16" => Some(fig16::run(scale)),
        "fig17" => Some(fig17::run(scale)),
        "ext1" => Some(ext01::run(scale)),
        "ext2" => Some(ext02::run(scale)),
        "ext3" => Some(ext03::run(scale)),
        "ext4" => Some(ext04::run(scale)),
        "ext5" => Some(ext05::run(scale)),
        "ext6" => Some(ext06::run(scale)),
        "ext7" => Some(ext07::run(scale)),
        "ext8" => Some(ext08::run(scale)),
        "ext9" => Some(ext09::run(scale)),
        "ext10" => Some(ext10::run(scale)),
        "ext11" => Some(ext11::run(scale)),
        "ext12" => Some(ext12::run(scale)),
        "ext13" => Some(ext13::run(scale)),
        "ext15" => Some(ext15::run(scale)),
        _ => None,
    }
}
