//! The benchmark's fixed inputs, spelled out here rather than imported so
//! that moving them inside the repository cannot change what is measured.

use crate::adapter::{Axis, Stack};

const KIB: u64 = 1024;

/// The standard exploration grid of a platform preset: the 15-point
/// L1×L2 grid of the three-level stack and the 90-point L1×L2×L3 grid of
/// the four-level stack, as (layer index, capacities).
pub fn standard_axes(stack: Stack) -> Vec<Axis> {
    let axis = |layer: usize, capacities: &[u64]| Axis {
        layer,
        capacities: capacities.to_vec(),
    };
    match stack {
        Stack::ThreeLevel => vec![
            axis(1, &[KIB, 2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB]),
            axis(2, &[128, 256, 512]),
        ],
        Stack::FourLevel => vec![
            axis(
                1,
                &[
                    16 * KIB,
                    32 * KIB,
                    64 * KIB,
                    128 * KIB,
                    192 * KIB,
                    256 * KIB,
                ],
            ),
            axis(2, &[2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB]),
            axis(3, &[256, 512, KIB]),
        ],
    }
}

/// How the serve workload cuts a sub-grid out of a stack's standard grid:
/// per axis, how many capacities it keeps and whether the largest is
/// always among them. Every sub-grid of a stack has the same size (6
/// points on the three-level stack, 18 on the four-level one), so the
/// points a request covers do not depend on the seed.
pub fn serve_sub_grid(stack: Stack) -> Vec<(usize, bool)> {
    match stack {
        Stack::ThreeLevel => vec![(3, true), (2, false)],
        Stack::FourLevel => vec![(3, true), (3, true), (2, true)],
    }
}

/// The nine applications, by program name.
pub const APPS: [&str; 9] = [
    "full_search_me",
    "hierarchical_me",
    "video_encoder",
    "jpeg_enc",
    "cavity_detect",
    "wavelet",
    "sobel_edge",
    "fir_bank",
    "lpc_voice",
];

/// The refinement workload's applications: all nine but
/// `hierarchical_me`, which alone would double a pass.
pub const REFINED_APPS: [&str; 8] = [
    "full_search_me",
    "video_encoder",
    "jpeg_enc",
    "cavity_detect",
    "wavelet",
    "sobel_edge",
    "fir_bank",
    "lpc_voice",
];

/// Per-axis subdivision depth of the refinement workload: each grid
/// interval split in 2², 3,213 virtual lattice points over the
/// four-level grid. An op takes 10–150 ms, so a run gathers the samples
/// a p90 needs.
pub const REFINE_DEPTH: usize = 2;

/// Worker threads of the served instance: the engine's own thread pool
/// already fills the machine.
pub const SERVE_WORKERS: usize = 1;

/// Client connections of the serve workload (closed loop).
pub const SERVE_CLIENTS: usize = 2;

/// Share of serve requests that repeat one of the client's earlier
/// requests.
pub const SERVE_REPEAT_SHARE: f64 = 0.8;
