//! Satellite: cache correctness under randomized traffic.
//!
//! Two properties, driven through [`Service::handle_line`] (no sockets):
//!
//! 1. **Hit ≡ cold, byte for byte.** For random programs × platforms ×
//!    objectives, a cache hit's response body is byte-identical to the
//!    cold evaluation's — and to what a *fresh* service computes for the
//!    same request.
//! 2. **Eviction never serves a stale or cross-keyed frontier.** Under a
//!    byte budget too small to hold the working set, every response —
//!    hit, miss, or post-eviction recompute — still equals the fresh-
//!    service oracle for its own request.
//!
//! Plus the same no-cross-keying property on [`ResultCache`] directly,
//! with random keys and bodies.

use mhla_hierarchy::serdes::platform_value;
use mhla_hierarchy::Platform;
use mhla_ir::arbitrary::program_specs;
use mhla_ir::serdes::{program_value, Json};
use mhla_ir::Program;
use mhla_serve::cache::{CacheKey, ResultCache};
use mhla_serve::{Service, ServiceOptions};
use proptest::prelude::*;

/// Renders an explore request line for the service ingress.
fn explore_line(program: &Program, platform: &Platform, objective: &Json, caps: &[u64]) -> String {
    let axes = Json::Arr(vec![
        Json::Obj(vec![
            ("layer".into(), Json::from_u64(1)),
            (
                "capacities".into(),
                Json::Arr(caps.iter().map(|&c| Json::from_u64(c)).collect()),
            ),
        ]),
        Json::Obj(vec![
            ("layer".into(), Json::from_u64(2)),
            (
                "capacities".into(),
                Json::Arr(vec![Json::from_u64(64), Json::from_u64(128)]),
            ),
        ]),
    ]);
    Json::Obj(vec![
        ("op".into(), Json::Str("explore".into())),
        ("program".into(), program_value(program)),
        ("platform".into(), platform_value(platform)),
        ("objective".into(), objective.clone()),
        ("axes".into(), axes),
    ])
    .render_compact()
}

/// Splits an explore response line into (cached, body). Panics on an
/// error line — these tests only submit valid requests.
fn split_ok(line: &str) -> (bool, &str) {
    let rest = line
        .strip_prefix("{\"ok\":true,\"cached\":")
        .unwrap_or_else(|| panic!("expected an ok explore response, got {line}"));
    let (cached, body) = if let Some(b) = rest.strip_prefix("false,\"result\":") {
        (false, b)
    } else if let Some(b) = rest.strip_prefix("true,\"result\":") {
        (true, b)
    } else {
        panic!("malformed cached flag in {line}");
    };
    (cached, body.strip_suffix('}').expect("closing brace"))
}

/// The three objective shapes the wire accepts.
fn objectives() -> Vec<Json> {
    vec![
        Json::Str("cycles".into()),
        Json::Str("energy".into()),
        Json::Obj(vec![
            ("energy_weight".into(), Json::from_f64(0.5)),
            ("cycle_weight".into(), Json::from_f64(0.5)),
        ]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: the second submission is answered from cache and its
    /// body is byte-identical both to the first (cold) response and to a
    /// fresh service's cold evaluation of the same request.
    #[test]
    fn cache_hit_is_byte_identical_to_cold(
        spec in program_specs(),
        obj_idx in 0usize..3,
        platform_idx in 0usize..2,
    ) {
        let program = spec.build();
        let platform = if platform_idx == 0 {
            Platform::three_level(1024, 256)
        } else {
            Platform::three_level(2048, 512)
        };
        let objective = objectives().swap_remove(obj_idx);
        let line = explore_line(&program, &platform, &objective, &[128, 256]);

        let service = Service::new(ServiceOptions::default());
        let cold = service.handle_line(&line);
        let warm = service.handle_line(&line);
        let (c0, body_cold) = split_ok(&cold);
        let (c1, body_warm) = split_ok(&warm);
        prop_assert!(!c0, "first submission must miss");
        prop_assert!(c1, "second submission must hit");
        prop_assert_eq!(body_cold, body_warm, "hit must be byte-identical to cold");

        let oracle = Service::new(ServiceOptions::default());
        let oracle_line = oracle.handle_line(&line);
        let (_, body_oracle) = split_ok(&oracle_line);
        prop_assert_eq!(
            body_cold, body_oracle,
            "a fresh service must compute the same body"
        );
    }

    /// Property 2: a cache squeezed far below the working set keeps
    /// evicting, yet every response still matches the per-request oracle
    /// — eviction never surfaces a stale or cross-keyed frontier.
    #[test]
    fn eviction_under_tiny_budget_never_serves_wrong_frontier(
        spec in program_specs(),
        order in proptest::prop::collection::vec(0usize..3, 6..=10),
    ) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let objective = Json::Str("cycles".into());
        // Three distinct cache keys (distinct axes) cycled in random
        // order through a cache that holds roughly one body.
        let cap_sets: [&[u64]; 3] = [&[128, 256], &[256, 1024], &[128, 1024]];
        let lines: Vec<String> = cap_sets
            .iter()
            .map(|caps| explore_line(&program, &platform, &objective, caps))
            .collect();
        let oracle_bodies: Vec<String> = lines
            .iter()
            .map(|line| {
                let oracle = Service::new(ServiceOptions::default());
                split_ok(&oracle.handle_line(line)).1.to_string()
            })
            .collect();

        let first_body_len = oracle_bodies[0].len();
        let service = Service::new(ServiceOptions {
            cache_bytes: first_body_len + first_body_len / 2,
        });
        for &i in &order {
            let response = service.handle_line(&lines[i]);
            let (_, body) = split_ok(&response);
            prop_assert_eq!(
                body,
                oracle_bodies[i].as_str(),
                "response under eviction pressure diverged from the oracle"
            );
        }
    }

    /// The same non-cross-keying property on the cache itself: whatever
    /// the insert/get interleaving and however small the budget, a `get`
    /// returns `None` or exactly the body last inserted under that key.
    #[test]
    fn result_cache_never_crosses_keys(
        budget in 8usize..200,
        ops in proptest::prop::collection::vec((0u8..2, 0usize..4), 1..40),
    ) {
        // Each key has one canonical body (as in real traffic, where the
        // body is a function of the key's content); a hit must return
        // exactly its own key's bytes.
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey {
                program_fp: i as u128,
                platform_fp: 0,
                options: format!("opts-{i}"),
            })
            .collect();
        let bodies: Vec<String> =
            (0..4).map(|i| format!("body-{i}-{}", "x".repeat(i * 7))).collect();
        let mut cache = ResultCache::new(budget);
        for (op, k) in ops {
            if op == 0 {
                cache.insert(keys[k].clone(), bodies[k].clone());
            } else if let Some(got) = cache.get(&keys[k]) {
                prop_assert_eq!(
                    got,
                    bodies[k].clone(),
                    "cache served another key's bytes"
                );
            }
        }
        prop_assert!(cache.bytes() <= budget.max(1), "byte budget violated");
    }
}

/// Deterministic spot-check of the eviction property with the real
/// engine: two alternating keys in a one-body cache keep evicting each
/// other, and the served bytes always match the right key.
#[test]
fn alternating_keys_in_one_body_cache_stay_correct() {
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::three_level(1024, 256);
    let objective = Json::Str("cycles".into());
    let line_a = explore_line(&app.program, &platform, &objective, &[128, 256]);
    let line_b = explore_line(&app.program, &platform, &objective, &[256, 1024]);

    let oracle = Service::new(ServiceOptions::default());
    let body_a = split_ok(&oracle.handle_line(&line_a)).1.to_string();
    let body_b = split_ok(&oracle.handle_line(&line_b)).1.to_string();
    assert_ne!(body_a, body_b, "distinct axes must produce distinct bodies");

    let service = Service::new(ServiceOptions {
        cache_bytes: body_a.len() + 64,
    });
    for _ in 0..3 {
        assert_eq!(split_ok(&service.handle_line(&line_a)).1, body_a);
        assert_eq!(split_ok(&service.handle_line(&line_b)).1, body_b);
    }
}
