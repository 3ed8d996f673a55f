//! Seeded inputs: the random source, the grid workloads' op order and the
//! serve workload's request stream.

use crate::adapter::{Axis, Objective, Stack};
use crate::spec;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, a, b)`.
    pub fn derive(seed: u64, a: u64, b: u64) -> Self {
        let mut r = Rng(seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.0 ^= r.next_u64() ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// One distinct explore request of the serve workload.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Key {
    /// Index into [`spec::APPS`].
    pub app: usize,
    pub stack: Stack,
    pub objective: Objective,
    pub axes: Vec<Axis>,
}

impl Key {
    /// Grid points the request covers.
    pub fn points(&self) -> u64 {
        self.axes
            .iter()
            .map(|a| a.capacities.len() as u64)
            .product()
    }
}

pub const STACKS: [Stack; 2] = [Stack::ThreeLevel, Stack::FourLevel];
const OBJECTIVES: [Objective; 2] = [Objective::Cycles, Objective::Energy];
/// App × objective combinations of one stack: the size of a block of
/// keys.
pub const COMBOS: usize = spec::APPS.len() * OBJECTIVES.len();

/// Every `k`-element subset of `items`, in order.
fn subsets(items: &[u64], k: usize) -> Vec<Vec<u64>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() < k {
        return Vec::new();
    }
    let mut with: Vec<Vec<u64>> = subsets(&items[1..], k - 1)
        .into_iter()
        .map(|mut rest| {
            rest.insert(0, items[0]);
            rest
        })
        .collect();
    with.extend(subsets(&items[1..], k));
    with
}

/// Every sub-grid of a stack's standard grid the serve workload asks for:
/// per axis, a fixed number of its capacities, with or without its
/// largest (see [`spec::serve_sub_grid`]). All sub-grids of a stack have
/// the same number of points.
pub fn sub_grids(stack: Stack) -> Vec<Vec<Axis>> {
    let mut grids: Vec<Vec<Axis>> = vec![Vec::new()];
    for (axis, (keep, keep_max)) in spec::standard_axes(stack)
        .into_iter()
        .zip(spec::serve_sub_grid(stack))
    {
        let caps = &axis.capacities;
        let choices: Vec<Vec<u64>> = if keep_max {
            let (rest, top) = caps.split_at(caps.len() - 1);
            subsets(rest, keep - 1)
                .into_iter()
                .map(|mut s| {
                    s.extend_from_slice(top);
                    s
                })
                .collect()
        } else {
            subsets(caps, keep)
        };
        grids = grids
            .into_iter()
            .flat_map(|g| {
                choices.iter().map(move |c| {
                    let mut g = g.clone();
                    g.push(Axis {
                        layer: axis.layer,
                        capacities: c.clone(),
                    });
                    g
                })
            })
            .collect();
    }
    grids
}

/// The distinct requests of the serve workload, per stack, in the order
/// they are first sent: key `m` of a stack belongs to block `m / COMBOS`;
/// every block visits each application × objective combination once in a
/// seeded order, and each combination walks a seeded permutation of the
/// stack's sub-grids, so no key repeats before a combination has used
/// every sub-grid.
pub struct KeySource {
    seed: u64,
    sub_grids: [Vec<Vec<Axis>>; 2],
    /// Per stack and combination, the order its sub-grids are used in.
    orders: [Vec<Vec<usize>>; 2],
}

impl KeySource {
    pub fn new(seed: u64) -> Self {
        let sub_grids = STACKS.map(sub_grids);
        let orders = [0, 1].map(|s| {
            (0..COMBOS)
                .map(|combo| {
                    Rng::derive(seed, 1 + s as u64, combo as u64).permutation(sub_grids[s].len())
                })
                .collect()
        });
        KeySource {
            seed,
            sub_grids,
            orders,
        }
    }

    /// The `m`-th distinct key of stack index `s` (into [`STACKS`]).
    pub fn key(&self, s: usize, m: usize) -> Key {
        let block = m / COMBOS;
        let combo =
            Rng::derive(self.seed, 3 + s as u64, block as u64).permutation(COMBOS)[m % COMBOS];
        let order = &self.orders[s][combo];
        Key {
            app: combo / OBJECTIVES.len(),
            stack: STACKS[s],
            objective: OBJECTIVES[combo % OBJECTIVES.len()],
            axes: self.sub_grids[s][order[block % order.len()]].clone(),
        }
    }
}

/// A request of a client's stream: stack index and key index.
pub type KeyId = (usize, usize);

/// One client's closed-loop request sequence. Requests alternate between
/// the two stacks. The first request of each stack is new; after that
/// each request repeats one of the client's own earlier keys of its stack
/// with probability [`spec::SERVE_REPEAT_SHARE`], else takes the client's
/// next new key of that stack. Client `c` of `clients` owns key indices
/// `c, c + clients, c + 2·clients, …` of each stack, so two clients never
/// send the same new key.
pub struct ClientStream {
    rng: Rng,
    client: usize,
    clients: usize,
    slot: usize,
    issued: [Vec<usize>; 2],
}

impl ClientStream {
    pub fn new(seed: u64, client: usize, clients: usize) -> Self {
        ClientStream {
            rng: Rng::derive(seed, 5, client as u64),
            client,
            clients,
            slot: 0,
            issued: [Vec::new(), Vec::new()],
        }
    }
}

impl Iterator for ClientStream {
    type Item = KeyId;

    fn next(&mut self) -> Option<KeyId> {
        let s = self.slot % STACKS.len();
        self.slot += 1;
        let issued = &mut self.issued[s];
        let repeat = self.rng.next_f64() < spec::SERVE_REPEAT_SHARE;
        if repeat && !issued.is_empty() {
            return Some((s, issued[self.rng.below(issued.len())]));
        }
        let m = issued.len() * self.clients + self.client;
        issued.push(m);
        Some((s, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn stream(seed: u64, client: usize, n: usize) -> Vec<Key> {
        let keys = KeySource::new(seed);
        ClientStream::new(seed, client, 2)
            .take(n)
            .map(|(s, m)| keys.key(s, m))
            .collect()
    }

    #[test]
    fn same_seed_same_request_stream() {
        for client in 0..2 {
            assert_eq!(stream(7, client, 500), stream(7, client, 500));
        }
        assert_ne!(stream(7, 0, 500), stream(8, 0, 500));
    }

    #[test]
    fn new_keys_are_distinct_and_balanced() {
        let keys = KeySource::new(11);
        for (s, stack) in STACKS.iter().enumerate() {
            let distinct = sub_grids(*stack).len() * COMBOS;
            let first: Vec<Key> = (0..distinct).map(|m| keys.key(s, m)).collect();
            assert_eq!(first.iter().collect::<HashSet<_>>().len(), distinct);
            // Each block of COMBOS keys covers every combination once.
            let combos: HashSet<(usize, Objective)> = first[..COMBOS]
                .iter()
                .map(|k| (k.app, k.objective))
                .collect();
            assert_eq!(combos.len(), COMBOS);
        }
    }

    #[test]
    fn sub_grids_of_a_stack_are_distinct_and_equal_sized() {
        for stack in STACKS {
            let grids = sub_grids(stack);
            assert!(grids.len() >= 18, "{stack:?}");
            assert_eq!(grids.iter().collect::<HashSet<_>>().len(), grids.len());
            let points =
                |g: &Vec<Axis>| -> usize { g.iter().map(|a| a.capacities.len()).product() };
            assert!(grids.iter().all(|g| points(g) == points(&grids[0])));
            for g in &grids {
                for (axis, full) in g.iter().zip(spec::standard_axes(stack)) {
                    assert!(axis.capacities.iter().all(|c| full.capacities.contains(c)));
                    assert!(axis.capacities.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn about_the_repeat_share_of_requests_repeat() {
        let n = 20_000;
        let mut s = ClientStream::new(5, 1, 2);
        let mut seen = HashSet::new();
        let mut stacks = [0usize; 2];
        let repeats = (0..n)
            .filter(|_| {
                let id = s.next().unwrap();
                stacks[id.0] += 1;
                !seen.insert(id)
            })
            .count();
        let share = repeats as f64 / n as f64;
        assert!((share - spec::SERVE_REPEAT_SHARE).abs() < 0.02, "{share}");
        assert_eq!(stacks, [n / 2, n / 2]);
        // Client 1 only ever sends odd keys.
        assert!(seen.iter().all(|(_, m)| m % 2 == 1));
    }
}
