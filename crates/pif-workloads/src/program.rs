//! Synthetic program image: function layouts, control-flow sites, call
//! graph, and transaction scripts.

use std::collections::BTreeMap;

use pif_types::rng::SmallRng;
use pif_types::{Address, ConfigError};

use crate::params::GeneratorParams;

/// Base address of application code.
pub const APP_CODE_BASE: u64 = 0x0010_0000;
/// Base address of interrupt-handler code (a separate region, like kernel
/// trap vectors).
pub const HANDLER_CODE_BASE: u64 = 0x7000_0000;

/// A control-flow site within a function body, keyed by instruction index.
#[derive(Debug, Clone, PartialEq)]
pub enum Site {
    /// A call site. `callees` holds one function id for direct calls, or a
    /// small set of data-dependent targets for indirect calls.
    Call {
        /// Candidate callee function ids.
        callees: Vec<usize>,
        /// True if the callee is chosen dynamically (indirect call).
        indirect: bool,
    },
    /// A conditional forward branch skipping to `target` (an instruction
    /// index in the same function) with probability `taken_prob`.
    Skip {
        /// Destination instruction index (> site index).
        target: u32,
        /// Probability the skip is taken on a given execution.
        taken_prob: f64,
    },
    /// A loop back-edge: a conditional branch back to `body_start` taken
    /// until the trip count expires. Trip counts are mostly stable across
    /// invocations (`base_trips`, fixed at layout time, like a scan over a
    /// fixed-size structure) with occasional data-dependent jitter.
    LoopBack {
        /// Loop body start index (< site index).
        body_start: u32,
        /// Typical trip count for this site.
        base_trips: u64,
    },
}

/// The static layout of one function: entry address, body length, and its
/// control-flow sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionLayout {
    /// Function id (index into the image's function table).
    pub id: usize,
    /// Entry byte address.
    pub entry: Address,
    /// Body length in instructions (4 bytes each). The final instruction
    /// slot is reserved for the return.
    pub instrs: u32,
    /// Control-flow sites by instruction index. Indices `0` and
    /// `instrs - 1` never carry sites.
    pub sites: BTreeMap<u32, Site>,
}

impl FunctionLayout {
    /// Byte address of the instruction at `index`.
    pub fn pc_at(&self, index: u32) -> Address {
        self.entry.offset(u64::from(index) * 4)
    }

    /// Address of the first byte past the function.
    pub fn end(&self) -> Address {
        self.pc_at(self.instrs)
    }

    /// Code size in 64 B blocks (rounded up, entry-relative).
    pub fn size_blocks(&self) -> u64 {
        let start = self.entry.block().number();
        let last = self.pc_at(self.instrs.saturating_sub(1)).block().number();
        last - start + 1
    }
}

/// A complete synthetic binary: application functions, interrupt handlers,
/// the callee-popularity distribution, and transaction scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramImage {
    functions: Vec<FunctionLayout>,
    handlers: Vec<FunctionLayout>,
    /// Call-graph layer per function id.
    layer_of: Vec<usize>,
    /// Transaction scripts: deterministic sequences of root function ids.
    transactions: Vec<Vec<usize>>,
    /// Cumulative distribution over transaction types (Zipf-skewed).
    tx_cdf: Vec<f64>,
}

impl ProgramImage {
    /// Generates the program image described by `params`.
    ///
    /// Generation is deterministic in `params.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters fail validation.
    pub fn generate(params: &GeneratorParams) -> Result<Self, ConfigError> {
        params.validate()?;
        let mut rng = SmallRng::seed_from_u64(params.seed);

        // Popularity ranks: a random permutation so hot functions are
        // scattered across the address space (like a real linker map).
        let n = params.num_functions;
        let mut rank_of: Vec<usize> = (0..n).collect();
        shuffle(&mut rank_of, &mut rng);
        let zipf = ZipfCdf::new(n, params.zipf_s);

        // Layered call graph: calls only go to strictly deeper layers, so
        // the call graph is a DAG and every call site always executes —
        // the expansion of a function never depends on how it was reached.
        // Popular functions (shared utilities) live in deep layers;
        // unpopular ones (transaction roots, top-level logic) in shallow
        // layers. `rank_of[r]` is the id with popularity rank `r`.
        let layers = params.max_call_depth.max(2);
        let mut layer_of = vec![0usize; n];
        for (r, &id) in rank_of.iter().enumerate() {
            layer_of[id] = (n - 1 - r) * layers / n;
        }

        // Lay out application functions sequentially with small random
        // inter-function padding.
        let mut functions = Vec::with_capacity(n);
        let mut cursor = APP_CODE_BASE;
        for id in 0..n {
            let instrs = rng.gen_range(params.fn_min_instrs..=params.fn_max_instrs);
            let entry = Address::new(cursor);
            cursor += u64::from(instrs) * 4 + u64::from(rng.gen_range(0..8u32)) * 4;
            let sites = gen_sites(
                params, instrs, id, &rank_of, &layer_of, layers, &zipf, &mut rng,
            );
            functions.push(FunctionLayout {
                id,
                entry,
                instrs,
                sites,
            });
        }

        // Interrupt handlers: straight-line-ish code in a separate region.
        let mut handlers = Vec::with_capacity(params.num_handlers);
        let mut hcursor = HANDLER_CODE_BASE;
        for id in 0..params.num_handlers {
            let instrs = rng.gen_range(params.handler_min_instrs..=params.handler_max_instrs);
            let entry = Address::new(hcursor);
            hcursor += u64::from(instrs) * 4 + 64;
            // Handlers get at most one small loop and no calls.
            let mut sites = BTreeMap::new();
            if instrs > 16 && rng.gen_bool(0.5) {
                let end = rng.gen_range(8..instrs - 2);
                let start = end.saturating_sub(rng.gen_range(2..=6)).max(1);
                sites.insert(
                    end,
                    Site::LoopBack {
                        body_start: start,
                        base_trips: 3,
                    },
                );
            }
            handlers.push(FunctionLayout {
                id,
                entry,
                instrs,
                sites,
            });
        }

        // Transaction scripts: deterministic root sequences. Roots are
        // sampled uniformly — transaction entry points span the whole
        // binary (different modules), while *callees* follow the Zipf
        // popularity of shared utility code.
        let mut transactions = Vec::with_capacity(params.num_transaction_types);
        for _ in 0..params.num_transaction_types {
            let script: Vec<usize> = (0..params.transaction_length)
                .map(|_| rng.gen_range(0..n))
                .collect();
            transactions.push(script);
        }
        // Transaction-type popularity is itself Zipf-skewed (some queries /
        // pages dominate).
        let tx_zipf = ZipfCdf::new(params.num_transaction_types, 0.7);
        let tx_cdf = tx_zipf.cdf.clone();

        Ok(ProgramImage {
            functions,
            handlers,
            layer_of,
            transactions,
            tx_cdf,
        })
    }

    /// Application functions.
    pub fn functions(&self) -> &[FunctionLayout] {
        &self.functions
    }

    /// Interrupt handler routines.
    pub fn handlers(&self) -> &[FunctionLayout] {
        &self.handlers
    }

    /// Transaction scripts (sequences of root function ids).
    pub fn transactions(&self) -> &[Vec<usize>] {
        &self.transactions
    }

    /// Samples a transaction type according to the skewed popularity
    /// distribution.
    pub fn sample_transaction(&self, rng: &mut SmallRng) -> usize {
        sample_cdf(&self.tx_cdf, rng)
    }

    /// Call-graph layer of each function (calls go strictly deeper).
    pub fn layer_of(&self, id: usize) -> usize {
        self.layer_of[id]
    }

    /// Structural statistics of the call graph (for documentation and
    /// sanity checks of the generated binary).
    pub fn call_graph_stats(&self) -> CallGraphStats {
        let layers = self.layer_of.iter().copied().max().unwrap_or(0) + 1;
        let mut per_layer = vec![0usize; layers];
        for &l in &self.layer_of {
            per_layer[l] += 1;
        }
        let mut call_sites = 0usize;
        let mut indirect_sites = 0usize;
        let mut skip_sites = 0usize;
        let mut loop_sites = 0usize;
        for f in &self.functions {
            for site in f.sites.values() {
                match site {
                    Site::Call { indirect, .. } => {
                        call_sites += 1;
                        if *indirect {
                            indirect_sites += 1;
                        }
                    }
                    Site::Skip { .. } => skip_sites += 1,
                    Site::LoopBack { .. } => loop_sites += 1,
                }
            }
        }
        CallGraphStats {
            functions: self.functions.len(),
            layers,
            functions_per_layer: per_layer,
            call_sites,
            indirect_sites,
            skip_sites,
            loop_sites,
        }
    }

    /// Total application code footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.functions.iter().map(|f| u64::from(f.instrs) * 4).sum()
    }
}

/// Structural statistics of a generated program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraphStats {
    /// Number of application functions.
    pub functions: usize,
    /// Call-graph depth (layer count).
    pub layers: usize,
    /// Function count per layer (shallow roots first).
    pub functions_per_layer: Vec<usize>,
    /// Total call sites.
    pub call_sites: usize,
    /// Call sites with data-dependent targets.
    pub indirect_sites: usize,
    /// Conditional forward-skip sites.
    pub skip_sites: usize,
    /// Loop back-edge sites.
    pub loop_sites: usize,
}

/// Precomputed Zipf cumulative distribution over `n` ranks.
#[derive(Debug, Clone, PartialEq)]
struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfCdf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        sample_cdf(&self.cdf, rng)
    }
}

fn sample_cdf(cdf: &[f64], rng: &mut SmallRng) -> usize {
    let u = rng.next_f64();
    match cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// Geometric sample with the given mean (always >= 1), for layout-time
/// trip-count draws.
fn gen_geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    (1.0 + u.ln() / (1.0 - p).ln()).floor().max(1.0) as u64
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Generates control-flow sites for one function body.
#[allow(clippy::too_many_arguments)]
fn gen_sites(
    params: &GeneratorParams,
    instrs: u32,
    self_id: usize,
    rank_of: &[usize],
    layer_of: &[usize],
    layers: usize,
    zipf: &ZipfCdf,
    rng: &mut SmallRng,
) -> BTreeMap<u32, Site> {
    let mut sites = BTreeMap::new();
    if instrs < 8 {
        return sites;
    }
    let mut idx = 2u32;
    // Loops must not nest or overlap: a back-edge whose body contains
    // another back-edge would multiply trip counts combinatorially.
    let mut loop_frontier = 1u32;
    // Reserve the last slot for the return and one before it for slack.
    while idx < instrs - 2 {
        let r = rng.next_f64();
        let self_layer = layer_of[self_id];
        if r < params.call_density && self_layer + 1 < layers {
            // Callees must live in strictly deeper layers; Zipf sampling
            // with rejection (popular utilities are deep, so rejection is
            // rare).
            let pick = |rng: &mut SmallRng| -> Option<usize> {
                for _ in 0..48 {
                    let callee = rank_of[zipf.sample(rng)];
                    if layer_of[callee] > self_layer && callee != self_id {
                        return Some(callee);
                    }
                }
                None
            };
            let indirect = rng.gen_bool(params.indirect_fraction);
            let count = if indirect { rng.gen_range(2..=4u32) } else { 1 };
            let mut callees = Vec::new();
            for _ in 0..count {
                if let Some(c) = pick(rng) {
                    callees.push(c);
                }
            }
            if !callees.is_empty() {
                sites.insert(idx, Site::Call { callees, indirect });
            }
            idx += rng.gen_range(2u32..8);
        } else if r < params.call_density + params.skip_density {
            let max_jump = (instrs - 2 - idx).min(24);
            if max_jump >= 2 {
                let noisy = rng.gen_bool(params.noisy_skip_fraction);
                // Data-dependent (noisy) skips jump short distances —
                // they defeat the branch predictor (wrong-path noise,
                // §2.2) while barely perturbing the block-level stream,
                // mirroring real data-dependent branches whose arms share
                // cache blocks. Stable skips may jump further.
                let target = if noisy {
                    idx + rng.gen_range(2..=max_jump.min(6))
                } else {
                    idx + rng.gen_range(2..=max_jump)
                };
                let taken_prob = if noisy {
                    rng.gen_range(0.35..0.65)
                } else if rng.gen_bool(0.5) {
                    // Error-handling skip: essentially never taken.
                    0.002
                } else {
                    params.skip_bias
                };
                sites.insert(idx, Site::Skip { target, taken_prob });
                // No further sites inside the skipped gap: a call subtree
                // hidden behind a rarely-flipping branch would otherwise
                // inject huge cold bursts on the rare path, which real
                // error paths (straight-line cleanup code) do not.
                idx = target + 1;
            } else {
                idx += 1;
            }
        } else if r < params.call_density + params.skip_density + params.loop_density {
            let max_body = params.loop_max_body.min(idx.saturating_sub(loop_frontier));
            if max_body >= 2 {
                let body = rng.gen_range(2..=max_body);
                // Per-site stable trip count drawn once at layout time
                // (real inner loops scan fixed-size structures); capped to
                // keep trace progress bounded.
                let base = gen_geometric(rng, params.loop_mean_iters)
                    .min(params.loop_mean_iters as u64 * 4)
                    .max(2);
                sites.insert(
                    idx,
                    Site::LoopBack {
                        body_start: idx - body,
                        base_trips: base,
                    },
                );
                loop_frontier = idx + 1;
                idx += 2;
            } else {
                idx += 1;
            }
        } else {
            idx += 1;
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> GeneratorParams {
        GeneratorParams {
            num_functions: 64,
            seed: 42,
            ..GeneratorParams::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = small_params();
        let a = ProgramImage::generate(&p).unwrap();
        let b = ProgramImage::generate(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramImage::generate(&small_params()).unwrap();
        let b = ProgramImage::generate(&GeneratorParams {
            seed: 43,
            ..small_params()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn functions_do_not_overlap() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        for w in img.functions().windows(2) {
            assert!(
                w[0].end().raw() <= w[1].entry.raw(),
                "function {} overlaps {}",
                w[0].id,
                w[1].id
            );
        }
    }

    #[test]
    fn handlers_live_in_separate_region() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        for h in img.handlers() {
            assert!(h.entry.raw() >= HANDLER_CODE_BASE);
        }
        for f in img.functions() {
            assert!(f.entry.raw() < HANDLER_CODE_BASE);
        }
    }

    #[test]
    fn sites_respect_body_bounds() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        for f in img.functions() {
            for (&idx, site) in &f.sites {
                assert!(idx > 0 && idx < f.instrs - 1, "site at body edge");
                match site {
                    Site::Skip { target, taken_prob } => {
                        assert!(*target > idx && *target < f.instrs);
                        assert!((0.0..=1.0).contains(taken_prob));
                    }
                    Site::LoopBack { body_start, .. } => {
                        assert!(*body_start < idx && *body_start >= 1);
                    }
                    Site::Call { callees, indirect } => {
                        assert!(!callees.is_empty());
                        if !indirect {
                            assert_eq!(callees.len(), 1);
                        }
                        for &c in callees {
                            assert!(c < img.functions().len());
                            assert_ne!(c, f.id, "self-recursion not generated");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_tracks_parameters() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        let approx = small_params().approx_footprint_bytes();
        let actual = img.footprint_bytes();
        assert!(
            (actual as f64 / approx as f64 - 1.0).abs() < 0.3,
            "approx {approx} vs actual {actual}"
        );
    }

    #[test]
    fn transaction_scripts_reference_valid_functions() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        assert!(!img.transactions().is_empty());
        for script in img.transactions() {
            assert!(!script.is_empty());
            for &f in script {
                assert!(f < img.functions().len());
            }
        }
    }

    #[test]
    fn transaction_sampling_is_skewed() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0usize; img.transactions().len()];
        for _ in 0..10_000 {
            counts[img.sample_transaction(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[counts.len() - 1],
            "Zipf skew: type 0 should dominate"
        );
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let z = ZipfCdf::new(100, 0.9);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-9);
        for w in z.cdf.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn call_graph_is_a_layered_dag() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        let stats = img.call_graph_stats();
        assert!(stats.layers >= 2);
        assert_eq!(
            stats.functions_per_layer.iter().sum::<usize>(),
            stats.functions
        );
        assert!(stats.indirect_sites <= stats.call_sites);
        // Every call goes to a strictly deeper layer: the DAG property the
        // executor's termination relies on.
        for f in img.functions() {
            for site in f.sites.values() {
                if let Site::Call { callees, .. } = site {
                    for &c in callees {
                        assert!(
                            img.layer_of(c) > img.layer_of(f.id),
                            "call from layer {} to layer {}",
                            img.layer_of(f.id),
                            img.layer_of(c)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loops_do_not_nest() {
        let img = ProgramImage::generate(&small_params()).unwrap();
        for f in img.functions() {
            let mut loop_spans: Vec<(u32, u32)> = Vec::new();
            for (&idx, site) in &f.sites {
                if let Site::LoopBack { body_start, .. } = site {
                    loop_spans.push((*body_start, idx));
                }
            }
            for w in loop_spans.windows(2) {
                assert!(
                    w[1].0 > w[0].1,
                    "{}: loop [{},{}] overlaps [{},{}]",
                    f.id,
                    w[1].0,
                    w[1].1,
                    w[0].0,
                    w[0].1
                );
            }
        }
    }

    #[test]
    fn function_layout_geometry_helpers() {
        let f = FunctionLayout {
            id: 0,
            entry: Address::new(0x1000),
            instrs: 32,
            sites: BTreeMap::new(),
        };
        assert_eq!(f.pc_at(0), Address::new(0x1000));
        assert_eq!(f.pc_at(16), Address::new(0x1040));
        assert_eq!(f.end(), Address::new(0x1080));
        assert_eq!(f.size_blocks(), 2);
    }
}
